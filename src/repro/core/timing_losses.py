"""A second, timing-anchored misdirection heuristic (triangulation).

The paper's a1/c/a2 detector keys on *relationship structure* (who paid
whom, never again). An independent way to find misdirections keys on
*timing*: payments arriving at the catcher's wallet soon after the
catch, from senders with any prior payment to the previous owner —
fresh catches are when stale resolution intent strikes.

Neither heuristic dominates: the structural one accepts late
misdirections the timing one misses; the timing one accepts senders who
later returned to a1 (which the structural one excludes). Comparing
them — and both against vendor-log truth — bounds the methodology's
uncertainty, the way measurement papers triangulate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.dataset import ENSDataset
from ..datasets.schema import TxRecord
from ..oracle.ethusd import EthUsdOracle
from .context import AnalysisContext
from .dropcatch import ReRegistration
from .losses import LossReport

__all__ = ["detect_losses_by_timing", "heuristic_overlap"]

_DEFAULT_WINDOW_DAYS = 120


@dataclass(frozen=True, slots=True)
class TimingFlow:
    """Payments from one prior sender hitting a2 inside the window."""

    domain_id: str
    name: str | None
    previous_owner: str
    new_owner: str
    sender: str
    txs_to_new: tuple[TxRecord, ...]

    def usd_total(self, oracle: EthUsdOracle) -> float:
        """USD value of the flow's transactions at send-time rates."""
        return sum(
            oracle.wei_to_usd(tx.value_wei, tx.timestamp) for tx in self.txs_to_new
        )


@dataclass
class TimingLossReport:
    """Aggregates of the timing heuristic."""

    flows: list[TimingFlow]
    window_days: int

    @property
    def misdirected_tx_count(self) -> int:
        """Total misdirected transactions across flows."""
        return sum(len(flow.txs_to_new) for flow in self.flows)

    @property
    def affected_domains(self) -> int:
        """Number of distinct domains with misdirected flows."""
        return len({flow.domain_id for flow in self.flows})

    @property
    def tx_hashes(self) -> set[str]:
        """Hashes of all misdirected transactions (as a set)."""
        return {tx.tx_hash for flow in self.flows for tx in flow.txs_to_new}


def detect_losses_by_timing(
    dataset: ENSDataset,
    oracle: EthUsdOracle,
    events: list[ReRegistration] | None = None,
    window_days: int = _DEFAULT_WINDOW_DAYS,
    context: AnalysisContext | None = None,
) -> TimingLossReport:
    """Flag payments to a2 within ``window_days`` of the catch from any
    sender that ever paid a1 before the catch (custodial filtered)."""
    access = context if context is not None else AnalysisContext(dataset, oracle)
    if events is None:
        events = access.reregistrations()
    window_seconds = window_days * 86_400
    flows: list[TimingFlow] = []
    for event in events:
        a1, a2 = event.previous_owner, event.new_owner
        if a1 == a2:
            continue
        caught_at = event.next.registration_date
        # strictly-before the catch; timestamps are ints, so < caught_at
        # is the closed window ending at caught_at - 1
        prior_senders = access.senders_in_window(a1, None, caught_at - 1)
        prior_senders -= dataset.custodial_addresses
        prior_senders.discard(a1)
        prior_senders.discard(a2)
        if not prior_senders:
            continue
        hits: dict[str, list[TxRecord]] = {}
        window = access.incoming_window(a2, caught_at, caught_at + window_seconds)
        for position, (value, sender) in enumerate(
            zip(window.values, window.senders)
        ):
            if value > 0 and sender in prior_senders:
                hits.setdefault(sender, []).append(window.tx(position))
        for sender, txs in sorted(hits.items()):
            flows.append(
                TimingFlow(
                    domain_id=event.domain_id,
                    name=event.name,
                    previous_owner=a1,
                    new_owner=a2,
                    sender=sender,
                    txs_to_new=tuple(txs),
                )
            )
    return TimingLossReport(flows=flows, window_days=window_days)


@dataclass(frozen=True, slots=True)
class HeuristicOverlap:
    """Agreement statistics between the two heuristics."""

    structural_txs: int
    timing_txs: int
    both: int

    @property
    def jaccard(self) -> float:
        """Jaccard overlap between the structural and timing heuristics."""
        union = self.structural_txs + self.timing_txs - self.both
        return self.both / union if union else 1.0


def heuristic_overlap(
    structural: LossReport, timing: TimingLossReport
) -> HeuristicOverlap:
    """Transaction-level agreement between the two detectors."""
    structural_hashes = {
        tx.tx_hash for flow in structural.flows for tx in flow.txs_to_new
    }
    timing_hashes = timing.tx_hashes
    return HeuristicOverlap(
        structural_txs=len(structural_hashes),
        timing_txs=len(timing_hashes),
        both=len(structural_hashes & timing_hashes),
    )
