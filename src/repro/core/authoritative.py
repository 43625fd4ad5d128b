"""Authoritative loss quantification from vendor resolution logs.

The paper's §6 names its dream follow-up: "we hope that wallet
providers will eventually share their resolution data with researchers
so that follow-up work can more authoritatively quantify accidental ENS
transactions." Our simulated wallets *do* produce that log
(:class:`~repro.datasets.schema.ResolutionRecord`), so this module
implements that follow-up:

* **intent** — a sender's intended recipient for a name is whoever the
  name resolved to the first time they paid it;
* **misdirection** — any later resolution of the same (sender, name)
  pair landing on a *different* address is an authoritative misdirected
  payment (resolution-routed, so "pasted the address" ambiguity is gone);
* **comparison** — matched against the conservative on-chain a1/c/a2
  detector to measure its precision and (under)coverage, turning the
  paper's "we most likely underestimate" into a number.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.schema import ResolutionRecord
from ..oracle.ethusd import EthUsdOracle
from .losses import LossReport

__all__ = [
    "authoritative_losses",
    "assess_conservative_heuristic",
]


@dataclass(frozen=True, slots=True)
class AuthoritativeLoss:
    """One resolution-proven misdirected payment."""

    name: str
    sender: str
    intended: str               # the first-resolution recipient
    received_by: str            # where this payment actually landed
    timestamp: int
    tx_hash: str


@dataclass
class AuthoritativeReport:
    """All resolution-proven misdirections in a vendor log."""

    losses: list[AuthoritativeLoss]
    resolutions_examined: int

    @property
    def tx_hashes(self) -> set[str]:
        """Hashes of all misdirected transactions (as a set)."""
        return {loss.tx_hash for loss in self.losses}

    @property
    def affected_names(self) -> int:
        """Number of distinct names with misdirected traffic."""
        return len({loss.name for loss in self.losses})

    @property
    def unique_senders(self) -> int:
        """Number of distinct senders who misdirected funds."""
        return len({loss.sender for loss in self.losses})


def authoritative_losses(
    resolution_log: list[ResolutionRecord],
) -> AuthoritativeReport:
    """Scan a vendor log for payments that resolved away from intent.

    A sender "re-learning" a name (intentionally paying its new owner)
    is indistinguishable even here — the paper's residual caveat — but
    the pasted-address ambiguity, the dominant unknown on chain, is
    eliminated.
    """
    intent: dict[tuple[str, str], str] = {}
    losses: list[AuthoritativeLoss] = []
    for record in sorted(resolution_log, key=lambda r: r.timestamp):
        key = (record.sender, record.name)
        first_target = intent.get(key)
        if first_target is None:
            intent[key] = record.resolved_to
            continue
        if record.resolved_to != first_target:
            losses.append(
                AuthoritativeLoss(
                    name=record.name,
                    sender=record.sender,
                    intended=first_target,
                    received_by=record.resolved_to,
                    timestamp=record.timestamp,
                    tx_hash=record.tx_hash,
                )
            )
    return AuthoritativeReport(
        losses=losses, resolutions_examined=len(resolution_log)
    )


@dataclass(frozen=True, slots=True)
class HeuristicAssessment:
    """The conservative detector judged against resolution truth."""

    authoritative_txs: int
    conservative_txs: int
    overlap_txs: int

    @property
    def precision(self) -> float:
        """Share of conservative findings confirmed by resolutions."""
        if not self.conservative_txs:
            return 1.0
        return self.overlap_txs / self.conservative_txs

    @property
    def coverage(self) -> float:
        """Share of authoritative losses the heuristic recovered."""
        if not self.authoritative_txs:
            return 1.0
        return self.overlap_txs / self.authoritative_txs

    @property
    def undercount_factor(self) -> float:
        """authoritative / conservative — the paper's 'underestimate'."""
        if not self.conservative_txs:
            return float("inf") if self.authoritative_txs else 1.0
        return self.authoritative_txs / self.conservative_txs


def assess_conservative_heuristic(
    authoritative: AuthoritativeReport,
    conservative: LossReport,
) -> HeuristicAssessment:
    """Match the two loss sets by transaction hash."""
    conservative_hashes = {
        tx.tx_hash for flow in conservative.flows for tx in flow.txs_to_new
    }
    authoritative_hashes = authoritative.tx_hashes
    return HeuristicAssessment(
        authoritative_txs=len(authoritative_hashes),
        conservative_txs=len(conservative_hashes),
        overlap_txs=len(authoritative_hashes & conservative_hashes),
    )
