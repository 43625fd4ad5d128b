"""Hijackable funds sent to expired, not-yet-recaught names (Figure 7).

A payment is *hijackable* when it lands on the wallet an expired name
still resolves to, after the grace period has ended (anyone could have
registered the name and captured it) and before the name was actually
re-registered. Conservatively, only payments from senders with a prior
payment relationship during the ownership window count — those are the
payments plausibly routed through the name.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.dataset import ENSDataset
from ..datasets.schema import DomainRecord, TxRecord
from ..ens.premium import GRACE_PERIOD_DAYS
from ..oracle.ethusd import EthUsdOracle
from .context import AnalysisContext

__all__ = [
    "HijackableWindow",
    "HijackableReport",
    "domain_windows",
    "find_hijackable",
]

_GRACE_SECONDS = GRACE_PERIOD_DAYS * 86_400


@dataclass(frozen=True, slots=True)
class HijackableWindow:
    """One domain's exposure window and the funds that fell into it."""

    domain_id: str
    name: str | None
    wallet: str
    window_start: int
    window_end: int
    txs: tuple[TxRecord, ...]

    def usd_total(self, oracle: EthUsdOracle) -> float:
        """USD value of the window's transactions at send-time rates."""
        return sum(oracle.wei_to_usd(tx.value_wei, tx.timestamp) for tx in self.txs)


@dataclass
class HijackableReport:
    """Aggregate of Figure 7."""

    windows: list[HijackableWindow]
    oracle: EthUsdOracle

    @property
    def domains_with_exposure(self) -> int:
        """Number of windows that actually received transactions."""
        return sum(1 for window in self.windows if window.txs)

    @property
    def total_txs(self) -> int:
        """Total transactions across all hijackable windows."""
        return sum(len(window.txs) for window in self.windows)

    def usd_per_domain(self) -> list[float]:
        """Per-domain hijackable USD (the Figure 7 distribution)."""
        return [
            window.usd_total(self.oracle)
            for window in self.windows
            if window.txs
        ]

    @property
    def total_usd(self) -> float:
        """Total USD exposure across all windows."""
        return sum(self.usd_per_domain())


def find_hijackable(
    dataset: ENSDataset,
    oracle: EthUsdOracle,
    require_prior_relationship: bool = True,
    context: AnalysisContext | None = None,
) -> HijackableReport:
    """Scan every domain's released windows for captured-able funds."""
    access = context if context is not None else AnalysisContext(dataset, oracle)
    cutoff = dataset.crawl_timestamp
    windows: list[HijackableWindow] = []
    for domain in dataset.iter_domains():
        windows.extend(
            domain_windows(
                domain,
                access,
                cutoff=cutoff,
                require_prior_relationship=require_prior_relationship,
            )
        )
    return HijackableReport(windows=windows, oracle=oracle)


def domain_windows(
    domain: DomainRecord,
    access: AnalysisContext,
    *,
    cutoff: int,
    require_prior_relationship: bool = True,
) -> list[HijackableWindow]:
    """One domain's hijackable windows, in interval order.

    The per-domain unit of :func:`find_hijackable`: its result depends
    only on the domain's registration history, the crawl cutoff, and
    the *incoming* histories of the interval registrants — the
    dependency set incremental rebuilds key their memo on.
    """
    windows: list[HijackableWindow] = []
    for interval in access.ownership_intervals(domain.domain_id):
        release = interval.end + _GRACE_SECONDS
        window_end = (
            interval.next_start if interval.next_start is not None else cutoff
        )
        if window_end <= release:
            continue
        wallet = interval.registrant
        if require_prior_relationship:
            prior_senders = access.senders_in_window(
                wallet, interval.start, interval.end, positive_only=False
            )
        # release is exclusive: with integer timestamps, ts > release
        # is the closed window starting at release + 1
        window = access.incoming_window(wallet, release + 1, window_end)
        exposed = tuple(
            window.tx(position)
            for position, (value, sender) in enumerate(
                zip(window.values, window.senders)
            )
            if value > 0
            and (not require_prior_relationship or sender in prior_senders)
        )
        if exposed:
            windows.append(
                HijackableWindow(
                    domain_id=domain.domain_id,
                    name=domain.name,
                    wallet=wallet,
                    window_start=release,
                    window_end=window_end,
                    txs=exposed,
                )
            )
    return windows
