"""The §6 countermeasure: expiry/re-registration warnings in wallets.

The paper's proposed fix is deliberately simple — before sending, check
the registrar's expiry and whether the name changed hands recently, and
warn. This module ships that wallet profile and an evaluator that
replays a dataset's misdirected transactions to measure how many a
warning would have intercepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.losses import LossReport
from ..datasets.dataset import ENSDataset
from .wallet import WalletProfile

__all__ = ["WARNING_WALLET", "evaluate_countermeasure"]

# A stock wallet with both checks enabled — the paper's recommendation.
WARNING_WALLET = WalletProfile(
    name="Warning Wallet",
    version="1.0",
    custodial=False,
    checks_expiry=True,
    checks_recent_reregistration=True,
    reregistration_warning_window_days=90,
)


@dataclass(frozen=True, slots=True)
class CountermeasureEvaluation:
    """How much §4.4 loss a warning would have prevented."""

    misdirected_txs: int
    warned_txs: int
    misdirected_usd: float
    warned_usd: float

    @property
    def tx_coverage(self) -> float:
        """Fraction of misdirected transactions the warning caught."""
        return self.warned_txs / self.misdirected_txs if self.misdirected_txs else 0.0

    @property
    def usd_coverage(self) -> float:
        """Fraction of misdirected USD the warning caught."""
        return self.warned_usd / self.misdirected_usd if self.misdirected_usd else 0.0


def evaluate_countermeasure(
    dataset: ENSDataset,
    losses: LossReport,
    warning_window_days: int = 90,
) -> CountermeasureEvaluation:
    """Replay every misdirected payment against the warning policy.

    A payment is *warned* when it happened within ``warning_window_days``
    of the catch — the window in which a "this name recently changed
    owners" banner would fire. Payments beyond the window (the sender
    pays a long-since re-registered name) would pass silently even with
    the countermeasure, which is why the paper recommends wallets keep
    resolution provenance, not just a recency banner.
    """
    window_seconds = warning_window_days * 86_400
    catch_time: dict[str, int] = {}
    for domain in dataset.iter_domains():
        for earlier, later in zip(domain.registrations, domain.registrations[1:]):
            if earlier.registrant != later.registrant:
                catch_time[f"{domain.domain_id}:{later.registrant}"] = (
                    later.registration_date
                )
    total_txs = warned_txs = 0
    total_usd = warned_usd = 0.0
    for flow in losses.flows:
        caught_at = catch_time.get(f"{flow.domain_id}:{flow.new_owner}")
        for tx in flow.txs_to_new:
            usd = losses.oracle.wei_to_usd(tx.value_wei, tx.timestamp)
            total_txs += 1
            total_usd += usd
            if caught_at is not None and tx.timestamp - caught_at <= window_seconds:
                warned_txs += 1
                warned_usd += usd
    return CountermeasureEvaluation(
        misdirected_txs=total_txs,
        warned_txs=warned_txs,
        misdirected_usd=total_usd,
        warned_usd=warned_usd,
    )
