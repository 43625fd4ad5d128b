"""Timing analysis of re-registrations (Figures 2 & 3, §4.1 timing).

Covers the monthly timeline of registrations/expirations/re-registrations
and the expiry→re-registration delay distribution with its premium-window
mass points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timezone

from ..datasets.dataset import ENSDataset
from ..ens.premium import GRACE_PERIOD_DAYS, PREMIUM_PERIOD_DAYS
from .dropcatch import ReRegistration, find_reregistrations

__all__ = [
    "monthly_timeline",
    "DelayDistribution",
    "delay_distribution",
    "PREMIUM_END_DAYS",
]

# Days from expiry until the premium auction concludes.
PREMIUM_END_DAYS = GRACE_PERIOD_DAYS + PREMIUM_PERIOD_DAYS

# "shortly after the premium" — within this many days of its end.
_SHORTLY_AFTER_WINDOW_DAYS = 9.0


def _month_of(timestamp: int) -> str:
    moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return f"{moment.year:04d}-{moment.month:02d}"


@dataclass(frozen=True, slots=True)
class MonthlyTimeline:
    """Per-month event counts (the three series of Figure 2)."""

    months: list[str]
    registrations: list[int]
    expirations: list[int]
    reregistrations: list[int]

    def peak_monthly_reregistrations(self) -> int:
        """Largest re-registration count of any month."""
        return max(self.reregistrations, default=0)

    def as_rows(self) -> list[tuple[str, int, int, int]]:
        """``(month, registrations, expirations, re-registrations)`` rows."""
        return list(
            zip(self.months, self.registrations, self.expirations, self.reregistrations)
        )


def monthly_timeline(dataset: ENSDataset) -> MonthlyTimeline:
    """Bucket registrations, expirations, and re-registrations by month."""
    cutoff = dataset.crawl_timestamp
    registration_counts: Counter[str] = Counter()
    expiration_counts: Counter[str] = Counter()
    rereg_counts: Counter[str] = Counter()
    for domain in dataset.iter_domains():
        for position, registration in enumerate(domain.registrations):
            registration_counts[_month_of(registration.registration_date)] += 1
            is_last = position == len(domain.registrations) - 1
            lapsed = (not is_last) or (
                cutoff and registration.expiry_date < cutoff
            )
            if lapsed:
                expiration_counts[_month_of(registration.expiry_date)] += 1
            if position > 0 and (
                registration.registrant
                != domain.registrations[position - 1].registrant
            ):
                rereg_counts[_month_of(registration.registration_date)] += 1
    all_months = sorted(
        set(registration_counts) | set(expiration_counts) | set(rereg_counts)
    )
    return MonthlyTimeline(
        months=all_months,
        registrations=[registration_counts.get(m, 0) for m in all_months],
        expirations=[expiration_counts.get(m, 0) for m in all_months],
        reregistrations=[rereg_counts.get(m, 0) for m in all_months],
    )


@dataclass(frozen=True, slots=True)
class DelayDistribution:
    """Expiry → re-registration delays with the §4.1 mass points."""

    delays_days: list[float]
    caught_at_premium: int        # premium actually paid
    caught_on_premium_end_day: int
    caught_shortly_after_premium: int

    @property
    def count(self) -> int:
        """Number of re-registration delays observed."""
        return len(self.delays_days)

    def histogram(self, bin_days: float = 30.0) -> list[tuple[float, int]]:
        """(bin start day, count) pairs — the Figure 3 series."""
        if not self.delays_days:
            return []
        counts: Counter[int] = Counter(
            int(delay // bin_days) for delay in self.delays_days
        )
        return [
            (bin_index * bin_days, counts[bin_index])
            for bin_index in sorted(counts)
        ]


def delay_distribution(
    dataset: ENSDataset, events: list[ReRegistration] | None = None
) -> DelayDistribution:
    """Analyse re-registration delays (Figure 3 + §4.1 premium stats)."""
    if events is None:
        events = find_reregistrations(dataset)
    delays = [event.delay_days for event in events]
    at_premium = sum(1 for event in events if event.paid_premium)
    on_end_day = sum(
        1
        for event in events
        if not event.paid_premium
        and PREMIUM_END_DAYS <= event.delay_days < PREMIUM_END_DAYS + 1
    )
    shortly_after = sum(
        1
        for event in events
        if PREMIUM_END_DAYS
        <= event.delay_days
        < PREMIUM_END_DAYS + _SHORTLY_AFTER_WINDOW_DAYS
    )
    return DelayDistribution(
        delays_days=delays,
        caught_at_premium=at_premium,
        caught_on_premium_end_day=on_end_day,
        caught_shortly_after_premium=shortly_after,
    )
