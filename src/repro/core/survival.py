"""Survival analysis of domain lifetimes (extension).

How long does a registration survive before its owner lets it lapse?
The Kaplan-Meier estimator handles the right-censoring inherent in a
crawl snapshot (names still alive at crawl time contribute partial
information), giving the lifetime curves behind Figure 2's expiration
trend — and per-cohort renewal behaviour the paper only eyeballs.

Implemented from scratch (no lifelines dependency): event times are the
per-domain spans from first registration to terminal lapse, censored at
the crawl date for domains still held by their original registrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

from ..datasets.dataset import ENSDataset
from ..datasets.schema import DomainRecord

__all__ = [
    "kaplan_meier",
    "domain_lifetimes",
    "survival_by_cohort",
]

_DAY = 86_400


@dataclass(frozen=True, slots=True)
class LifetimeObservation:
    """One domain's (possibly censored) first-ownership lifetime."""

    domain_id: str
    duration_days: float
    lapsed: bool                 # False = censored at crawl time
    cohort_year: int             # year of first registration


def domain_lifetimes(dataset: ENSDataset) -> list[LifetimeObservation]:
    """First-owner lifetimes: first registration → lapse of that
    ownership (renewals extend it), censored at the crawl date."""
    cutoff = dataset.crawl_timestamp
    observations: list[LifetimeObservation] = []
    for domain in dataset.iter_domains():
        first = domain.registrations[0]
        start = first.registration_date
        # the first owner's tenure spans consecutive same-registrant cycles
        tenure_end = first.expiry_date
        for registration in domain.registrations[1:]:
            if registration.registrant != first.registrant:
                break
            tenure_end = registration.expiry_date
        lapsed = tenure_end < cutoff
        end = tenure_end if lapsed else cutoff
        if end <= start:
            continue
        observations.append(
            LifetimeObservation(
                domain_id=domain.domain_id,
                duration_days=(end - start) / _DAY,
                lapsed=lapsed,
                cohort_year=datetime.fromtimestamp(
                    start, tz=timezone.utc
                ).year,
            )
        )
    return observations


@dataclass(frozen=True, slots=True)
class KaplanMeierCurve:
    """S(t): probability a registration survives past t days."""

    times_days: tuple[float, ...]        # event times, ascending
    survival: tuple[float, ...]          # S(t) immediately after each time
    n_observations: int
    n_events: int

    def survival_at(self, t_days: float) -> float:
        """Step-function lookup of S(t)."""
        result = 1.0
        for time, value in zip(self.times_days, self.survival):
            if time > t_days:
                break
            result = value
        return result

    def median_lifetime_days(self) -> float | None:
        """First time S(t) drops to 0.5 or below (None if it never does)."""
        for time, value in zip(self.times_days, self.survival):
            if value <= 0.5:
                return time
        return None


def kaplan_meier(observations: list[LifetimeObservation]) -> KaplanMeierCurve:
    """Product-limit estimator over (duration, event) pairs."""
    if not observations:
        return KaplanMeierCurve((), (), 0, 0)
    ordered = sorted(observations, key=lambda o: o.duration_days)
    n_at_risk = len(ordered)
    survival = 1.0
    times: list[float] = []
    values: list[float] = []
    index = 0
    while index < len(ordered):
        time = ordered[index].duration_days
        deaths = 0
        at_this_time = 0
        while (
            index < len(ordered) and ordered[index].duration_days == time
        ):
            at_this_time += 1
            if ordered[index].lapsed:
                deaths += 1
            index += 1
        if deaths:
            survival *= 1.0 - deaths / n_at_risk
            times.append(time)
            values.append(survival)
        n_at_risk -= at_this_time
    return KaplanMeierCurve(
        times_days=tuple(times),
        survival=tuple(values),
        n_observations=len(ordered),
        n_events=sum(1 for o in ordered if o.lapsed),
    )


def survival_by_cohort(dataset: ENSDataset) -> dict[int, KaplanMeierCurve]:
    """One lifetime curve per registration-year cohort."""
    observations = domain_lifetimes(dataset)
    cohorts: dict[int, list[LifetimeObservation]] = {}
    for observation in observations:
        cohorts.setdefault(observation.cohort_year, []).append(observation)
    return {
        year: kaplan_meier(group) for year, group in sorted(cohorts.items())
    }
