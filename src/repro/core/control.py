"""Control-group sampling (§4.3).

The paper compares its 241K re-registered domains against an equally
sized random sample of domains that expired but were *never*
re-registered by a different owner. This module reproduces that
sampling, deterministically.
"""

from __future__ import annotations

import random

from ..datasets.dataset import ENSDataset
from ..datasets.schema import DomainRecord
from .dropcatch import ReRegistration, expired_domain_ids, reregistered_domain_ids

__all__ = ["sample_control_group", "study_groups"]


def _caught_ids(
    dataset: ENSDataset, events: list[ReRegistration] | None
) -> set[str]:
    """Re-registered domain ids, from ``events`` when already computed."""
    if events is not None:
        return {event.domain_id for event in events}
    return reregistered_domain_ids(dataset)


def control_candidates(
    dataset: ENSDataset, events: list[ReRegistration] | None = None
) -> list[DomainRecord]:
    """Expired-but-never-dropcatched domains, in stable id order."""
    caught = _caught_ids(dataset, events)
    expired = expired_domain_ids(dataset)
    return [
        dataset.domains[domain_id]
        for domain_id in sorted(expired - caught)
    ]


def sample_control_group(
    dataset: ENSDataset,
    size: int,
    seed: int = 0,
    events: list[ReRegistration] | None = None,
) -> list[DomainRecord]:
    """Random control sample of ``size`` (capped at the candidate pool)."""
    candidates = control_candidates(dataset, events=events)
    if size >= len(candidates):
        return candidates
    rng = random.Random(seed)
    return rng.sample(candidates, size)


def study_groups(
    dataset: ENSDataset,
    seed: int = 0,
    events: list[ReRegistration] | None = None,
) -> tuple[list[DomainRecord], list[DomainRecord]]:
    """(re-registered group, equal-size control group) — the Table-1 setup."""
    caught_ids = _caught_ids(dataset, events)
    reregistered = [dataset.domains[domain_id] for domain_id in sorted(caught_ids)]
    control = sample_control_group(
        dataset, size=len(reregistered), seed=seed, events=events
    )
    return reregistered, control
