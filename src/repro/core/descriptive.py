"""Descriptive dataset statistics (the §3 overview numbers).

A single pass producing the quantities the paper's §3 narrates —
domain / subdomain / transaction counts, label-name coverage,
registration durations and renewal behaviour, name-length distribution
— rendered as the header block of ``repro analyze``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..datasets.dataset import ENSDataset

__all__ = ["describe_dataset"]


@dataclass(frozen=True)
class DatasetOverview:
    """One-pass §3-style summary."""

    domains: int
    subdomains: int
    transactions: int
    failed_transactions: int
    domains_with_known_label: int
    registration_cycles: int
    renewed_cycles: int            # cycles longer than their base duration
    mean_registration_days: float
    median_label_length: int
    label_length_histogram: dict[int, int]
    unique_registrants: int
    custodial_labels: int
    coinbase_labels: int

    @property
    def label_coverage(self) -> float:
        """Fraction of domains whose plaintext label is known."""
        return self.domains_with_known_label / self.domains if self.domains else 1.0

    def lines(self) -> list[str]:
        """Human-readable overview lines for the CLI report."""
        return [
            f"domains: {self.domains} (+{self.subdomains} subdomains)"
            f" | label coverage: {self.label_coverage:.1%}",
            f"transactions: {self.transactions}"
            f" ({self.failed_transactions} failed)",
            f"registration cycles: {self.registration_cycles}"
            f" by {self.unique_registrants} registrants"
            f" | mean length: {self.mean_registration_days:.0f} days",
            f"median label length: {self.median_label_length}",
            f"labels: {self.custodial_labels} custodial,"
            f" {self.coinbase_labels} Coinbase",
        ]


def describe_dataset(dataset: ENSDataset) -> DatasetOverview:
    """Compute the overview in one pass over the dataset."""
    subdomains = 0
    known_labels = 0
    cycles = 0
    total_days = 0.0
    lengths: Counter[int] = Counter()
    registrants: set[str] = set()
    for domain in dataset.iter_domains():
        subdomains += domain.subdomain_count
        if domain.label_name:
            known_labels += 1
            lengths[len(domain.label_name)] += 1
        for registration in domain.registrations:
            cycles += 1
            registrants.add(registration.registrant)
            total_days += (
                registration.expiry_date - registration.registration_date
            ) / 86_400
    # a cycle "renewed" if it outlived a year by a margin (renewals add
    # whole years; base registrations in the wild are mostly one year)
    renewed = 0
    for domain in dataset.iter_domains():
        for registration in domain.registrations:
            span_days = (
                registration.expiry_date - registration.registration_date
            ) / 86_400
            if span_days > 380:
                renewed += 1
    length_values = sorted(lengths.elements())
    median_length = (
        length_values[len(length_values) // 2] if length_values else 0
    )
    failed = sum(
        1
        for tx in dataset.transactions  # lint: ignore[perf-full-tx-scan] one-shot whole-log stat
        if tx.is_error
    )
    return DatasetOverview(
        domains=dataset.domain_count,
        subdomains=subdomains,
        transactions=dataset.transaction_count,
        failed_transactions=failed,
        domains_with_known_label=known_labels,
        registration_cycles=cycles,
        renewed_cycles=renewed,
        mean_registration_days=total_days / cycles if cycles else 0.0,
        median_label_length=median_length,
        label_length_histogram=dict(sorted(lengths.items())),
        unique_registrants=len(registrants),
        custodial_labels=len(dataset.custodial_addresses),
        coinbase_labels=len(dataset.coinbase_addresses),
    )
