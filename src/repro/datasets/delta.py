"""Append-only dataset deltas and the monotonic delta cursor.

A :class:`DatasetDelta` is one batch of *appends* — new or updated
domain records (a domain update may only append registrations), new
transactions, new market events. Applying one through
:meth:`~repro.datasets.dataset.ENSDataset.apply_delta` routes the
records through the ordinary mutators (so dedup, the name index, and
the version counter behave exactly as they always have) and records an
:class:`AppliedDelta` entry in the dataset's bounded append log.

The log gives mutation a *provenance chain*: every entry carries the
version the dataset had before and after the apply, and
:meth:`~repro.datasets.dataset.ENSDataset.deltas_since` only returns a
chain when those versions link, without gaps, from the caller's last
observed state to the live one. Any out-of-band mutation — a direct
``add_transactions`` call, a wholesale field replacement — bumps the
version without logging and therefore *breaks the chain*, so delta-aware
consumers (:class:`~repro.core.context.AnalysisContext`,
:class:`~repro.core.increport.IncrementalReportBuilder`, the serve
response cache) fall back to a full rebuild instead of trusting a
partial history. Correctness never depends on callers being disciplined
about the delta API; only speed does.

Deltas serialize to single JSON objects (camelCase, mirroring
:mod:`repro.datasets.schema`) — the on-disk ``deltas.jsonl`` append log
written by :func:`repro.crawler.storage.append_delta` is one such
object per line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .schema import DomainRecord, MarketEventRecord, TxRecord

__all__ = ["AppliedDelta", "DatasetDelta"]


@dataclass(frozen=True, slots=True)
class DatasetDelta:
    """One append batch: domain upserts, new transactions, new events.

    A domain record in ``domains`` either introduces a new domain or
    replaces an existing record whose registration history it *extends*
    (registrations are append-only; earlier cycles never change).
    Transactions are deduplicated by hash on apply, exactly like
    ``add_transactions``.
    """

    domains: tuple[DomainRecord, ...] = ()
    transactions: tuple[TxRecord, ...] = ()
    market_events: tuple[MarketEventRecord, ...] = ()
    label: str = ""

    @property
    def record_count(self) -> int:
        """Total records carried by this delta."""
        return len(self.domains) + len(self.transactions) + len(self.market_events)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready encoding (one ``deltas.jsonl`` line)."""
        payload: dict[str, Any] = {}
        if self.domains:
            payload["domains"] = [domain.as_dict() for domain in self.domains]
        if self.transactions:
            payload["transactions"] = [tx.as_dict() for tx in self.transactions]
        if self.market_events:
            payload["marketEvents"] = [
                event.as_dict() for event in self.market_events
            ]
        if self.label:
            payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DatasetDelta":
        """Parse one serialized delta (inverse of :meth:`as_dict`)."""
        return cls(
            domains=tuple(
                DomainRecord.from_dict(row) for row in data.get("domains", ())
            ),
            transactions=tuple(
                TxRecord.from_dict(row) for row in data.get("transactions", ())
            ),
            market_events=tuple(
                MarketEventRecord.from_dict(row)
                for row in data.get("marketEvents", ())
            ),
            label=data.get("label", ""),
        )


@dataclass(frozen=True, slots=True)
class AppliedDelta:
    """One committed append-log entry: the *effective* delta plus its chain link.

    ``delta`` holds what actually landed — transactions that were
    duplicate-by-hash are dropped, so consumers replaying the entry see
    exactly the records the dataset gained. ``version_before`` /
    ``version_after`` are the chain links :meth:`ENSDataset.deltas_since`
    validates; ``replaced_domains`` names the domain ids that already
    existed (their records were extended, not introduced).
    """

    cursor: int
    version_before: int
    version_after: int
    delta: DatasetDelta
    replaced_domains: tuple[str, ...] = field(default=())
