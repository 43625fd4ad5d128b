"""Crawler client for the ENS subgraph (§3.1 of the paper).

Enumerates every domain entity the endpoint will serve using ``id_gt``
cursor pagination — the technique that sidesteps The Graph's 5000-row
``skip`` ceiling — and converts rows into :class:`DomainRecord`s.
Domains the endpoint never returns (its indexing gap) are precisely the
paper's "34K names unrecoverable due to API limitations".

Error envelopes are retried and counted by the shared
:class:`~repro.faults.retry.RetryingCaller` (at most 3 attempts per
page), and :meth:`SubgraphClient.fetch_domains_page` is one cursor
step, so the checkpointing pipeline can persist crawl progress between
pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..datasets.schema import DomainRecord, RegistrationRecord
from ..explorer.api import VirtualClock
from ..faults.retry import CircuitBreaker, RetryPolicy, RetryingCaller
from ..indexer.endpoint import MAX_FIRST, SubgraphEndpoint
from ..obs.metrics import MetricsRegistry

__all__ = ["SubgraphClient"]

CLIENT_LABEL = "subgraph"

#: At most 3 attempts per page query.
RETRY_POLICY = RetryPolicy(max_attempts=3)

_DOMAIN_QUERY_TEMPLATE = """
{{
  domains(first: {first}, orderBy: id, orderDirection: asc,
          where: {{id_gt: "{cursor}"}}) {{
    id name labelName labelhash createdAt owner resolvedAddress
    subdomainCount
    registrations {{
      id registrant registrationDate expiryDate
      costWei baseCostWei premiumWei
    }}
  }}
}}
"""


class _QueryRejected(RuntimeError):
    """Internal: one query attempt came back as an error envelope."""


@dataclass
class SubgraphClient:
    """Cursor-paginating GraphQL crawler on the shared retry policy."""

    endpoint: SubgraphEndpoint
    page_size: int = MAX_FIRST
    registry: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.page_size <= MAX_FIRST:
            raise ValueError(f"page_size must be within 1..{MAX_FIRST}")
        if self.registry is None:
            self.registry = MetricsRegistry()
        clock = VirtualClock()
        self._caller = RetryingCaller(
            policy=RETRY_POLICY,
            clock=clock,
            client=CLIENT_LABEL,
            registry=self.registry,
            breaker=CircuitBreaker(
                clock=clock, registry=self.registry, client=CLIENT_LABEL
            ),
        )
        self._pages = self.registry.counter(
            "crawler_pages_total", "Result pages fetched", labels=("client",)
        ).labels(client=CLIENT_LABEL)
        self._rows = self.registry.counter(
            "crawler_rows_total", "Rows fetched", labels=("client",)
        ).labels(client=CLIENT_LABEL)

    @property
    def pages_fetched(self) -> int:
        """GraphQL pages fetched so far (from the page counter)."""
        return int(self._pages.value)

    def _query_once(self, query: str) -> dict[str, Any]:
        """One attempt; error envelopes become retryable exceptions."""
        response = self.endpoint.query(query)
        if "errors" in response:
            raise _QueryRejected(response["errors"][0]["message"])
        return response

    @staticmethod
    def _to_record(row: dict[str, Any]) -> DomainRecord:
        return DomainRecord(
            domain_id=row["id"],
            name=row["name"],
            label_name=row["labelName"],
            labelhash=row["labelhash"],
            created_at=row["createdAt"],
            owner=row["owner"],
            resolved_address=row["resolvedAddress"],
            subdomain_count=row["subdomainCount"],
            registrations=[
                RegistrationRecord(
                    registration_id=reg["id"],
                    registrant=reg["registrant"],
                    registration_date=reg["registrationDate"],
                    expiry_date=reg["expiryDate"],
                    cost_wei=reg["costWei"],
                    base_cost_wei=reg["baseCostWei"],
                    premium_wei=reg["premiumWei"],
                )
                for reg in row["registrations"]
            ],
        )

    def fetch_domains_page(self, cursor: str) -> list[DomainRecord]:
        """One ``id_gt`` cursor step: the page of domains after ``cursor``.

        Returns an empty list when the enumeration is complete. The next
        cursor is the last returned record's ``domain_id`` — durable
        crawl state the checkpointing pipeline persists between pages.
        Raises :class:`~repro.faults.retry.CrawlError` when the query
        keeps failing.
        """
        response = self._caller.call(
            self._query_once,
            key=f"domains:{cursor}",
            retryable=(_QueryRejected,),
            query=_DOMAIN_QUERY_TEMPLATE.format(first=self.page_size, cursor=cursor),
        )
        self._pages.inc()
        rows = response["data"]["domains"]
        self._rows.inc(len(rows))
        return [self._to_record(row) for row in rows]
