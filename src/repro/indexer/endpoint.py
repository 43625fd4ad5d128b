"""The hosted subgraph endpoint: GraphQL over the entity store.

Models the operational envelope of The Graph's hosted ENS subgraph —
the properties that shaped the paper's crawl:

* ``first`` capped at 1000 rows and ``skip`` at 5000, so naive
  offset-pagination cannot enumerate millions of entities; crawlers
  must cursor on ``id_gt`` (exactly what §3.1's methodology does).
* a small deterministic *indexing gap*: a fraction of entities is
  missing from query results (the real crawl lost 34K of 3.1M names,
  a 99.9% recovery rate, to "API limitations"). The gap is keyed on
  the entity id hash so it is stable across queries.

Responses follow GraphQL's envelope: ``{"data": ...}`` on success,
``{"errors": [{"message": ...}]}`` on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Callable

from .query import GraphQLError, execute_query, parse_query
from .subgraph import ENSSubgraph

__all__ = ["SubgraphEndpoint", "MAX_FIRST"]

MAX_FIRST = 1000
MAX_SKIP = 5000


def _gap_hash(entity_id: str) -> int:
    return int.from_bytes(blake2b(entity_id.encode(), digest_size=4).digest(), "big")


@dataclass
class SubgraphEndpoint:
    """Query facade over an :class:`ENSSubgraph`."""

    subgraph: ENSSubgraph
    indexing_gap_rate: float = 0.001
    queries_served: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.indexing_gap_rate < 1.0:
            raise ValueError("indexing_gap_rate must be in [0, 1)")

    # -- gap model -----------------------------------------------------------

    def _visible(self, entity_id: str) -> bool:
        if self.indexing_gap_rate == 0.0:
            return True
        threshold = int(self.indexing_gap_rate * 2**32)
        return _gap_hash(entity_id) >= threshold

    def missing_domain_ids(self) -> list[str]:
        """Ground-truth list of domains the endpoint hides (evaluation only).

        A real crawler cannot call this — it exists so benchmarks can
        report the crawl's recovery rate against the true registry.
        """
        return [
            domain_id
            for domain_id in self.subgraph.domains
            if not self._visible(domain_id)
        ]

    # -- collections ------------------------------------------------------------
    #
    # Materialized rows are cached and invalidated whenever the indexer
    # folds new logs — cursor crawls re-query the same collection dozens
    # of times against an unchanged store.

    _domain_cache: list[dict[str, Any]] | None = None
    _registration_cache: list[dict[str, Any]] | None = None
    _event_cache: list[dict[str, Any]] | None = None
    _cache_log_count: int = -1

    def _check_cache(self) -> None:
        if self._cache_log_count != self.subgraph.indexed_log_count:
            self._domain_cache = None
            self._registration_cache = None
            self._event_cache = None
            self._cache_log_count = self.subgraph.indexed_log_count

    def _domains(self) -> list[dict[str, Any]]:
        self._check_cache()
        if self._domain_cache is None:
            rows = []
            for domain_id, domain in self.subgraph.domains.items():
                if not self._visible(domain_id):
                    continue
                row = domain.as_dict()
                # join: nested registration objects, not bare ids
                row["registrations"] = [
                    self.subgraph.registrations[reg_id].as_dict()
                    for reg_id in domain.registration_ids
                ]
                rows.append(row)
            self._domain_cache = rows
        return self._domain_cache

    def _registrations(self) -> list[dict[str, Any]]:
        self._check_cache()
        if self._registration_cache is None:
            self._registration_cache = [
                registration.as_dict()
                for registration in self.subgraph.registrations.values()
                if self._visible(registration.domain_id)
            ]
        return self._registration_cache

    def _registration_events(self) -> list[dict[str, Any]]:
        """Flat event feed (the subgraph's ``registrationEvents``)."""
        self._check_cache()
        if self._event_cache is None:
            rows = []
            for registration in self.subgraph.registrations.values():
                if not self._visible(registration.domain_id):
                    continue
                for event in registration.events:
                    row = event.as_dict()
                    row["registration"] = registration.id
                    row["domain"] = registration.domain_id
                    rows.append(row)
            self._event_cache = rows
        return self._event_cache

    def _collections(self) -> dict[str, Callable[[], list[dict[str, Any]]]]:
        return {
            "domains": self._domains,
            "registrations": self._registrations,
            "registrationEvents": self._registration_events,
        }

    # -- the public API -----------------------------------------------------------

    def query(self, text: str) -> dict[str, Any]:
        """Execute a GraphQL query; returns the standard envelope.

        Supports The Graph's ``_meta`` introspection field alongside the
        entity collections — crawlers read ``_meta.block.number`` to pin
        the block height a crawl is consistent with.
        """
        self.queries_served += 1
        try:
            fields = parse_query(text)
            meta_fields = [node for node in fields if node.name == "_meta"]
            entity_fields = [node for node in fields if node.name != "_meta"]
            data = execute_query(
                entity_fields,
                self._collections(),
                max_first=MAX_FIRST,
                max_skip=MAX_SKIP,
            )
            if meta_fields:
                data["_meta"] = self._meta()
        except GraphQLError as exc:
            return {"errors": [{"message": str(exc)}]}
        return {"data": data}

    def _meta(self) -> dict[str, Any]:
        chain = self.subgraph.chain
        return {
            "block": {"number": chain.height, "timestamp": chain.now},
            "hasIndexingErrors": False,
        }
