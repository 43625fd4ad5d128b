"""Transparent fault-injecting wrappers for the three crawl endpoints.

Each wrapper interposes on one real endpoint object — the subgraph's
:class:`~repro.indexer.endpoint.SubgraphEndpoint`, the explorer's
:class:`~repro.explorer.api.EtherscanAPI`, the marketplace's
:class:`~repro.marketplace.api.OpenSeaAPI` — and consults a
:class:`~repro.faults.plan.FaultPlan` before every delegated call. The
clients cannot tell the difference: faults arrive in each protocol's
native failure shape (GraphQL error envelopes for the subgraph,
exceptions for the REST-ish APIs), and rate-limit storms reuse the
explorer's real :class:`~repro.explorer.api.RateLimitError`.

Every injected fault increments ``fault_injected_total{endpoint,kind}``
and every delegated call ``endpoint_calls_total{endpoint}``, so a chaos
run's metrics export shows exactly what was thrown at the crawl.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ..explorer.api import EtherscanAPI, RateLimitError, VirtualClock
from ..indexer.endpoint import SubgraphEndpoint
from ..marketplace.api import OpenSeaAPI
from ..obs.metrics import MetricsRegistry
from .errors import (
    CorruptPayload,
    CrawlKilled,
    EndpointOutage,
    EndpointTimeout,
    TransientInjectedError,
    TruncatedPayload,
)
from .plan import (
    KIND_CORRUPT,
    KIND_ERROR,
    KIND_KILL,
    KIND_OUTAGE,
    KIND_RATE_LIMIT,
    KIND_TIMEOUT,
    KIND_TRUNCATED,
    Fault,
    FaultPlan,
)

__all__ = [
    "FaultyEtherscanAPI",
    "FaultyOpenSeaAPI",
    "FaultySubgraphEndpoint",
]

ENDPOINT_SUBGRAPH = "subgraph"
ENDPOINT_EXPLORER = "explorer"
ENDPOINT_OPENSEA = "opensea"

_EXCEPTION_KINDS: dict[str, type[TransientInjectedError]] = {
    KIND_ERROR: TransientInjectedError,
    KIND_OUTAGE: EndpointOutage,
    KIND_TIMEOUT: EndpointTimeout,
    KIND_TRUNCATED: TruncatedPayload,
    KIND_CORRUPT: CorruptPayload,
}

_SUBGRAPH_MESSAGES: dict[str, str] = {
    KIND_ERROR: "injected: service unavailable",
    KIND_OUTAGE: "injected: burst outage",
    KIND_RATE_LIMIT: "injected: too many requests",
    KIND_TIMEOUT: "injected: gateway timeout",
    KIND_CORRUPT: "injected: corrupt page",
}


@dataclass
class _Injector:
    """Per-endpoint call counter + plan consultation + metrics."""

    plan: FaultPlan
    endpoint: str
    registry: MetricsRegistry
    calls_seen: int = 0

    def __post_init__(self) -> None:
        self._injected = self.registry.counter(
            "fault_injected_total",
            "Faults injected by the active fault plan",
            labels=("endpoint", "kind"),
        )
        self._calls = self.registry.counter(
            "endpoint_calls_total",
            "Calls reaching a fault-wrapped endpoint",
            labels=("endpoint",),
        ).labels(endpoint=self.endpoint)

    def next_fault(self) -> Fault | None:
        """Advance the call counter; return (and count) any planned fault."""
        self.calls_seen += 1
        self._calls.inc()
        fault = self.plan.decide(self.endpoint, self.calls_seen)
        if fault is None:
            return None
        self._injected.labels(endpoint=self.endpoint, kind=fault.kind).inc()
        if fault.kind == KIND_KILL:
            raise CrawlKilled(
                f"{self.endpoint}: {fault.detail} (simulated process death)"
            )
        return fault

    def raise_fault(self, fault: Fault) -> None:
        """Raise the exception form of ``fault`` (REST-style endpoints)."""
        if fault.kind == KIND_RATE_LIMIT:
            raise RateLimitError("Max rate limit reached (injected)")
        exc_type = _EXCEPTION_KINDS.get(fault.kind, TransientInjectedError)
        raise exc_type(f"{self.endpoint}: injected {fault.kind} ({fault.detail})")


@dataclass
class FaultySubgraphEndpoint:
    """Wraps a :class:`SubgraphEndpoint`, faulting in GraphQL envelopes."""

    inner: SubgraphEndpoint
    plan: FaultPlan
    registry: MetricsRegistry | None = None

    _injector: _Injector = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = MetricsRegistry()
        self._injector = _Injector(self.plan, ENDPOINT_SUBGRAPH, self.registry)

    def query(self, text: str) -> dict[str, Any]:
        """Delegate one GraphQL query, possibly injecting a failure.

        Error-shaped faults come back as the protocol's error envelope;
        a ``truncated`` fault delegates and then drops the tail of every
        row list (keeping at least one row, so ``id_gt`` cursoring stays
        sound and the crawl self-heals by re-fetching the dropped rows).
        """
        fault = self._injector.next_fault()
        if fault is None:
            return self.inner.query(text)
        if fault.kind == KIND_TRUNCATED:
            response = self.inner.query(text)
            return self._truncate(response)
        message = _SUBGRAPH_MESSAGES.get(
            fault.kind, _SUBGRAPH_MESSAGES[KIND_ERROR]
        )
        return {"errors": [{"message": message}]}

    @staticmethod
    def _truncate(response: dict[str, Any]) -> dict[str, Any]:
        """Halve every row list in a success envelope (min 1 row kept)."""
        data = response.get("data")
        if not isinstance(data, dict):
            return response
        truncated: dict[str, Any] = {}
        for collection, rows in data.items():
            if isinstance(rows, list) and len(rows) > 1:
                truncated[collection] = rows[: math.ceil(len(rows) / 2)]
            else:
                truncated[collection] = rows
        return {"data": truncated}

    # -- pass-throughs the pipeline relies on ------------------------------

    def missing_domain_ids(self) -> list[str]:
        """Ground-truth gap list (evaluation only; never faulted)."""
        return self.inner.missing_domain_ids()

    @property
    def subgraph(self) -> Any:
        """The wrapped endpoint's entity store."""
        return self.inner.subgraph

    @property
    def calls_seen(self) -> int:
        """Queries that reached the wrapper (including faulted ones)."""
        return self._injector.calls_seen


@dataclass
class FaultyEtherscanAPI:
    """Wraps an :class:`EtherscanAPI`, faulting via exceptions."""

    inner: EtherscanAPI
    plan: FaultPlan
    registry: MetricsRegistry | None = None

    _injector: _Injector = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = MetricsRegistry()
        self._injector = _Injector(self.plan, ENDPOINT_EXPLORER, self.registry)

    @property
    def clock(self) -> VirtualClock:
        """The wrapped API's virtual clock (shared with the client)."""
        return self.inner.clock

    @property
    def calls_seen(self) -> int:
        """Calls that reached the wrapper (including faulted ones)."""
        return self._injector.calls_seen

    def _guard(self) -> None:
        fault = self._injector.next_fault()
        if fault is not None:
            self._injector.raise_fault(fault)

    def txlist(self, **kwargs: Any) -> list[dict[str, object]]:
        """Fault-guarded ``account.txlist`` (see the wrapped API)."""
        self._guard()
        return self.inner.txlist(**kwargs)

    def txlistinternal(self, **kwargs: Any) -> list[dict[str, object]]:
        """Fault-guarded ``account.txlistinternal``."""
        self._guard()
        return self.inner.txlistinternal(**kwargs)

    def labels_in_category(self, category: str) -> list[str]:
        """Fault-guarded label-category listing."""
        self._guard()
        return self.inner.labels_in_category(category)

    def __getattr__(self, name: str) -> Any:
        """Delegate everything else (database, labels, counters...)."""
        return getattr(self.inner, name)


@dataclass
class FaultyOpenSeaAPI:
    """Wraps an :class:`OpenSeaAPI`, faulting via exceptions."""

    inner: OpenSeaAPI
    plan: FaultPlan
    registry: MetricsRegistry | None = None

    _injector: _Injector = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = MetricsRegistry()
        self._injector = _Injector(self.plan, ENDPOINT_OPENSEA, self.registry)

    @property
    def calls_seen(self) -> int:
        """Calls that reached the wrapper (including faulted ones)."""
        return self._injector.calls_seen

    def asset_events(self, **kwargs: Any) -> dict[str, object]:
        """Fault-guarded events feed (see the wrapped API)."""
        fault = self._injector.next_fault()
        if fault is not None:
            self._injector.raise_fault(fault)
        return self.inner.asset_events(**kwargs)

    def __getattr__(self, name: str) -> Any:
        """Delegate everything else to the wrapped API."""
        return getattr(self.inner, name)
