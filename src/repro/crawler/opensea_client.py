"""Crawler client for the marketplace events API (§4.2 of the paper).

Cursor-paginates each token's event feed. Previously this client had no
failure handling at all; it now runs every page fetch through the
shared :class:`repro.faults.retry` policy (deterministic backoff on a
virtual clock, retry budget, circuit breaker), so marketplace flakiness
degrades a crawl's latency — never its dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..datasets.schema import MarketEventRecord
from ..explorer.api import RateLimitError, VirtualClock
from ..faults.errors import TransientInjectedError
from ..faults.retry import (
    CircuitBreaker,
    RetryError,
    RetryPolicy,
    RetryingCaller,
)
from ..marketplace.api import OpenSeaAPI
from ..obs.metrics import MetricsRegistry

__all__ = ["OpenSeaClient"]

CLIENT_LABEL = "opensea"

#: Failures the shared policy retries for this client.
RETRYABLE_ERRORS = (RateLimitError, TransientInjectedError)


class OpenSeaCrawlError(RuntimeError):
    """The events API kept failing past the retry budget."""


@dataclass
class OpenSeaClient:
    """Cursor-paginating events crawler on the shared retry policy."""

    api: OpenSeaAPI
    max_retries: int = 8
    registry: MetricsRegistry | None = None
    clock: VirtualClock = field(default_factory=VirtualClock)
    retry_policy: RetryPolicy | None = None
    breaker: CircuitBreaker | None = None

    _caller: RetryingCaller = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = MetricsRegistry()
        if self.retry_policy is None:
            self.retry_policy = RetryPolicy(max_attempts=self.max_retries + 1)
        if self.breaker is None:
            self.breaker = CircuitBreaker(
                clock=self.clock, registry=self.registry, client=CLIENT_LABEL
            )
        self._caller = RetryingCaller(
            policy=self.retry_policy,
            clock=self.clock,
            client=CLIENT_LABEL,
            registry=self.registry,
            breaker=self.breaker,
        )
        self._requests = self.registry.counter(
            "crawler_requests_total", "API calls issued", labels=("client",)
        ).labels(client=CLIENT_LABEL)
        self._failures = self.registry.counter(
            "crawler_failures_total",
            "Calls abandoned after exhausting the retry budget",
            labels=("client",),
        ).labels(client=CLIENT_LABEL)
        self._rows = self.registry.counter(
            "crawler_rows_total", "Rows fetched", labels=("client",)
        ).labels(client=CLIENT_LABEL)

    @property
    def requests_made(self) -> int:
        """API requests issued so far (from the request counter)."""
        return int(self._requests.value)

    @property
    def failures(self) -> int:
        """Calls that exhausted the retry budget and raised."""
        return int(self._failures.value)

    def _fetch_page(self, token_id: str, cursor: int) -> dict[str, Any]:
        """One events page through the shared retry policy."""
        try:
            return self._caller.call(
                self.api.asset_events,
                key=f"events:{token_id}:{cursor}",
                retryable=RETRYABLE_ERRORS,
                breaker_exempt=(RateLimitError,),
                on_attempt=self._requests.inc,
                token_id=token_id,
                cursor=cursor,
            )
        except RetryError as exc:
            self._failures.inc()
            raise OpenSeaCrawlError(
                f"gave up after {exc.attempts} attempts: {exc}"
            ) from exc

    def fetch_token_events(self, token_id: str) -> list[MarketEventRecord]:
        """All events for one ENS token (labelhash), oldest first."""
        events: list[MarketEventRecord] = []
        cursor = 0
        while True:
            page = self._fetch_page(token_id, cursor)
            self._rows.inc(len(page["asset_events"]))
            events.extend(
                MarketEventRecord.from_api_row(row) for row in page["asset_events"]
            )
            if page["next"] is None:
                break
            cursor = page["next"]
        events.reverse()  # the API serves newest-first
        return events

    def fetch_events_for_tokens(
        self, token_ids: Iterable[str]
    ) -> list[MarketEventRecord]:
        """Event histories for a token set (the re-registered domains)."""
        collected: list[MarketEventRecord] = []
        for token_id in token_ids:
            collected.extend(self.fetch_token_events(token_id))
        return collected
