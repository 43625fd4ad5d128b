"""Crawler client for the marketplace events API (§4.2 of the paper).

Cursor-paginates each token's event feed. Every page fetch runs
through the shared :class:`~repro.faults.retry.RetryingCaller`
(deterministic backoff on a virtual clock, retry budget, circuit
breaker, request and failure counters), so marketplace flakiness
degrades a crawl's latency — never its dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.schema import MarketEventRecord
from ..explorer.api import RateLimitError, VirtualClock
from ..faults.errors import TransientInjectedError
from ..faults.retry import CircuitBreaker, RetryPolicy, RetryingCaller
from ..marketplace.api import OpenSeaAPI
from ..obs.metrics import MetricsRegistry

__all__ = ["OpenSeaClient"]

CLIENT_LABEL = "opensea"

#: At most 9 attempts per page, backing off from 0.25 s.
RETRY_POLICY = RetryPolicy()

#: Failures the shared policy retries for this client.
RETRYABLE_ERRORS = (RateLimitError, TransientInjectedError)


@dataclass
class OpenSeaClient:
    """Cursor-paginating events crawler on the shared retry policy."""

    api: OpenSeaAPI
    registry: MetricsRegistry | None = None

    def __post_init__(self) -> None:
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
        self._rows = self.registry.counter(
            "crawler_rows_total", "Rows fetched", labels=("client",)
        ).labels(client=CLIENT_LABEL)

    @property
    def requests_made(self) -> int:
        """API requests issued so far (from the caller's request counter)."""
        return int(self.registry.value("crawler_requests_total", client=CLIENT_LABEL))

    def fetch_token_events(self, token_id: str) -> list[MarketEventRecord]:
        """All events for one ENS token (labelhash), oldest first."""
        events: list[MarketEventRecord] = []
        cursor = 0
        while True:
            page = self._caller.call(
                self.api.asset_events,
                key=f"events:{token_id}:{cursor}",
                retryable=RETRYABLE_ERRORS,
                breaker_exempt=(RateLimitError,),
                token_id=token_id,
                cursor=cursor,
            )
            self._rows.inc(len(page["asset_events"]))
            events.extend(
                MarketEventRecord.from_api_row(row) for row in page["asset_events"]
            )
            if page["next"] is None:
                break
            cursor = page["next"]
        events.reverse()  # the API serves newest-first
        return events
