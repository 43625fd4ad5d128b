"""Crawler client for the explorer API (§3.2 of the paper).

Pulls the full transaction history of each wallet address, handling the
two operational hazards of the real Etherscan API: free-tier rate
limiting and the 10,000-row result window (block-range cursoring for
deep histories).

All waiting and all call accounting go through the shared
:class:`~repro.faults.retry.RetryingCaller` — deterministic
capped-exponential backoff with seeded jitter on the API's virtual
clock, a per-call retry *budget* (exhaustion surfaces as
``crawler_retry_budget_exhausted_total``), a circuit breaker with
half-open probing that trips on consecutive hard failures (rate limits
are exempt — throttling is flow control, not an outage), and the
request, retry and failure counters. The ``requests_made``-style
attributes read those counters back, so instrumented exports and the
:class:`~repro.crawler.pipeline.CrawlReport` can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..datasets.schema import TxRecord
from ..explorer.api import EtherscanAPI, MAX_TXLIST_WINDOW, RateLimitError
from ..faults.errors import TransientInjectedError
from ..faults.retry import CircuitBreaker, RetryPolicy, RetryingCaller
from ..obs.metrics import MetricsRegistry

__all__ = ["EtherscanClient"]

CLIENT_LABEL = "explorer"

#: At most 9 attempts per call, backing off from 0.25 s.
RETRY_POLICY = RetryPolicy()

#: Failures the shared policy retries: organic throttling + injected
#: transients (timeouts, truncated/corrupt bodies, burst outages).
RETRYABLE_ERRORS = (RateLimitError, TransientInjectedError)


@dataclass
class EtherscanClient:
    """Backoff-aware txlist crawler on the shared retry policy."""

    api: EtherscanAPI
    page_size: int = 1000
    registry: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = MetricsRegistry()
        self._caller = RetryingCaller(
            policy=RETRY_POLICY,
            clock=self.api.clock,
            client=CLIENT_LABEL,
            registry=self.registry,
            breaker=CircuitBreaker(
                clock=self.api.clock, registry=self.registry, client=CLIENT_LABEL
            ),
        )
        self._rows = self.registry.counter(
            "crawler_rows_total", "Rows fetched", labels=("client",)
        ).labels(client=CLIENT_LABEL)

    def _count(self, name: str) -> int:
        return int(self.registry.value(name, client=CLIENT_LABEL))

    @property
    def requests_made(self) -> int:
        """API requests issued so far (from the caller's request counter)."""
        return self._count("crawler_requests_total")

    @property
    def retries_performed(self) -> int:
        """Retries performed so far (from the caller's retry counter)."""
        return self._count("crawler_retries_total")

    @property
    def failures(self) -> int:
        """Calls that gave up and raised (from the caller's failure counter)."""
        return self._count("crawler_failures_total")

    def _call(self, fn: Callable[..., Any], *, key: str, **kwargs: Any) -> Any:
        """One logical call through the shared retry policy; counts its rows."""
        rows = self._caller.call(
            fn,
            key=key,
            retryable=RETRYABLE_ERRORS,
            breaker_exempt=(RateLimitError,),
            **kwargs,
        )
        self._rows.inc(len(rows))
        return rows

    def fetch_transactions(
        self, address: str, strings: dict[str, str] | None = None
    ) -> list[TxRecord]:
        """Full history of one address, oldest first.

        Pages through (page, offset) windows; when an address has more
        than 10,000 transactions, restarts pagination from the next
        block past the last row seen (Etherscan's documented recipe).
        A ``strings`` table shares the rows' ``from``/``to`` strings
        (see :meth:`TxRecord.from_api_row`); the caller owns it, so its
        lifetime is the caller's crawl.
        """
        records: list[TxRecord] = []
        seen: set[str] = set()
        start_block = 0
        while True:
            rows_in_range = 0
            page = 1
            exhausted_window = False
            while True:
                if page * self.page_size > MAX_TXLIST_WINDOW:
                    exhausted_window = True
                    break
                rows = self._call(
                    self.api.txlist,
                    key=f"txlist:{address}:{start_block}:{page}",
                    address=address,
                    startblock=start_block,
                    page=page,
                    offset=self.page_size,
                    sort="asc",
                )
                for row in rows:
                    record = TxRecord.from_api_row(row, strings)
                    if record.tx_hash not in seen:
                        seen.add(record.tx_hash)
                        records.append(record)
                rows_in_range += len(rows)
                if len(rows) < self.page_size:
                    break
                page += 1
            if not exhausted_window or rows_in_range == 0:
                return records
            # Deep history: continue from the block after the last row.
            start_block = records[-1].block_number + 1

    def fetch_label_category(self, category: str) -> list[str]:
        """Address list for a label category (custodial/Coinbase seeds)."""
        return self._call(
            self.api.labels_in_category,
            key=f"labels:{category}",
            category=category,
        )
