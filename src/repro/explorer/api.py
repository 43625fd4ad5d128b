"""Etherscan-style HTTP API facade: txlist pagination + rate limiting.

Mirrors the operational constraints the paper's §3.2 crawl worked
against:

* ``account/txlist`` returns at most 10,000 rows per (page, offset)
  window — deep histories need block-range cursoring;
* free-tier rate limiting (5 calls/second) — the crawler must back off.

Time is a :class:`VirtualClock` so tests and benchmarks exercise the
throttle/backoff logic deterministically without real sleeps.

This module is the one place the Etherscan row format is written:
:func:`_tx_row` formats a chain receipt for ``txlist``,
:func:`_internal_row` an internal transfer for ``txlistinternal``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.block import GENESIS_PARENT
from ..chain.errors import UnknownAccount
from ..chain.transaction import InternalTransfer, Receipt
from ..chain.types import Address
from .database import ExplorerDatabase
from .labels import LabelRegistry

__all__ = [
    "VirtualClock",
    "RateLimitError",
    "EtherscanAPI",
    "MAX_TXLIST_WINDOW",
]

# Etherscan caps page * offset at 10,000 rows per txlist query.
MAX_TXLIST_WINDOW = 10_000
DEFAULT_RATE_LIMIT_PER_SECOND = 5


class ApiError(Exception):
    """Generic API failure (bad parameters, unknown module...)."""


class RateLimitError(ApiError):
    """Raised in place of Etherscan's 'Max rate limit reached' reply."""


def _tx_row(receipt: Receipt) -> dict[str, object]:
    """Etherscan-style stringly-typed row for one transaction."""
    tx = receipt.transaction
    return {
        "hash": receipt.tx_hash.hex,
        "blockNumber": str(receipt.block_number),
        "timeStamp": str(receipt.timestamp),
        "from": tx.from_address.hex,
        "to": tx.to_address.hex,
        "value": str(tx.value),
        "isError": "0" if receipt.success else "1",
        "functionName": tx.payload.method if tx.payload else "",
    }


def _internal_row(transfer: InternalTransfer) -> dict[str, object]:
    """Etherscan-style ``txlistinternal`` row for one internal transfer."""
    return {
        "hash": transfer.tx_hash.hex,
        "blockNumber": str(transfer.block_number),
        "timeStamp": str(transfer.timestamp),
        "from": transfer.source.hex,
        "to": transfer.recipient.hex,
        "value": str(transfer.value),
        "isError": "0",
        "type": "call",
    }


def _address(address: Address | str) -> Address:
    """The queried address; malformed hex is a bad request."""
    if isinstance(address, Address):
        return address
    try:
        return Address.from_hex(address)
    except ValueError as exc:
        raise ApiError(f"invalid address {address!r}") from exc


@dataclass
class VirtualClock:
    """A manually-advanced wall clock shared by API and client."""

    _now: float = 0.0
    slept_total: float = 0.0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def sleep(self, seconds: float) -> None:
        """Advance simulated time by ``seconds`` (no real waiting)."""
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds
        self.slept_total += seconds


@dataclass
class EtherscanAPI:
    """The public explorer API over one database + label registry."""

    database: ExplorerDatabase
    labels: LabelRegistry
    clock: VirtualClock = field(default_factory=VirtualClock)
    rate_limit_per_second: int = DEFAULT_RATE_LIMIT_PER_SECOND
    calls_served: int = 0
    calls_rejected: int = 0
    _window_start: float = field(default=0.0, repr=False)
    _window_calls: int = field(default=0, repr=False)

    # -- throttle ----------------------------------------------------------

    def _throttle(self) -> None:
        now = self.clock.now()
        if now - self._window_start >= 1.0:
            self._window_start = now
            self._window_calls = 0
        if self._window_calls >= self.rate_limit_per_second:
            self.calls_rejected += 1
            raise RateLimitError("Max rate limit reached")
        self._window_calls += 1
        self.calls_served += 1

    # -- account module -----------------------------------------------------

    def txlist(
        self,
        address: Address | str,
        startblock: int = 0,
        endblock: int = 2**62,
        page: int = 1,
        offset: int = 1000,
        sort: str = "asc",
    ) -> list[dict[str, object]]:
        """Transactions touching ``address`` (Etherscan account.txlist).

        ``page`` is 1-based; ``offset`` is the page size. Requests whose
        window reaches past row 10,000 are rejected like the real API —
        callers paginate deep histories by narrowing the block range.
        """
        self._throttle()
        self.database.sync()
        if page < 1 or offset < 1:
            raise ApiError("page and offset must be positive")
        if page * offset > MAX_TXLIST_WINDOW:
            raise ApiError(
                f"result window is too large, page * offset must be"
                f" <= {MAX_TXLIST_WINDOW}"
            )
        if sort not in ("asc", "desc"):
            raise ApiError(f"unknown sort order {sort!r}")
        receipts = [
            receipt
            for receipt in self.database.transactions_of(_address(address))
            if startblock <= receipt.block_number <= endblock
        ]
        receipts.sort(key=lambda r: r.block_number, reverse=(sort == "desc"))
        window = receipts[(page - 1) * offset : page * offset]
        return [_tx_row(receipt) for receipt in window]

    def txlistinternal(
        self,
        address: Address | str,
        startblock: int = 0,
        endblock: int = 2**62,
        page: int = 1,
        offset: int = 1000,
    ) -> list[dict[str, object]]:
        """Internal transactions touching ``address`` (account.txlistinternal).

        Registrar refunds and payouts live here, NOT in txlist — which is
        why income analyses over txlist data are clean of contract noise.
        """
        self._throttle()
        self.database.sync()
        if page < 1 or offset < 1:
            raise ApiError("page and offset must be positive")
        if page * offset > MAX_TXLIST_WINDOW:
            raise ApiError(
                f"result window is too large, page * offset must be"
                f" <= {MAX_TXLIST_WINDOW}"
            )
        entries = [
            internal
            for internal in self.database.internal_transfers_of(_address(address))
            if startblock <= internal.block_number <= endblock
        ]
        entries.sort(key=lambda e: (e.block_number, e.index))
        window = entries[(page - 1) * offset : page * offset]
        return [_internal_row(internal) for internal in window]

    def get_block(self, number: int) -> dict[str, object] | None:
        """Block header lookup (proxy.eth_getBlockByNumber)."""
        self._throttle()
        self.database.sync()
        chain = self.database.chain
        try:
            block = chain.get_block(number)
        except UnknownAccount:
            return None
        return {
            "number": str(block.number),
            "timestamp": str(block.timestamp),
            "hash": chain.block_hash(number).hex,
            "parentHash": (
                chain.block_hash(number - 1) if number else GENESIS_PARENT
            ).hex,
            "transactionCount": str(block.transaction_count),
        }

    # -- label module (scrape-equivalent) -----------------------------------------

    def labels_in_category(self, category: str) -> list[str]:
        """All addresses carrying a category tag (the paper's 558/25 lists)."""
        self._throttle()
        return self.labels.addresses_in_category(category)
