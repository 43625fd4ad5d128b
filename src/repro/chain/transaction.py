"""Transactions, receipts, and event logs.

A transaction here carries exactly the fields that Etherscan-style
crawling exposes and the paper consumes: sender, recipient, wei value,
an opaque call payload, timestamp, block number, and a status flag.
Event logs model EVM logs as (contract, event-name, params) records —
the indexer builds subgraph entities from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, NamedTuple

from .types import Address, Hash32, Wei

__all__ = ["CallPayload", "Transaction", "Log", "Receipt"]


@dataclass(frozen=True, slots=True)
class CallPayload:
    """A contract call: target method plus keyword arguments.

    This replaces EVM calldata ABI-encoding with a structured form; the
    chain dispatches it to the Python contract object at ``tx.to``.
    """

    method: str
    args: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, method: str, **kwargs: Any) -> "CallPayload":
        """Build a payload with kwargs canonically sorted for hashing."""
        return cls(method=method, args=tuple(sorted(kwargs.items())))

    def kwargs(self) -> dict[str, Any]:
        """The call arguments as a plain dict."""
        return dict(self.args)

    def encode(self) -> bytes:
        """Stable byte form used for transaction hashing."""
        return repr((self.method, self.args)).encode("utf-8")


class Transaction(NamedTuple):
    """An Ethereum-style transaction as recorded on chain.

    A named tuple: hashing and equality run in C over the fields, and a
    transaction equals the plain tuple of its fields.
    """

    from_address: Address
    to_address: Address
    value: Wei
    nonce: int
    payload: CallPayload | None = None
    fee: Wei = 0

    def hash(self, block_number: int, index: int) -> Hash32:
        """Deterministic transaction id from contents + position.

        Ids only need uniqueness and determinism (they are never fed to
        contracts), so they use C-speed blake2b instead of pure-Python
        keccak; protocol-level hashing stays keccak-256.
        """
        body = b"|".join(
            [
                self.from_address.raw,
                self.to_address.raw,
                self.value.to_bytes(32, "big", signed=False),
                self.nonce.to_bytes(8, "big"),
                self.payload.encode() if self.payload else b"",
                block_number.to_bytes(8, "big"),
                index.to_bytes(4, "big"),
            ]
        )
        return Hash32(blake2b(body, digest_size=32).digest())


@dataclass(frozen=True, slots=True)
class Log:
    """An event emitted by a contract during transaction execution."""

    contract: Address
    event: str
    params: tuple[tuple[str, Any], ...]
    block_number: int
    timestamp: int
    tx_hash: Hash32
    log_index: int

    def param(self, name: str) -> Any:
        """Look up one event parameter by name."""
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"event {self.event!r} has no param {name!r}")

    def as_dict(self) -> dict[str, Any]:
        """The event parameters as a plain dict."""
        return dict(self.params)


@dataclass(slots=True)
class Receipt:
    """Execution outcome of one transaction.

    ``logs`` starts as the shared empty tuple; the chain swaps in a
    list on the first log, so the many receipts of plain payments
    allocate none.
    """

    tx_hash: Hash32
    transaction: Transaction
    block_number: int
    timestamp: int
    success: bool
    return_value: Any = None
    error: str | None = None
    logs: list[Log] | tuple[()] = ()

    @property
    def from_address(self) -> Address:
        """Sender of the underlying transaction."""
        return self.transaction.from_address

    @property
    def to_address(self) -> Address:
        """Recipient of the underlying transaction."""
        return self.transaction.to_address

    @property
    def value(self) -> Wei:
        """Wei transferred by the underlying transaction."""
        return self.transaction.value
