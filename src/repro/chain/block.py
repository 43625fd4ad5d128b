"""Blocks: ordered receipt batches with a timestamp."""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b

from .transaction import Receipt
from .types import Hash32

__all__ = ["Block", "GENESIS_PARENT"]

GENESIS_PARENT = Hash32(b"\x00" * 32)


@dataclass(slots=True)
class Block:
    """A mined block: number, timestamp, receipts.

    A block's id chains over its parent's, so the block does not hold
    it: :meth:`~repro.chain.chain.Blockchain.block_hash` computes ids
    on first read.
    """

    number: int
    timestamp: int
    receipts: list[Receipt] = field(default_factory=list)

    def hash(self, parent_hash: Hash32) -> Hash32:
        """Block id derived from header fields, the parent's id
        (``GENESIS_PARENT`` for block 0) and transaction ids.

        Like transaction ids, block ids are identifiers only, so they use
        blake2b (see Transaction.hash for the rationale).
        """
        body = b"|".join(
            [
                self.number.to_bytes(8, "big"),
                self.timestamp.to_bytes(8, "big"),
                parent_hash.raw,
                *[receipt.tx_hash.raw for receipt in self.receipts],
            ]
        )
        return Hash32(blake2b(body, digest_size=32).digest())

    @property
    def transaction_count(self) -> int:
        """Number of transactions sealed in this block."""
        return len(self.receipts)
