"""Address-indexed transaction database (the explorer's backend).

Continuously ingests blocks from a :class:`~repro.chain.Blockchain` and
keeps, per address, the chain's own :class:`~repro.chain.Receipt`
objects and internal transfers. A receipt is final once the chain seals
it into a block, and only sealed blocks are ingested, so the index
shares the receipts instead of copying them. The Etherscan-style rows
the paper crawls (§3.2) are formatted from them by :mod:`.api`.
"""

from __future__ import annotations

from ..chain.chain import Blockchain
from ..chain.transaction import InternalTransfer, Receipt
from ..chain.types import Address

__all__ = ["ExplorerDatabase"]


class ExplorerDatabase:
    """Ingests blocks and serves per-address receipt lists."""

    def __init__(self, chain: Blockchain) -> None:
        self._chain = chain
        self._by_address: dict[Address, list[Receipt]] = {}
        self._internal_by_address: dict[Address, list[InternalTransfer]] = {}
        self._total_entries = 0
        self._next_block = 0

    # -- ingestion -------------------------------------------------------------

    def sync(self) -> int:
        """Index all blocks mined since the last sync; returns new tx count."""
        by_address = self._by_address
        internal_by_address = self._internal_by_address
        indexed = 0
        while self._next_block <= self._chain.height:
            block = self._chain.get_block(self._next_block)
            for receipt in block.receipts:
                sender = receipt.transaction.from_address
                recipient = receipt.transaction.to_address
                by_address.setdefault(sender, []).append(receipt)
                if recipient != sender:
                    by_address.setdefault(recipient, []).append(receipt)
                indexed += 1
                for internal in receipt.internal_transfers:
                    internal_by_address.setdefault(internal.source, []).append(internal)
                    if internal.recipient != internal.source:
                        internal_by_address.setdefault(
                            internal.recipient, []
                        ).append(internal)
            self._next_block += 1
        self._total_entries += indexed
        return indexed

    # -- queries -----------------------------------------------------------------

    @property
    def chain(self) -> Blockchain:
        """The chain this database indexes (for point lookups)."""
        return self._chain

    @property
    def total_transactions(self) -> int:
        """Distinct transactions indexed (not per-address rows)."""
        return self._total_entries

    def transactions_of(self, address: Address) -> list[Receipt]:
        """Receipts of all transactions touching ``address``, oldest first."""
        return list(self._by_address.get(address, ()))

    def internal_transfers_of(self, address: Address) -> list[InternalTransfer]:
        """Internal (contract-initiated) transfers touching ``address``."""
        return list(self._internal_by_address.get(address, ()))
