"""Address-indexed transaction database (the explorer's backend).

Continuously ingests receipts from a :class:`~repro.chain.Blockchain`
and keeps, per address, the chain's own :class:`~repro.chain.Receipt`
objects. A receipt is final once the chain seals it into a block, and
only sealed receipts are ingested, so the index shares the receipts
instead of copying them. The Etherscan-style rows the paper crawls
(§3.2) are formatted from them by :mod:`.api`.
"""

from __future__ import annotations

from itertools import islice

from ..chain.chain import Blockchain
from ..chain.transaction import Receipt
from ..chain.types import Address

__all__ = ["ExplorerDatabase"]


class ExplorerDatabase:
    """Ingests sealed receipts and serves per-address receipt lists."""

    def __init__(self, chain: Blockchain) -> None:
        self._chain = chain
        self._by_address: dict[Address, list[Receipt]] = {}
        self._total_entries = 0

    # -- ingestion -------------------------------------------------------------

    def sync(self) -> int:
        """Index all receipts sealed since the last sync; returns new tx count."""
        receipts = self._chain.receipts
        start = self._total_entries
        if start == len(receipts):
            return 0
        by_address = self._by_address
        for receipt in islice(receipts, start, None):
            sender = receipt.transaction.from_address
            recipient = receipt.transaction.to_address
            by_address.setdefault(sender, []).append(receipt)
            if recipient != sender:
                by_address.setdefault(recipient, []).append(receipt)
        self._total_entries = len(receipts)
        return self._total_entries - start

    # -- queries -----------------------------------------------------------------

    def transactions_of(self, address: Address) -> list[Receipt]:
        """Receipts of all transactions touching ``address``, oldest first."""
        return list(self._by_address.get(address, ()))
