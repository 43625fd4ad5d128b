"""Address label registry (Etherscan's name tags).

The paper's custodial-sender filter (§4.4) is built from Etherscan
labels: 558 non-Coinbase custodial exchange addresses are excluded and
25 Coinbase addresses are analysed separately (Coinbase being the only
exchange that resolves ENS). This registry is that label source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.types import Address

__all__ = ["LabelRegistry", "CATEGORY_COINBASE", "CATEGORY_CUSTODIAL_EXCHANGE"]

CATEGORY_COINBASE = "coinbase"
CATEGORY_CUSTODIAL_EXCHANGE = "custodial-exchange"


@dataclass
class LabelRegistry:
    """address-hex → label category map with category queries."""

    _categories: dict[str, str] = field(default_factory=dict)

    @staticmethod
    def _key(address: Address | str) -> str:
        """The lowercase hex key; a string is parsed, so a checksummed
        form finds the same label and malformed hex is a ``ValueError``."""
        if isinstance(address, str):
            address = Address.from_hex(address)
        return address.hex

    def tag(self, address: Address | str, category: str) -> None:
        """Attach a category label; re-tagging an address overwrites."""
        self._categories[self._key(address)] = category

    def addresses_in_category(self, category: str) -> list[str]:
        """Sorted addresses carrying ``category`` labels."""
        return sorted(
            address
            for address, tagged in self._categories.items()
            if tagged == category
        )

    def __len__(self) -> int:
        return len(self._categories)
