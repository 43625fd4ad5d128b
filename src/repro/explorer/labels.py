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
CATEGORY_CONTRACT = "contract"


@dataclass(frozen=True, slots=True)
class AddressLabel:
    """A public name tag: display name plus a category."""

    name: str
    category: str


@dataclass
class LabelRegistry:
    """address-hex → label map with category queries."""

    _labels: dict[str, AddressLabel] = field(default_factory=dict)

    @staticmethod
    def _key(address: Address | str) -> str:
        """The lowercase hex key; a string is parsed, so a checksummed
        form finds the same label and malformed hex is a ``ValueError``."""
        if isinstance(address, str):
            address = Address.from_hex(address)
        return address.hex

    def tag(self, address: Address | str, name: str, category: str) -> None:
        """Attach a label; re-tagging an address overwrites."""
        self._labels[self._key(address)] = AddressLabel(name=name, category=category)

    def get(self, address: Address | str) -> AddressLabel | None:
        """Label record for ``address``, or None."""
        return self._labels.get(self._key(address))

    def category_of(self, address: Address | str) -> str | None:
        """Label category of ``address``, or None."""
        label = self.get(address)
        return label.category if label else None

    def is_coinbase(self, address: Address | str) -> bool:
        """Whether ``address`` is labelled as the Coinbase exchange."""
        return self.category_of(address) == CATEGORY_COINBASE

    def addresses_in_category(self, category: str) -> list[str]:
        """Sorted addresses carrying ``category`` labels."""
        return sorted(
            address
            for address, label in self._labels.items()
            if label.category == category
        )

    def coinbase_addresses(self) -> list[str]:
        """Sorted addresses labelled as Coinbase."""
        return self.addresses_in_category(CATEGORY_COINBASE)

    def __len__(self) -> int:
        return len(self._labels)
