"""Etherscan-like blockchain explorer substrate."""

from .api import MAX_TXLIST_WINDOW, EtherscanAPI, RateLimitError, VirtualClock
from .database import ExplorerDatabase
from .labels import (
    CATEGORY_COINBASE,
    CATEGORY_CUSTODIAL_EXCHANGE,
    LabelRegistry,
)

__all__ = [
    "CATEGORY_COINBASE",
    "CATEGORY_CUSTODIAL_EXCHANGE",
    "EtherscanAPI",
    "ExplorerDatabase",
    "LabelRegistry",
    "MAX_TXLIST_WINDOW",
    "RateLimitError",
    "VirtualClock",
]
