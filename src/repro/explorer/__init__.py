"""Etherscan-like blockchain explorer substrate."""

from .api import (
    ApiError,
    EtherscanAPI,
    MAX_TXLIST_WINDOW,
    RateLimitError,
    VirtualClock,
)
from .database import ExplorerDatabase
from .labels import (
    CATEGORY_COINBASE,
    CATEGORY_CUSTODIAL_EXCHANGE,
    LabelRegistry,
)

__all__ = [
    "ApiError",
    "CATEGORY_COINBASE",
    "CATEGORY_CUSTODIAL_EXCHANGE",
    "EtherscanAPI",
    "ExplorerDatabase",
    "LabelRegistry",
    "MAX_TXLIST_WINDOW",
    "RateLimitError",
    "VirtualClock",
]
