"""OpenSea-like NFT marketplace substrate."""

from .api import MAX_EVENTS_PER_PAGE, OpenSeaAPI
from .market import EVENT_LISTING, EVENT_SALE, MarketEvent, OpenSeaMarket

__all__ = [
    "EVENT_LISTING",
    "EVENT_SALE",
    "MAX_EVENTS_PER_PAGE",  # lint: ignore[flow-dead-api] a page cap an API client must know
    "MarketEvent",
    "OpenSeaAPI",
    "OpenSeaMarket",
]
