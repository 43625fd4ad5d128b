"""OpenSea-like NFT marketplace — an on-chain settlement contract.

Models the slice of OpenSea the paper's §4.2 re-sale analysis consumes,
with Seaport-style settlement semantics: sellers *approve* the market
contract on their ENS name NFT and list it; a buyer's single ``buy``
transaction pays the seller and transfers the NFT through the approval
— atomically, with the whole flow visible on chain (payment as an
internal transfer, NFT move as a registrar Transfer event).

The marketplace additionally keeps the off-chain event feed (listings,
sales, cancellations) that the OpenSea API serves to crawlers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..chain.contract import CallContext, Contract
from ..chain.errors import Revert
from ..chain.types import Address, Hash32, Wei
from ..ens.registrar import BaseRegistrar

__all__ = ["MarketEvent", "OpenSeaMarket", "EVENT_LISTING", "EVENT_SALE"]

EVENT_LISTING = "listing"
EVENT_SALE = "sale"
EVENT_CANCEL = "cancel"


@dataclass(frozen=True, slots=True)
class MarketEvent:
    """One marketplace event for a token (the API's feed rows)."""

    token_id: str           # labelhash hex
    event_type: str
    timestamp: int
    maker: str              # seller
    taker: str | None       # buyer (sales only)
    price_wei: int

    def as_api_dict(self) -> dict[str, object]:
        """OpenSea-style API row for this event."""
        return {
            "tokenId": self.token_id,
            "eventType": self.event_type,
            "timestamp": self.timestamp,
            "maker": self.maker,
            "taker": self.taker,
            "priceWei": str(self.price_wei),
        }


@dataclass
class _Listing:
    seller: Address
    price_wei: Wei


class OpenSeaMarket(Contract):
    """Listings + atomic sale settlement + the event history feed."""

    def __init__(
        self, address: Address, chain, registrar: BaseRegistrar
    ) -> None:
        super().__init__(address, chain)
        self._registrar = registrar
        self.events: list[MarketEvent] = []
        self._active: dict[str, _Listing] = {}
        self._events_by_token: dict[str, list[MarketEvent]] = {}

    def _record(self, event: MarketEvent) -> None:
        self.events.append(event)
        self._events_by_token.setdefault(event.token_id, []).append(event)

    # -- market entry points (contract methods) ------------------------------

    def list_token(
        self, ctx: CallContext, token_id: Hash32, price_wei: Wei
    ) -> None:
        """Create (or re-price) a listing; seller must own the token and
        have approved this market contract to move it."""
        self.require(price_wei > 0, "listing price must be positive")
        owner = self._registrar.owner_of(ctx, token_id)
        self.require(ctx.sender == owner, "only the owner can list")
        approved = self._registrar.get_approved(ctx, token_id)
        self.require(
            approved == self.address,
            "market is not approved to transfer this token",
        )
        self._active[token_id.hex] = _Listing(seller=ctx.sender, price_wei=price_wei)
        self._record(
            MarketEvent(
                token_id=token_id.hex,
                event_type=EVENT_LISTING,
                timestamp=ctx.timestamp,
                maker=ctx.sender.hex,
                taker=None,
                price_wei=price_wei,
            )
        )
        self.emit("Listed", token=token_id, seller=ctx.sender, price=price_wei)

    def cancel_listing(self, ctx: CallContext, token_id: Hash32) -> None:
        """Withdraw the sender's active listing (reverts if none)."""
        listing = self._active.get(token_id.hex)
        if listing is None or listing.seller != ctx.sender:
            raise Revert("no active listing by this seller")
        del self._active[token_id.hex]
        self._record(
            MarketEvent(
                token_id=token_id.hex,
                event_type=EVENT_CANCEL,
                timestamp=ctx.timestamp,
                maker=ctx.sender.hex,
                taker=None,
                price_wei=listing.price_wei,
            )
        )
        self.emit("Cancelled", token=token_id, seller=ctx.sender)

    def buy(self, ctx: CallContext, token_id: Hash32) -> None:
        """Atomic settlement: pay the seller, move the NFT, close the
        listing — all in one transaction, reverting as a unit."""
        listing = self._active.get(token_id.hex)
        if listing is None:
            raise Revert(f"token {token_id.hex} is not listed")
        self.require(
            ctx.value >= listing.price_wei,
            f"sent {ctx.value} wei, listing price is {listing.price_wei}",
        )
        # the NFT moves via our approval; a stale listing (seller no
        # longer owner / approval gone) reverts here, refunding the buyer
        self.internal_call(
            ctx,
            self._registrar.address,
            "transfer_from",
            to=ctx.sender,
            label_hash=token_id,
        )
        self.pay(listing.seller, listing.price_wei)
        if ctx.value > listing.price_wei:
            self.pay(ctx.sender, ctx.value - listing.price_wei)
        del self._active[token_id.hex]
        self._record(
            MarketEvent(
                token_id=token_id.hex,
                event_type=EVENT_SALE,
                timestamp=ctx.timestamp,
                maker=listing.seller.hex,
                taker=ctx.sender.hex,
                price_wei=listing.price_wei,
            )
        )
        self.emit(
            "Sold",
            token=token_id,
            seller=listing.seller,
            buyer=ctx.sender,
            price=listing.price_wei,
        )

    # -- views / feed -----------------------------------------------------------

    def is_listed(self, token_id: Hash32) -> bool:
        """Whether ``token_id`` has an active listing."""
        return token_id.hex in self._active

    def listing_price(self, token_id: Hash32) -> Wei | None:
        """Active listing price in wei, or None."""
        listing = self._active.get(token_id.hex)
        return listing.price_wei if listing else None

    def events_of(self, token_id: Hash32 | str) -> list[MarketEvent]:
        """All market events of one token, oldest first."""
        key = token_id.hex if isinstance(token_id, Hash32) else token_id
        return list(self._events_by_token.get(key, ()))

    def iter_events(self) -> Iterator[MarketEvent]:
        """Iterate every market event in recorded order."""
        return iter(self.events)
