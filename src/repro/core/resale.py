"""Re-sale market analysis (§4.2).

Of the re-registered domains, how many did their catchers list on the
NFT marketplace, and how many of those listings sold? The paper finds
only 8% were ever listed (12,130 of 19,987 sold), concluding hoarding
for resale is *not* the dominant dropcatching motive.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.dataset import ENSDataset
from ..marketplace.market import EVENT_LISTING, EVENT_SALE
from ..oracle.ethusd import EthUsdOracle
from .dropcatch import ReRegistration, find_reregistrations

__all__ = ["ResaleReport", "analyze_resale"]


@dataclass(frozen=True, slots=True)
class ResaleReport:
    """§4.2 aggregates."""

    reregistered_domains: int
    listed_domains: int
    sold_domains: int
    sale_prices_usd: tuple[float, ...]

    @property
    def listed_fraction(self) -> float:
        """Fraction of re-registered domains listed for resale."""
        if not self.reregistered_domains:
            return 0.0
        return self.listed_domains / self.reregistered_domains

    @property
    def sold_of_listed(self) -> float:
        """Fraction of listed domains that sold."""
        return self.sold_domains / self.listed_domains if self.listed_domains else 0.0

    @property
    def average_sale_usd(self) -> float:
        """Mean sale price in USD (0 with no sales)."""
        if not self.sale_prices_usd:
            return 0.0
        return sum(self.sale_prices_usd) / len(self.sale_prices_usd)


def analyze_resale(
    dataset: ENSDataset,
    oracle: EthUsdOracle,
    events: list[ReRegistration] | None = None,
) -> ResaleReport:
    """Join dropcatches with marketplace events by token (labelhash).

    A listing/sale only counts when made by the catching owner *after*
    the catch — pre-expiry listings by the original owner are not
    resale-motivated dropcatching.
    """
    if events is None:
        events = find_reregistrations(dataset)
    # For each caught token: catch time and the owner who lost the name.
    # The seller is matched as "after the catch, and not the old owner" —
    # a registration's registrant field reflects post-transfer state, so
    # an equality check against the catcher would miss flipped names.
    catch_info: dict[str, list[tuple[int, str]]] = {}
    for event in events:
        catch_info.setdefault(event.labelhash, []).append(
            (event.next.registration_date, event.previous_owner)
        )
    listed: set[str] = set()
    sold: set[str] = set()
    sale_prices: list[float] = []
    for market_event in dataset.market_events:  # lint: ignore[perf-row-object-hot-loop] one pass per report pairs listings with sales
        catches = catch_info.get(market_event.token_id)
        if not catches:
            continue
        by_catcher = any(
            market_event.timestamp >= caught_at and market_event.maker != old_owner
            for caught_at, old_owner in catches
        )
        if not by_catcher:
            continue
        if market_event.event_type == EVENT_LISTING:
            listed.add(market_event.token_id)
        elif market_event.event_type == EVENT_SALE:
            listed.add(market_event.token_id)  # a sale implies a listing
            sold.add(market_event.token_id)
            sale_prices.append(
                oracle.wei_to_usd(market_event.price_wei, market_event.timestamp)
            )
    return ResaleReport(
        reregistered_domains=len({event.domain_id for event in events}),
        listed_domains=len(listed),
        sold_domains=len(sold),
        sale_prices_usd=tuple(sale_prices),
    )
