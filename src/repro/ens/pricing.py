"""Base rent pricing for .eth registrations.

Mirrors mainnet's ``StablePriceOracle``: names are priced in USD per
year by label length — short names cost drastically more — and the USD
amount is converted to wei at the current ETH-USD rate at transaction
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.types import SECONDS_PER_YEAR, Wei
from ..oracle.ethusd import EthUsdOracle
from .normalize import MIN_REGISTRABLE_LABEL_LENGTH
from .premium import PremiumCurve, DEFAULT_PREMIUM

__all__ = ["RentPriceOracle"]

# Mainnet .eth pricing: 3-char $640/yr, 4-char $160/yr, 5+ chars $5/yr.
DEFAULT_USD_PER_YEAR: dict[int, float] = {3: 640.0, 4: 160.0}
DEFAULT_LONG_NAME_USD_PER_YEAR = 5.0


@dataclass(frozen=True)
class RentPriceOracle:
    """Quotes registration/renewal prices in USD and wei."""

    eth_usd: EthUsdOracle = field(default_factory=EthUsdOracle)
    premium: PremiumCurve = DEFAULT_PREMIUM
    usd_per_year_by_length: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_USD_PER_YEAR)
    )
    long_name_usd_per_year: float = DEFAULT_LONG_NAME_USD_PER_YEAR

    def base_usd_per_year(self, label: str) -> float:
        """Annual base rent in USD for a label."""
        if len(label) < MIN_REGISTRABLE_LABEL_LENGTH:
            raise ValueError(f"label {label!r} is not registrable")
        return self.usd_per_year_by_length.get(
            len(label), self.long_name_usd_per_year
        )

    def base_price_usd(self, label: str, duration_seconds: int) -> float:
        """Base rent in USD for registering ``label`` for a duration."""
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        years = duration_seconds / SECONDS_PER_YEAR
        return self.base_usd_per_year(label) * years

    def premium_usd(self, seconds_since_release: int | None) -> float:
        """Premium owed, or 0 if the name was never released (None)."""
        if seconds_since_release is None:
            return 0.0
        return self.premium.premium_usd(seconds_since_release)

    def price_components_wei(
        self,
        label: str,
        duration_seconds: int,
        timestamp: int,
        seconds_since_release: int | None = None,
    ) -> tuple[Wei, Wei]:
        """(base, premium) in wei, each converted and rounded separately.

        Quotes and charges must round identically or an exact-value
        payment can fall a few wei short; every price path goes through
        this method.
        """
        base = self.eth_usd.usd_to_wei(
            self.base_price_usd(label, duration_seconds), timestamp
        )
        premium = self.eth_usd.usd_to_wei(
            self.premium_usd(seconds_since_release), timestamp
        )
        return base, premium

    def total_price_wei(
        self,
        label: str,
        duration_seconds: int,
        timestamp: int,
        seconds_since_release: int | None = None,
    ) -> Wei:
        """Full registration price (base + premium) in wei at ``timestamp``."""
        base, premium = self.price_components_wei(
            label, duration_seconds, timestamp, seconds_since_release
        )
        return base + premium

    def renewal_price_wei(
        self, label: str, duration_seconds: int, timestamp: int
    ) -> Wei:
        """Renewal price in wei — renewals never pay premium."""
        return self.eth_usd.usd_to_wei(
            self.base_price_usd(label, duration_seconds), timestamp
        )
