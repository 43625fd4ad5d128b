"""Synthetic ETH-USD daily-close price oracle.

The paper converts every transaction's ETH value to USD using Yahoo
Finance's adjusted daily close for the transaction date. Offline, we
substitute a deterministic synthetic series shaped like the real
2020-2023 market:

* ~130 USD in January 2020, COVID dip in March 2020,
* bull run peaking ~4,800 USD in November 2021,
* crash to ~1,100 USD by June 2022,
* recovery into the 1,600-2,400 band through 2023.

Anchor points are linearly interpolated in log-space (price moves are
multiplicative) and modulated with smooth deterministic pseudo-noise so
consecutive days differ like a real series. Only the *conversion* role
of the oracle matters to the analyses; EXPERIMENTS.md notes that
absolute USD magnitudes inherit this substitution.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date, datetime, timezone

from repro.chain.types import WEI_PER_ETHER, Wei

__all__ = ["EthUsdOracle", "timestamp_of_day"]

SECONDS_PER_DAY = 86_400

# (ISO date, USD close) anchors tracing the 2020-2023 market shape.
DEFAULT_ANCHORS: tuple[tuple[str, float], ...] = (
    ("2019-12-01", 150.0),
    ("2020-01-01", 130.0),
    ("2020-03-15", 110.0),
    ("2020-06-01", 230.0),
    ("2020-09-01", 430.0),
    ("2021-01-01", 730.0),
    ("2021-05-10", 3900.0),
    ("2021-07-20", 1800.0),
    ("2021-11-10", 4800.0),
    ("2022-01-01", 3700.0),
    ("2022-06-18", 1000.0),
    ("2022-08-14", 1900.0),
    ("2022-11-09", 1100.0),
    ("2023-01-01", 1200.0),
    ("2023-04-15", 2100.0),
    ("2023-06-10", 1750.0),
    ("2023-10-01", 1650.0),
    ("2024-06-01", 3500.0),
)


def timestamp_of_day(day: date) -> int:
    """Unix timestamp of UTC midnight starting ``day``."""
    return int(datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp())


@dataclass(frozen=True)
class EthUsdOracle:
    """Deterministic daily ETH-USD close series.

    ``noise_amplitude`` scales day-to-day wobble (0 disables it, giving
    pure log-linear interpolation between anchors — useful in tests).
    """

    anchors: tuple[tuple[str, float], ...] = DEFAULT_ANCHORS
    noise_amplitude: float = 0.035

    def __post_init__(self) -> None:
        days = [timestamp_of_day(date.fromisoformat(iso)) // SECONDS_PER_DAY
                for iso, _ in self.anchors]
        prices = [price for _, price in self.anchors]
        if days != sorted(days):
            raise ValueError("oracle anchors must be in chronological order")
        if any(price <= 0 for price in prices):
            raise ValueError("anchor prices must be positive")
        object.__setattr__(self, "_anchor_days", days)
        object.__setattr__(self, "_anchor_logs", [math.log(p) for p in prices])
        object.__setattr__(self, "_day_close_cache", {})

    # -- price queries ------------------------------------------------------

    def close_on_day(self, day_number: int) -> float:
        """USD close for an absolute day number (unix epoch days).

        The series is pure in ``day_number``, so closes are memoized per
        day — analyses convert thousands of amounts on the same few
        hundred days, and the log-interp + sine noise is the hot path.
        """
        cache: dict[int, float] = self._day_close_cache  # type: ignore[attr-defined]
        cached = cache.get(day_number)
        if cached is not None:
            return cached
        days: list[int] = self._anchor_days  # type: ignore[attr-defined]
        logs: list[float] = self._anchor_logs  # type: ignore[attr-defined]
        if day_number <= days[0]:
            base = logs[0]
        elif day_number >= days[-1]:
            base = logs[-1]
        else:
            hi = bisect_right(days, day_number)
            lo = hi - 1
            span = days[hi] - days[lo]
            weight = (day_number - days[lo]) / span
            base = logs[lo] + weight * (logs[hi] - logs[lo])
        close = math.exp(base + self._noise(day_number))
        cache[day_number] = close
        return close

    def _noise(self, day_number: int) -> float:
        """Smooth deterministic wobble: a fixed sum of incommensurate sines."""
        if not self.noise_amplitude:
            return 0.0
        x = float(day_number)
        wave = (
            math.sin(x / 5.3) * 0.5
            + math.sin(x / 13.7 + 1.1) * 0.3
            + math.sin(x / 41.1 + 2.3) * 0.2
        )
        return self.noise_amplitude * wave

    def price_at(self, timestamp: int) -> float:
        """USD close of the UTC day containing ``timestamp``."""
        return self.close_on_day(timestamp // SECONDS_PER_DAY)

    def price_on(self, day: date) -> float:
        """USD close for a calendar date."""
        return self.close_on_day(timestamp_of_day(day) // SECONDS_PER_DAY)

    # -- conversions ---------------------------------------------------------

    def wei_to_usd(self, amount: Wei, timestamp: int) -> float:
        """Convert a wei amount to USD at that day's close."""
        return (amount / WEI_PER_ETHER) * self.price_at(timestamp)

    def usd_to_wei(self, usd: float, timestamp: int) -> Wei:
        """Convert a USD amount to wei at that day's close."""
        if usd < 0:
            raise ValueError("usd amount must be non-negative")
        return int(round(usd / self.price_at(timestamp) * WEI_PER_ETHER))
