"""The temporary-premium Dutch auction for recently-released names.

When a .eth name's 90-day grace period ends, ENS does not hand it to
the fastest bot (as DNS drops do); instead it attaches a *temporary
premium* that starts at 100M USD and decays exponentially to exactly 0
over 21 days, halving once per day:

    premium(t) = START * 0.5^(t/1day) - START * 0.5^21

The subtracted offset makes the curve hit zero precisely at day 21
(matching the deployed ``ExponentialPremiumPriceOracle``). §4.1 of the
paper keys several findings to this window — 56,792 domains were caught
right after the premium concluded, and 16,092 were bought *at* premium.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PremiumCurve", "DEFAULT_PREMIUM", "PREMIUM_PERIOD_DAYS", "GRACE_PERIOD_DAYS"]

SECONDS_PER_DAY = 86_400

GRACE_PERIOD_DAYS = 90
PREMIUM_PERIOD_DAYS = 21


@dataclass(frozen=True, slots=True)
class PremiumCurve:
    """Exponentially-decaying premium in USD.

    ``start_usd`` is the opening premium; ``period_days`` the time to
    decay to zero; ``half_life_days`` the halving interval (1 day on
    mainnet).
    """

    start_usd: float = 100_000_000.0
    period_days: int = PREMIUM_PERIOD_DAYS
    half_life_days: float = 1.0

    def __post_init__(self) -> None:
        if self.start_usd < 0:
            raise ValueError("premium start must be non-negative")
        if self.period_days <= 0 or self.half_life_days <= 0:
            raise ValueError("premium periods must be positive")

    @property
    def period_seconds(self) -> int:
        """Length of the premium decay period in seconds."""
        return self.period_days * SECONDS_PER_DAY

    @property
    def _end_offset(self) -> float:
        """The value the raw decay curve has at period end."""
        return self.start_usd * 0.5 ** (self.period_days / self.half_life_days)

    def premium_usd(self, seconds_since_release: int) -> float:
        """Premium owed ``seconds_since_release`` after grace ended.

        Negative elapsed time (still in grace) raises — callers must not
        quote premiums for names that are not yet released.
        """
        if seconds_since_release < 0:
            raise ValueError("name is not released yet (still in grace period)")
        if seconds_since_release >= self.period_seconds:
            return 0.0
        days_elapsed = seconds_since_release / SECONDS_PER_DAY
        raw = self.start_usd * 0.5 ** (days_elapsed / self.half_life_days)
        return max(0.0, raw - self._end_offset)


DEFAULT_PREMIUM = PremiumCurve()
