"""The 21-day Dutch-auction premium curve."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ens.premium import DEFAULT_PREMIUM, PremiumCurve, SECONDS_PER_DAY


class TestDefaultCurve:
    def test_opens_at_one_hundred_million(self) -> None:
        assert DEFAULT_PREMIUM.premium_usd(0) == pytest.approx(
            100_000_000, rel=1e-6
        )

    def test_halves_each_day(self) -> None:
        day0 = DEFAULT_PREMIUM.premium_usd(0)
        day1 = DEFAULT_PREMIUM.premium_usd(SECONDS_PER_DAY)
        # the subtracted offset is ~48 USD, negligible at this scale
        assert day1 == pytest.approx(day0 / 2, rel=1e-4)

    def test_exactly_zero_at_period_end(self) -> None:
        end = 21 * SECONDS_PER_DAY
        assert DEFAULT_PREMIUM.premium_usd(end) == 0.0
        assert DEFAULT_PREMIUM.premium_usd(end - 1) > 0.0

    def test_zero_after_period(self) -> None:
        assert DEFAULT_PREMIUM.premium_usd(400 * SECONDS_PER_DAY) == 0.0

    def test_negative_elapsed_rejected(self) -> None:
        with pytest.raises(ValueError):
            DEFAULT_PREMIUM.premium_usd(-1)

    def test_is_premium_active_window(self) -> None:
        assert DEFAULT_PREMIUM.premium_usd(0) > 0
        assert DEFAULT_PREMIUM.premium_usd(20 * SECONDS_PER_DAY) > 0
        assert DEFAULT_PREMIUM.premium_usd(21 * SECONDS_PER_DAY) == 0.0


class TestCustomCurves:
    def test_invalid_parameters_rejected(self) -> None:
        with pytest.raises(ValueError):
            PremiumCurve(start_usd=-1)
        with pytest.raises(ValueError):
            PremiumCurve(period_days=0)
        with pytest.raises(ValueError):
            PremiumCurve(half_life_days=0)

    def test_zero_start_is_always_zero(self) -> None:
        curve = PremiumCurve(start_usd=0.0)
        assert curve.premium_usd(0) == 0.0

    @given(st.integers(min_value=0, max_value=30 * SECONDS_PER_DAY))
    @settings(max_examples=60, deadline=None)
    def test_monotonically_non_increasing(self, elapsed: int) -> None:
        later = DEFAULT_PREMIUM.premium_usd(elapsed + 3600)
        now = DEFAULT_PREMIUM.premium_usd(elapsed)
        assert later <= now

    @given(
        st.floats(min_value=1.0, max_value=1e9),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds_hold_for_any_curve(self, start: float, period: int) -> None:
        curve = PremiumCurve(start_usd=start, period_days=period)
        assert curve.premium_usd(0) == pytest.approx(
            start - start * 0.5**period, rel=1e-9
        )
        assert curve.premium_usd(curve.period_seconds) == 0.0
