"""Synthetic ETH-USD oracle: shape, determinism, conversions."""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.types import WEI_PER_ETHER
from repro.oracle import EthUsdOracle, timestamp_of_day


@pytest.fixture(scope="module")
def oracle() -> EthUsdOracle:
    return EthUsdOracle()


def _price_on(oracle: EthUsdOracle, day: date) -> float:
    return oracle.price_at(timestamp_of_day(day))


class TestSeriesShape:
    def test_deterministic(self, oracle: EthUsdOracle) -> None:
        day = date(2021, 6, 15)
        assert _price_on(oracle, day) == _price_on(EthUsdOracle(), day)

    def test_2020_start_low(self, oracle: EthUsdOracle) -> None:
        assert 80 < _price_on(oracle, date(2020, 1, 15)) < 250

    def test_2021_bull_peak(self, oracle: EthUsdOracle) -> None:
        assert _price_on(oracle, date(2021, 11, 10)) > 4000

    def test_2022_crash(self, oracle: EthUsdOracle) -> None:
        assert _price_on(oracle, date(2022, 6, 18)) < 1500

    def test_2023_band(self, oracle: EthUsdOracle) -> None:
        assert 1200 < _price_on(oracle, date(2023, 8, 1)) < 2800

    def test_clamped_before_first_anchor(self, oracle: EthUsdOracle) -> None:
        assert _price_on(oracle, date(2015, 1, 1)) == pytest.approx(
            _price_on(oracle, date(2019, 11, 30)), rel=0.2
        )

    def test_noise_disabled_is_smooth(self) -> None:
        flat = EthUsdOracle(
            anchors=(("2020-01-01", 1000.0), ("2021-01-01", 1000.0)),
            noise_amplitude=0.0,
        )
        assert _price_on(flat, date(2020, 6, 1)) == pytest.approx(1000.0)

    def test_bad_anchor_order_rejected(self) -> None:
        with pytest.raises(ValueError):
            EthUsdOracle(anchors=(("2021-01-01", 1.0), ("2020-01-01", 2.0)))

    def test_non_positive_anchor_rejected(self) -> None:
        with pytest.raises(ValueError):
            EthUsdOracle(anchors=(("2020-01-01", 0.0),))


class TestConversions:
    def test_round_trip(self, oracle: EthUsdOracle) -> None:
        ts = timestamp_of_day(date(2022, 3, 1))
        wei = oracle.usd_to_wei(1234.5, ts)
        assert oracle.wei_to_usd(wei, ts) == pytest.approx(1234.5, rel=1e-9)

    def test_one_ether_is_daily_close(self, oracle: EthUsdOracle) -> None:
        ts = timestamp_of_day(date(2022, 3, 1))
        assert oracle.wei_to_usd(WEI_PER_ETHER, ts) == pytest.approx(
            _price_on(oracle, date(2022, 3, 1))
        )

    def test_same_day_same_price(self, oracle: EthUsdOracle) -> None:
        ts = timestamp_of_day(date(2022, 3, 1))
        assert oracle.price_at(ts) == oracle.price_at(ts + 86_399)

    def test_negative_usd_rejected(self, oracle: EthUsdOracle) -> None:
        with pytest.raises(ValueError):
            oracle.usd_to_wei(-1.0, 0)

    @given(st.integers(min_value=0, max_value=40_000))
    @settings(max_examples=60, deadline=None)
    def test_price_always_positive(self, day_number: int) -> None:
        assert EthUsdOracle().close_on_day(day_number) > 0
