"""Scenario configuration validation and calibration constants."""

from __future__ import annotations

from dataclasses import replace
from datetime import date

import pytest

from repro.simulation import PAPER, ScenarioConfig


class TestConfigValidation:
    def test_defaults_valid(self) -> None:
        ScenarioConfig()

    def test_domains_positive(self) -> None:
        with pytest.raises(ValueError):
            ScenarioConfig(n_domains=0)

    def test_timeline_ordering(self) -> None:
        with pytest.raises(ValueError):
            ScenarioConfig(start=date(2023, 1, 1), end=date(2022, 1, 1))

    @pytest.mark.parametrize("field", [
        "migration_fraction", "renewal_continue_prob", "ens_sender_fraction",
        "whale_fraction", "misdirect_continue_prob", "list_prob", "sale_prob",
    ])
    def test_probabilities_bounded(self, field: str) -> None:
        with pytest.raises(ValueError):
            ScenarioConfig(**{field: 1.5})
        with pytest.raises(ValueError):
            ScenarioConfig(**{field: -0.1})

    def test_timing_fractions_must_fit(self) -> None:
        with pytest.raises(ValueError):
            ScenarioConfig(
                premium_buy_fraction=0.5,
                same_day_fraction=0.4,
                early_fraction=0.3,
            )

    def test_frozen(self) -> None:
        config = ScenarioConfig()
        with pytest.raises(AttributeError):
            config.n_domains = 5  # type: ignore[misc]

    def test_replace_for_sweeps(self) -> None:
        config = ScenarioConfig()
        other = replace(config, seed=99)
        assert other.seed == 99
        assert other.n_domains == config.n_domains


class TestPaperTargets:
    def test_rereg_rate_derivation(self) -> None:
        expected = 241_283 / (241_283 + 1_170_000)
        assert PAPER.rereg_rate_among_expired == pytest.approx(expected)

    def test_sold_of_listed(self) -> None:
        sold_of_listed = PAPER.sold_on_opensea / PAPER.listed_on_opensea
        assert sold_of_listed == pytest.approx(12_130 / 19_987)

    def test_income_ratio_is_the_headline(self) -> None:
        ratio = PAPER.avg_income_reregistered_usd / PAPER.avg_income_control_usd
        assert 3.0 < ratio < 3.5

    def test_top_catchers_ordered(self) -> None:
        a, b, c = PAPER.top_catcher_counts
        assert a > b > c
