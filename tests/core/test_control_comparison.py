"""Control-group sampling and the Table-1 comparison builder."""

from __future__ import annotations

import pytest

from repro.core import compare_groups, sample_control_group, study_groups
from repro.core.control import control_candidates
from repro.oracle import EthUsdOracle

from .helpers import make_dataset, make_domain, make_registration, make_tx

FLAT = EthUsdOracle(anchors=(("2019-01-01", 2000.0),), noise_amplitude=0.0)


def _world(n_caught: int = 6, n_expired: int = 10, n_live: int = 3):
    domains, txs = [], []
    for i in range(n_caught):
        label = "gold" + "abcdefghij"[i]  # dictionary-containing, digit-free
        domain = make_domain(label, [
            make_registration(f"0xa{i}", 100, 465, ordinal=0),
            make_registration(f"0xb{i}", 600, 965, ordinal=1),
        ])
        domains.append(domain)
        txs.append(make_tx(f"0xs{i}", f"0xa{i}", 200, value_wei=50 * 10**18))
    for i in range(n_expired):
        label = f"xq{i}z9-arc"  # digit+hyphen junk, expired only
        domains.append(
            make_domain(label, [make_registration(f"0xe{i}", 100, 465)])
        )
        txs.append(make_tx(f"0xt{i}", f"0xe{i}", 200, value_wei=10**18))
    for i in range(n_live):
        domains.append(
            make_domain(f"live{i}", [make_registration(f"0xl{i}", 100, 90000)])
        )
    return make_dataset(domains, txs, crawl_day=2000)


class TestControlSampling:
    def test_candidates_exclude_caught_and_live(self) -> None:
        dataset = _world()
        candidates = control_candidates(dataset)
        assert len(candidates) == 10
        labels = {domain.label_name for domain in candidates}
        assert all(label.startswith("xq") for label in labels)

    def test_sample_size_capped(self) -> None:
        dataset = _world()
        assert len(sample_control_group(dataset, 4)) == 4
        assert len(sample_control_group(dataset, 100)) == 10

    def test_sample_deterministic_per_seed(self) -> None:
        dataset = _world()
        first = [d.domain_id for d in sample_control_group(dataset, 5, seed=1)]
        second = [d.domain_id for d in sample_control_group(dataset, 5, seed=1)]
        other = [d.domain_id for d in sample_control_group(dataset, 5, seed=2)]
        assert first == second
        assert first != other

    def test_study_groups_equal_size(self) -> None:
        reregistered, control = study_groups(_world())
        assert len(reregistered) == 6
        assert len(control) == 6
        assert {d.domain_id for d in reregistered}.isdisjoint(
            {d.domain_id for d in control}
        )


class TestComparison:
    def test_table_shape(self) -> None:
        comparison = compare_groups(_world(), FLAT)
        features = [row.feature for row in comparison.rows]
        assert "income_usd" in features
        assert "contains_digit" in features
        assert len(features) == 12  # 4 numeric + 8 boolean (no length dup)

    def test_income_direction_and_significance(self) -> None:
        comparison = compare_groups(_world(), FLAT)
        income = comparison.row("income_usd")
        assert income.reregistered_value > income.control_value
        assert income.significant

    def test_lexical_directions(self) -> None:
        comparison = compare_groups(_world(), FLAT)
        digits = comparison.row("contains_digit")
        assert digits.reregistered_value < digits.control_value
        dictionary = comparison.row("contains_dictionary_word")
        assert dictionary.reregistered_value > dictionary.control_value

    def test_unknown_row_raises(self) -> None:
        comparison = compare_groups(_world(), FLAT)
        with pytest.raises(KeyError):
            comparison.row("nope")

    def test_group_sizes_recorded(self) -> None:
        comparison = compare_groups(_world(), FLAT)
        assert comparison.group_size_reregistered == 6
        assert comparison.group_size_control == 6
