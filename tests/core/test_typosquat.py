"""Typosquat screening: the edit distance and the catch matcher."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.typosquat import (
    TargetIndex,
    damerau_levenshtein,
    find_typosquat_catches,
    screen_event,
    within_edit_distance,
)
from repro.oracle import EthUsdOracle

from .helpers import make_dataset, make_domain, make_registration, make_tx

FLAT = EthUsdOracle(anchors=(("2019-01-01", 2000.0),), noise_amplitude=0.0)


class TestDistance:
    @pytest.mark.parametrize("a,b,expected", [
        ("gold", "gold", 0),
        ("gold", "golds", 1),       # insertion
        ("gold", "gol", 1),         # deletion
        ("gold", "bold", 1),        # substitution
        ("gold", "glod", 1),        # transposition
        ("gold", "silver", 5),
        ("", "abc", 3),
        ("abc", "", 3),
        ("ca", "abc", 3),           # restricted DL classic
    ])
    def test_known_distances(self, a: str, b: str, expected: int) -> None:
        assert damerau_levenshtein(a, b) == expected

    @given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_metric_properties(self, a: str, b: str) -> None:
        distance = damerau_levenshtein(a, b)
        assert distance == damerau_levenshtein(b, a)       # symmetry
        assert (distance == 0) == (a == b)                 # identity
        assert distance <= max(len(a), len(b))             # upper bound

    def test_within_bound_prefilter(self) -> None:
        assert within_edit_distance("gold", "golde")
        assert not within_edit_distance("gold", "goldies")
        assert not within_edit_distance("gold", "mint")


class TestOneEditFastPath:
    """The k=1 linear path must agree with the DP everywhere."""

    @pytest.mark.parametrize("a,b", [
        ("gold", "gold"),      # equal
        ("gold", "bold"),      # substitution
        ("gold", "glod"),      # adjacent transposition
        ("gold", "golds"),     # insertion
        ("gold", "old"),       # deletion at the front
        ("gold", "gol"),       # deletion at the back
        ("", "a"),
        ("", ""),
        ("ab", "ba"),          # transposition of the whole string
        ("ab", "bc"),          # two substitutions disguised as a swap
        ("abc", "cba"),        # mirrored, distance 2
        ("abcde", "xbcdy"),    # two far-apart substitutions
        ("aa", "aaa"),         # repeated characters, insertion
        ("abab", "baba"),      # needs two transpositions
    ])
    def test_directed_cases(self, a: str, b: str) -> None:
        assert within_edit_distance(a, b) == (damerau_levenshtein(a, b) <= 1)

    @given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_dp(self, a: str, b: str) -> None:
        assert within_edit_distance(a, b) == (damerau_levenshtein(a, b) <= 1)

    @given(st.text(alphabet="ab", max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_every_single_edit_is_within_one(self, word: str) -> None:
        for i in range(len(word) + 1):
            assert within_edit_distance(word, word[:i] + "c" + word[i:])
        for i in range(len(word)):
            assert within_edit_distance(word, word[:i] + word[i + 1 :])
            assert within_edit_distance(word, word[:i] + "c" + word[i + 1 :])
        for i in range(len(word) - 1):
            swapped = word[:i] + word[i + 1] + word[i] + word[i + 2 :]
            assert within_edit_distance(word, swapped)


def _first_match(caught: str, labels: list[str]) -> int | None:
    """The screen's definition: the first target row within one edit,
    skipping the caught label itself and pure-digit pairs."""
    for row, label in enumerate(labels):
        if label == caught:
            continue
        if caught.isdigit() and label.isdigit():
            continue
        if within_edit_distance(caught, label):
            return row
    return None


class TestIndexedScreen:
    """The deletion-neighbourhood index finds exactly the first match a
    scan of the whole target table finds."""

    @given(
        labels=st.lists(st.text(alphabet="ab1", max_size=6), max_size=12),
        caught=st.text(alphabet="ab1", max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_a_full_scan(self, labels, caught) -> None:
        rows = [(label, float(row), label.isdigit()) for row, label in enumerate(labels)]
        event = SimpleNamespace(name=caught + ".eth", new_owner="0xnew")
        candidate = screen_event(event, TargetIndex(rows))
        expected = _first_match(caught, labels)
        if expected is None:
            assert candidate is None
        else:
            assert candidate is not None
            assert candidate.target_income_usd == float(expected)
            assert candidate.distance == damerau_levenshtein(caught, labels[expected])

    def test_candidates_are_a_small_superset(self) -> None:
        index = TargetIndex([(label, 0.0, False) for label in ("gold", "mint", "golf")])
        assert index.candidates("gold") == [0, 2]
        assert index.candidates("glod") == [0]
        assert index.candidates("zebra") == []


def _catch(label: str, *, previous: str = "0xa", new_owner: str = "0xsquat"):
    """A domain that expired and was caught by ``new_owner``."""
    return make_domain(label, [
        make_registration(previous, 100, 465, ordinal=0),
        make_registration(new_owner, 600, 965, ordinal=1),
    ])


def _rich(label: str, income_eth: int = 100):
    """A target whose first period earns ``income_eth`` ETH ($2,000 each)."""
    domain = make_domain(label, [make_registration("0xrich", 100, 3000)])
    tx = make_tx("0xs", "0xrich", 200, value_wei=income_eth * 10**18)
    return domain, tx


class TestScreening:
    def _world(self):
        # rich target "gold", its typo "golb" gets dropcaught,
        # plus an unrelated catch "zebra"
        target, tx = _rich("gold")
        typo = _catch("golb")
        unrelated = _catch("zebra", previous="0xb", new_owner="0xother")
        return make_dataset([target, typo, unrelated], [tx], crawl_day=1200)

    def test_typo_catch_flagged(self) -> None:
        report = find_typosquat_catches(self._world(), FLAT)
        assert report.popular_targets == 1
        assert report.catches_screened == 2
        assert len(report.candidates) == 1
        candidate = report.candidates[0]
        assert candidate.caught_label == "golb"
        assert candidate.target_label == "gold"
        assert candidate.distance == 1
        assert candidate.new_owner == "0xsquat"
        assert report.candidate_fraction == pytest.approx(0.5)

    def test_threshold_excludes_poor_targets(self) -> None:
        # the bound is $10,000: $12,000 is popular, $8,000 is not
        for income_eth, popular in ((6, 1), (4, 0)):
            target, tx = _rich("gold", income_eth)
            world = make_dataset([target, _catch("golb")], [tx], crawl_day=1200)
            report = find_typosquat_catches(world, FLAT)
            assert report.popular_targets == popular
            assert len(report.candidates) == popular

    def test_exact_match_not_a_typo(self) -> None:
        # a re-registration of the rich name itself is not typosquatting
        world = self._world()
        rich_caught = make_domain("gold2", [  # distinct id, same label trick
            make_registration("0xrich", 100, 465, ordinal=0),
            make_registration("0xnew", 600, 965, ordinal=1),
        ])
        rich_caught.label_name = "gold"
        rich_caught.name = "gold.eth"
        world.add_domain(rich_caught)
        report = find_typosquat_catches(world, FLAT)
        labels = {c.caught_label for c in report.candidates}
        assert "gold" not in labels

    def test_distance_two_screening(self) -> None:
        # "golbs" is two edits from "gold": not a typo at the one-edit bound
        target, tx = _rich("gold")
        world = make_dataset([target, _catch("golbs")], [tx], crawl_day=1200)
        report = find_typosquat_catches(world, FLAT)
        assert damerau_levenshtein("golbs", "gold") == 2
        assert report.popular_targets == 1
        assert report.catches_screened == 1
        assert report.candidates == ()

    def test_empty_dataset(self) -> None:
        report = find_typosquat_catches(make_dataset([]), FLAT)
        assert report.candidate_fraction == 0.0

    def test_numeric_pairs_excluded_by_default(self) -> None:
        # "153" is one edit from the popular "151", but both are digits
        target, tx = _rich("151")
        world = make_dataset([target, _catch("153")], [tx], crawl_day=1200)
        report = find_typosquat_catches(world, FLAT)
        assert report.popular_targets == 1
        assert report.catches_screened == 1
        assert report.candidates == ()
