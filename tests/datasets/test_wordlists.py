"""Substring features of the word lists agree with a whole-list scan.

The ``contains_*`` helpers look each label substring of a word length
up in a set. The reference below is the plain definition: some word of
at least three letters occurs in the lower-cased label.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.wordlists import (
    ADULT_WORDS,
    BRAND_NAMES,
    DICTIONARY_WORDS,
    contains_adult_word,
    contains_brand_name,
    contains_dictionary_word,
)
from repro.simulation import ScenarioConfig, run_scenario

FEATURES = (
    (contains_dictionary_word, DICTIONARY_WORDS),
    (contains_brand_name, BRAND_NAMES),
    (contains_adult_word, ADULT_WORDS),
)


def _scan(label: str, words: frozenset[str]) -> bool:
    lowered = label.lower()
    return any(word in lowered for word in words if len(word) >= 3)


def _assert_parity(label: str) -> None:
    for feature, words in FEATURES:
        assert feature(label) == _scan(label, words), (feature.__name__, label)


@pytest.fixture(scope="module")
def crawled_labels() -> list[str]:
    world = run_scenario(ScenarioConfig(n_domains=120, seed=5))
    dataset, _ = world.run_crawl()
    return [
        domain.label_name
        for domain in dataset.iter_domains()
        if domain.label_name is not None
    ]


def test_every_crawled_label(crawled_labels) -> None:
    assert len(crawled_labels) >= 100
    for label in crawled_labels:
        _assert_parity(label)
    # the crawl exercises both answers of every feature but the adult one
    assert any(contains_dictionary_word(label) for label in crawled_labels)
    assert not all(contains_dictionary_word(label) for label in crawled_labels)


@pytest.mark.parametrize(
    "label",
    ["", "ab", "GOLD", "xGoogLex", "pizza-party", "Ümlaut-gold", "İpek", "cam4u", "ox"],
)
def test_directed_labels(label: str) -> None:
    _assert_parity(label)


_PIECES = st.sampled_from(
    sorted(DICTIONARY_WORDS | BRAND_NAMES | ADULT_WORDS)
    + ["-", "0", "42", "İ", "ß", "Ω", "é", "x", "AB"]
)


@given(
    st.one_of(
        st.text(max_size=24),
        st.lists(_PIECES, max_size=4).map("".join),
        st.lists(_PIECES, max_size=4).map(lambda parts: "".join(parts).upper()),
    )
)
@settings(max_examples=300, deadline=None)
def test_generated_labels(label: str) -> None:
    _assert_parity(label)
