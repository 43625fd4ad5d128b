"""Lexical and transactional feature extraction (Table 1 inputs)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import (
    extract_lexical,
    extract_transactional,
    is_dictionary_word,
)
from repro.oracle import EthUsdOracle

from .helpers import make_dataset, make_domain, make_registration, make_tx

FLAT = EthUsdOracle(anchors=(("2019-01-01", 2000.0),), noise_amplitude=0.0)


class TestLexical:
    def test_plain_word(self) -> None:
        features = extract_lexical("gold")
        assert features.length == 4
        assert features.is_dictionary_word
        assert features.contains_dictionary_word
        assert not features.contains_digit
        assert not features.is_numeric

    def test_numeric(self) -> None:
        # pure numerics are NOT counted by contains_digit (see Table 1:
        # is_numeric exceeds contains_digit for re-registered names)
        features = extract_lexical("000")
        assert features.is_numeric
        assert not features.contains_digit

    def test_digit_mix_not_numeric(self) -> None:
        features = extract_lexical("gold123")
        assert features.contains_digit
        assert not features.is_numeric
        assert features.contains_dictionary_word
        assert not features.is_dictionary_word

    def test_hyphen_underscore(self) -> None:
        assert extract_lexical("a-b").contains_hyphen
        assert extract_lexical("a_b").contains_underscore

    def test_brand_and_adult(self) -> None:
        assert extract_lexical("cryptogoogle").contains_brand_name
        assert extract_lexical("pornsite").contains_adult_word
        assert not extract_lexical("innocent").contains_adult_word

    def test_empty_label(self) -> None:
        features = extract_lexical("")
        assert features.length == 0
        assert not features.is_numeric
        assert not features.is_dictionary_word

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, label: str) -> None:
        features = extract_lexical(label)
        assert features.length == len(label)
        if features.is_numeric:
            assert not features.contains_digit  # mutually exclusive
        if features.contains_digit:
            assert any(ch.isdigit() for ch in label)
        if features.is_dictionary_word:
            assert features.contains_dictionary_word
            assert is_dictionary_word(label)


class TestTransactional:
    def _setup(self):
        domain = make_domain("gold", [make_registration("0xowner", 100, 465)])
        txs = [
            make_tx("0xs1", "0xowner", 150, value_wei=10**18),
            make_tx("0xs2", "0xowner", 200, value_wei=2 * 10**18),
            make_tx("0xs1", "0xowner", 300, value_wei=10**18),
            make_tx("0xs3", "0xowner", 500, value_wei=5 * 10**18),   # after expiry
            make_tx("0xs4", "0xowner", 50, value_wei=5 * 10**18),    # before reg
            make_tx("0xowner", "0xs1", 160, value_wei=10**18),       # outgoing
        ]
        return make_dataset([domain], txs), domain

    def test_window_filtering(self) -> None:
        dataset, domain = self._setup()
        features = extract_transactional(dataset, domain.registrations[0], FLAT)
        assert features.num_transactions == 3
        assert features.num_unique_senders == 2
        assert features.income_usd == pytest.approx(4 * 2000.0)

    def test_window_includes_registration_and_expiry(self) -> None:
        domain = make_domain("gold", [make_registration("0xowner", 100, 465)])
        txs = [
            make_tx("0xs1", "0xowner", 99),    # the day before registration
            make_tx("0xs2", "0xowner", 100),   # at registration
            make_tx("0xs3", "0xowner", 465),   # at expiry
            make_tx("0xs4", "0xowner", 466),   # the day after expiry
        ]
        dataset = make_dataset([domain], txs)
        features = extract_transactional(dataset, domain.registrations[0], FLAT)
        assert features.num_transactions == 2
        assert features.num_unique_senders == 2

    def test_no_income(self) -> None:
        domain = make_domain("quiet", [make_registration("0xq", 100, 465)])
        dataset = make_dataset([domain])
        features = extract_transactional(dataset, domain.registrations[0], FLAT)
        assert features.income_usd == 0.0
        assert features.num_transactions == 0

    def test_failed_txs_excluded(self) -> None:
        domain = make_domain("gold", [make_registration("0xowner", 100, 465)])
        txs = [make_tx("0xs1", "0xowner", 150, is_error=True)]
        dataset = make_dataset([domain], txs)
        features = extract_transactional(dataset, domain.registrations[0], FLAT)
        assert features.num_transactions == 0
