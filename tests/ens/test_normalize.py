"""Name normalization/validation rules."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.errors import InvalidName
from repro.ens import (
    is_valid_label,
    normalize_label,
    normalize_name,
    registrable_label,
    split_name,
)


class TestNormalizeLabel:
    def test_lowercases(self) -> None:
        assert normalize_label("GoLD") == "gold"

    def test_allows_digits_hyphen_underscore(self) -> None:
        assert normalize_label("a-b_c1") == "a-b_c1"

    @pytest.mark.parametrize("bad", ["", "has space", "dot.dot", "a!b"])
    def test_rejects_bad_labels(self, bad: str) -> None:
        with pytest.raises(InvalidName):
            normalize_label(bad)

    def test_rejects_xn_style_hyphens(self) -> None:
        with pytest.raises(InvalidName):
            normalize_label("xn--punycode")
        # hyphens elsewhere are fine
        assert normalize_label("a-b--c") == "a-b--c"

    def test_is_valid_label_mirror(self) -> None:
        assert is_valid_label("gold")
        assert not is_valid_label("bad label")


class TestUnicodeLabels:
    def test_single_script_accepted(self) -> None:
        assert normalize_label("золото") == "золото"      # Cyrillic
        # Greek: casefold maps the final sigma ς to σ
        assert normalize_label("χρυσός") == "χρυσόσ"
        assert normalize_label("émoji") == "émoji"        # Latin with accent

    def test_casefold_applies(self) -> None:
        assert normalize_label("ЗОЛОТО") == "золото"

    def test_nfc_normalization(self) -> None:
        # e + combining acute composes to é
        decomposed = "émoji"
        assert normalize_label(decomposed) == "émoji"
        from repro.ens import namehash

        assert namehash(decomposed + ".eth") == namehash("émoji.eth")

    def test_mixed_script_rejected(self) -> None:
        # the classic confusable: Latin g-l-d with a Cyrillic о
        with pytest.raises(InvalidName, match="mixes"):
            normalize_label("gоld")

    def test_two_nonlatin_scripts_rejected(self) -> None:
        with pytest.raises(InvalidName, match="mixes scripts"):
            normalize_label("золοто")  # Cyrillic + Greek omicron

    def test_digits_ride_along(self) -> None:
        assert normalize_label("золото99") == "золото99"

    def test_symbols_rejected(self) -> None:
        with pytest.raises(InvalidName):
            normalize_label("gold❤")  # heart symbol (emoji out of scope)

    def test_cjk_interleaving_allowed(self) -> None:
        assert normalize_label("日本語のテスト")  # kanji + katakana


class TestNormalizeName:
    def test_multi_label(self) -> None:
        assert normalize_name("Pay.GOLD.eth") == "pay.gold.eth"

    def test_empty_label_rejected(self) -> None:
        with pytest.raises(InvalidName):
            normalize_name("gold..eth")
        with pytest.raises(InvalidName):
            normalize_name(".eth")

    def test_split_name(self) -> None:
        assert split_name("pay.gold.eth") == ["pay", "gold", "eth"]


class TestRegistrableLabel:
    def test_accepts_bare_label(self) -> None:
        assert registrable_label("gold") == "gold"

    def test_accepts_2ld(self) -> None:
        assert registrable_label("GOLD.eth") == "gold"

    def test_rejects_subdomain(self) -> None:
        with pytest.raises(InvalidName):
            registrable_label("pay.gold.eth")

    def test_rejects_non_eth_tld(self) -> None:
        with pytest.raises(InvalidName):
            registrable_label("gold.com")

    def test_rejects_short_labels(self) -> None:
        with pytest.raises(InvalidName):
            registrable_label("ab")
        assert registrable_label("abc") == "abc"

    @pytest.mark.parametrize("bad", ["ab", "pay.gold.eth", "gold.com", "has space"])
    def test_memo_never_caches_a_rejection(self, bad: str) -> None:
        for _ in range(3):
            with pytest.raises(InvalidName):
                registrable_label(bad)


def test_http_paths_never_reach_a_memo() -> None:
    """The serve layer canonicalizes untrusted paths with the unmemoized
    ``normalize_name``; no request may grow the ENS memos."""
    from repro.ens.namehash import _handoff, child_node, labelhash, namehash
    from repro.serve.query import canonical_query

    memos = (namehash, registrable_label, labelhash, child_node)
    before = [memo.cache_info().currsize for memo in memos]
    for i in range(1_000):
        assert canonical_query(f"/domain/Visitor{i}.eth") == f"/domain/visitor{i}.eth"
    assert [memo.cache_info().currsize for memo in memos] == before
    assert _handoff.digests == {}
    # the functions HTTP input does reach hold no memo at all
    assert not hasattr(normalize_name, "cache_info")
    assert not hasattr(normalize_label, "cache_info")


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=3, max_size=20))
@settings(max_examples=50, deadline=None)
def test_normalization_idempotent(label: str) -> None:
    assert normalize_label(normalize_label(label)) == normalize_label(label)
