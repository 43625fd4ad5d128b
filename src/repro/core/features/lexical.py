"""Lexical features of ENS labels (Table 1, following Miramirkhani et al.)."""

from __future__ import annotations

from dataclasses import dataclass, fields

from ...datasets.wordlists import (
    contains_adult_word,
    contains_brand_name,
    contains_dictionary_word,
    is_dictionary_word,
)

__all__ = ["extract_lexical", "BOOLEAN_FEATURE_NAMES"]


@dataclass(frozen=True, slots=True)
class LexicalFeatures:
    """The lexical columns of Table 1 for one label."""

    length: int
    contains_digit: bool
    is_numeric: bool
    contains_dictionary_word: bool
    is_dictionary_word: bool
    contains_brand_name: bool
    contains_adult_word: bool
    contains_hyphen: bool
    contains_underscore: bool


BOOLEAN_FEATURE_NAMES: tuple[str, ...] = tuple(
    f.name for f in fields(LexicalFeatures) if f.type == "bool"
)


def extract_lexical(label: str) -> LexicalFeatures:
    """Compute every Table-1 lexical feature for one (bare) label.

    The label is taken as-is (already normalized lowercase); pass the
    second-level label, not the full dotted name.
    """
    is_numeric = label.isdigit() and len(label) > 0
    return LexicalFeatures(
        length=len(label),
        # Mixed alphanumerics only: Table 1 reports contains_digit (2.3%)
        # *below* is_numeric (13.9%) for re-registered names, so the
        # paper's feature necessarily excludes purely-numeric labels —
        # numeric "clubs" are valuable, digit-suffixed handles are not.
        contains_digit=(not is_numeric) and any(ch.isdigit() for ch in label),
        is_numeric=is_numeric,
        contains_dictionary_word=contains_dictionary_word(label),
        is_dictionary_word=is_dictionary_word(label),
        contains_brand_name=contains_brand_name(label),
        contains_adult_word=contains_adult_word(label),
        contains_hyphen="-" in label,
        contains_underscore="_" in label,
    )
