"""Feature extraction for the Table-1 comparison."""

from ...datasets.wordlists import (
    ADULT_WORDS,
    BRAND_NAMES,
    DICTIONARY_WORDS,
    contains_adult_word,
    contains_brand_name,
    contains_dictionary_word,
    is_dictionary_word,
)
from .lexical import BOOLEAN_FEATURE_NAMES, extract_lexical
from .transactional import extract_transactional

__all__ = [
    "ADULT_WORDS",
    "BOOLEAN_FEATURE_NAMES",
    "BRAND_NAMES",
    "DICTIONARY_WORDS",
    "contains_adult_word",
    "contains_brand_name",
    "contains_dictionary_word",
    "extract_lexical",
    "extract_transactional",
    "is_dictionary_word",
]
