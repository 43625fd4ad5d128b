"""Synthetic label generation with controllable lexical quality.

Every generated label belongs to a lexical class whose distribution is
what Table 1 measures: dictionary words, word compounds, brandish
names, pure numerics, digit-suffixed handles, hyphen/underscore
constructions, and random junk. A label's class also feeds its
*attractiveness* score — the quantity dropcatchers act on — mirroring
the paper's observation that short, memorable, dictionary names get
re-registered while digit-ridden and underscored ones rot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..datasets.wordlists import ADULT_WORDS, BRAND_NAMES, DICTIONARY_WORDS

__all__ = ["GeneratedName", "NameGenerator"]

_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiou"

# (class name, weight, attractiveness bonus)
_CLASS_TABLE: tuple[tuple[str, float, float], ...] = (
    ("dictionary", 0.07, 3.0),     # exact dictionary word: premium asset
    ("compound", 0.21, 1.6),       # word+word: memorable
    ("brandish", 0.015, 1.2),      # contains a brand
    ("adult", 0.008, 0.4),
    ("numeric", 0.135, 1.4),       # 000-style clubs hold value
    ("digit_mix", 0.20, -1.2),     # word+digits handles: poor resale
    ("hyphenated", 0.05, -0.8),
    ("underscored", 0.017, -1.5),
    ("typo", 0.015, 0.8),          # one edit off an earlier name (squat bait)
    ("random", 0.28, 0.0),
)


@dataclass(frozen=True, slots=True)
class GeneratedName:
    """A label plus its generation class and attractiveness score."""

    label: str
    lexical_class: str
    attractiveness: float


class NameGenerator:
    """Deterministic label factory (unique labels per instance)."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._seen: set[str] = set()
        self._dictionary = sorted(DICTIONARY_WORDS)
        self._brands = sorted(BRAND_NAMES)
        self._adult = sorted(ADULT_WORDS)
        self._classes = [row[0] for row in _CLASS_TABLE]
        self._weights = [row[1] for row in _CLASS_TABLE]
        self._bonus = {row[0]: row[2] for row in _CLASS_TABLE}

    # -- class constructors -------------------------------------------------

    def _syllables(self, count: int) -> str:
        rng = self._rng
        return "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(count)
        )

    def _make(self, lexical_class: str) -> str:
        rng = self._rng
        if lexical_class == "dictionary":
            return rng.choice(self._dictionary)
        if lexical_class == "compound":
            return rng.choice(self._dictionary) + rng.choice(self._dictionary)
        if lexical_class == "brandish":
            brand = rng.choice(self._brands)
            return brand + rng.choice(self._dictionary)
        if lexical_class == "adult":
            return rng.choice(self._adult) + rng.choice(("", "hub", "zone", "club"))
        if lexical_class == "numeric":
            digits = rng.choice((3, 3, 3, 4, 5))
            return "".join(rng.choice("0123456789") for _ in range(digits))
        if lexical_class == "digit_mix":
            word = rng.choice(self._dictionary)
            return word + str(rng.randrange(10, 99999))
        if lexical_class == "hyphenated":
            return rng.choice(self._dictionary) + "-" + rng.choice(self._dictionary)
        if lexical_class == "underscored":
            return rng.choice(self._dictionary) + "_" + rng.choice(self._dictionary)
        if lexical_class == "typo":
            return self._typo_of_existing()
        if lexical_class == "random":
            return self._syllables(rng.choice((2, 3, 3, 4)))
        raise ValueError(f"unknown lexical class {lexical_class!r}")

    def _typo_of_existing(self) -> str:
        """One edit (sub/del/ins/transpose) off an already-issued label."""
        rng = self._rng
        base = None
        for candidate in rng.sample(sorted(self._seen), min(12, len(self._seen))):
            if len(candidate) >= 4 and "-" not in candidate and "_" not in candidate:
                base = candidate
                break
        if base is None:
            base = rng.choice(self._dictionary) + rng.choice(self._dictionary)
        position = rng.randrange(len(base))
        operation = rng.choice(("sub", "del", "ins", "swap"))
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        if operation == "sub":
            return base[:position] + rng.choice(alphabet) + base[position + 1 :]
        if operation == "del":
            return base[:position] + base[position + 1 :]
        if operation == "ins":
            return base[:position] + rng.choice(alphabet) + base[position:]
        if position == len(base) - 1:
            position -= 1
        return (
            base[:position]
            + base[position + 1]
            + base[position]
            + base[position + 2 :]
        )

    # -- public API ----------------------------------------------------------

    def generate(self) -> GeneratedName:
        """Draw one unique label; appends a disambiguating suffix on clash."""
        rng = self._rng
        lexical_class = rng.choices(self._classes, weights=self._weights)[0]
        label = self._make(lexical_class)
        while label in self._seen:
            label = label + rng.choice("abcdefghijklmnopqrstuvwxyz")
        self._seen.add(label)
        attractiveness = self._bonus[lexical_class]
        # short names carry extra value (the "3 Letters Club" effect)
        if len(label) <= 4:
            attractiveness += 1.2
        elif len(label) <= 6:
            attractiveness += 0.5
        elif len(label) >= 12:
            attractiveness -= 0.8
        attractiveness += rng.gauss(0.0, 0.25)
        return GeneratedName(
            label=label, lexical_class=lexical_class, attractiveness=attractiveness
        )
