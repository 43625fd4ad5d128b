"""Synthetic name generation: classes, uniqueness, validity."""

from __future__ import annotations

import random
from collections import Counter

from repro.ens.normalize import normalize_label
from repro.simulation import GeneratedName, NameGenerator


def _names(count: int, seed: int = 1) -> list[GeneratedName]:
    generator = NameGenerator(random.Random(seed))
    return [generator.generate() for _ in range(count)]


class TestNameGenerator:
    def test_labels_unique(self) -> None:
        names = _names(500)
        labels = [name.label for name in names]
        assert len(set(labels)) == 500

    def test_labels_valid_for_ens(self) -> None:
        for name in _names(300):
            normalize_label(name.label)  # raises InvalidName on an invalid label

    def test_deterministic(self) -> None:
        first = [n.label for n in _names(50, 7)]
        second = [n.label for n in _names(50, 7)]
        assert first == second

    def test_all_classes_appear(self) -> None:
        classes = Counter(n.lexical_class for n in _names(2000))
        for expected in ("dictionary", "compound", "numeric", "digit_mix",
                         "hyphenated", "underscored", "random"):
            assert classes[expected] > 0, expected

    def test_class_properties_hold(self) -> None:
        for name in _names(1000, 3):
            if name.lexical_class == "numeric":
                # may have a disambiguation letter appended on collision
                assert name.label.rstrip("abcdefghijklmnopqrstuvwxyz").isdigit()
            if name.lexical_class == "hyphenated":
                assert "-" in name.label
            if name.lexical_class == "underscored":
                assert "_" in name.label

    def test_attractiveness_ordering(self) -> None:
        names = _names(3000, 5)
        by_class: dict[str, list[float]] = {}
        for name in names:
            by_class.setdefault(name.lexical_class, []).append(name.attractiveness)
        mean = {k: sum(v) / len(v) for k, v in by_class.items() if len(v) > 5}
        # dictionary words must out-score digit-mixed and underscored junk
        assert mean["dictionary"] > mean["digit_mix"]
        assert mean["dictionary"] > mean["underscored"]
        assert mean["compound"] > mean["digit_mix"]
