"""The re-registration risk predictor (extension)."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.prediction import (
    FEATURE_NAMES,
    LogisticModel,
    PredictionMetrics,
    _rank_auc,
    build_feature_matrix,
    evaluate,
    train_reregistration_predictor,
)
from repro.oracle import EthUsdOracle

from .helpers import make_dataset, make_domain, make_registration, make_tx

FLAT = EthUsdOracle(anchors=(("2019-01-01", 2000.0),), noise_amplitude=0.0)


def _separable_world(n_per_class: int = 30):
    """Caught = rich dictionary names; expired-only = broke junk names."""
    domains, txs = [], []
    words = ["gold", "silver", "dragon", "rocket", "wizard", "falcon"]
    for i in range(n_per_class):
        label = words[i % len(words)] + "abcdefghij"[i // len(words) % 10]
        domains.append(make_domain(label, [
            make_registration(f"0xa{i}", 100, 465, ordinal=0),
            make_registration(f"0xb{i}", 600, 965, ordinal=1),
        ]))
        for day in (200, 250, 300):
            txs.append(make_tx(f"0xs{i}{day}", f"0xa{i}", day, value_wei=20 * 10**18))
    for i in range(n_per_class):
        label = f"zk{i}qx_99-w"
        domains.append(
            make_domain(label, [make_registration(f"0xe{i}", 100, 465)])
        )
        txs.append(make_tx(f"0xt{i}", f"0xe{i}", 200, value_wei=10**17))
    return make_dataset(domains, txs, crawl_day=2000)


class TestLogisticModel:
    def test_learns_a_separable_problem(self) -> None:
        rng = np.random.default_rng(0)
        x0 = rng.normal(-2.0, 0.5, size=(100, 3))
        x1 = rng.normal(2.0, 0.5, size=(100, 3))
        features = np.vstack([x0, x1])
        labels = np.array([0.0] * 100 + [1.0] * 100)
        model = LogisticModel.fit(features, labels)
        metrics = evaluate(model, features, labels)
        assert metrics.accuracy > 0.95
        assert metrics.auc > 0.98

    def test_probabilities_in_unit_interval(self) -> None:
        features = np.array([[0.0], [100.0], [-100.0]])
        labels = np.array([0.0, 1.0, 0.0])
        model = LogisticModel.fit(features, labels, epochs=50)
        probabilities = model.predict_proba(features)
        assert all(0 <= probability <= 1 for probability in probabilities)

    def test_constant_feature_does_not_crash(self) -> None:
        features = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        model = LogisticModel.fit(features, labels)
        assert np.isfinite(model.predict_proba(features)).all()

    def test_empty_input_rejected(self) -> None:
        with pytest.raises(ValueError):
            LogisticModel.fit(np.zeros((0, 2)), np.zeros(0))


class TestRankAuc:
    def test_perfect_ranking(self) -> None:
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        assert _rank_auc(scores, labels) == pytest.approx(1.0)

    def test_inverted_ranking(self) -> None:
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        assert _rank_auc(scores, labels) == pytest.approx(0.0)

    def test_ties_give_half(self) -> None:
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        assert _rank_auc(scores, labels) == pytest.approx(0.5)

    def test_single_class_is_half(self) -> None:
        assert _rank_auc(np.array([0.1, 0.9]), np.array([1.0, 1.0])) == 0.5


class TestEndToEnd:
    def test_feature_matrix_shape(self) -> None:
        dataset = _separable_world()
        features, labels = build_feature_matrix(dataset, FLAT)
        assert [len(row) for row in features] == [12] * 60
        assert sum(labels) == 30

    def test_predictor_separates_clean_world(self) -> None:
        dataset = _separable_world()
        report = train_reregistration_predictor(dataset, FLAT, seed=3)
        assert report.metrics.auc > 0.9
        assert report.metrics.accuracy > 0.8

    def test_weights_match_table1_directions(self) -> None:
        dataset = _separable_world()
        report = train_reregistration_predictor(dataset, FLAT, seed=3)
        weights = report.model.feature_weights()
        assert weights["log_income_usd"] > 0
        assert weights["contains_dictionary_word"] > 0
        assert weights["contains_underscore"] < 0
        assert weights["contains_digit"] < 0
        # is_dictionary_word is constant (False) in this fixture, so its
        # standardized weight must stay exactly zero
        assert weights["is_dictionary_word"] == 0.0

    def test_test_fraction_validated(self) -> None:
        dataset = _separable_world()
        with pytest.raises(ValueError):
            train_reregistration_predictor(dataset, FLAT, test_fraction=0.0)

    def test_results_are_builtin_floats(self) -> None:
        dataset = _separable_world()
        report = train_reregistration_predictor(dataset, FLAT, seed=3)
        weights = report.model.feature_weights()
        assert list(weights) == list(FEATURE_NAMES)
        metrics = [
            getattr(report.metrics, field.name)
            for field in fields(PredictionMetrics)
            if field.type == "float"
        ]
        assert len(metrics) == 4
        assert all(type(value) is float for value in [*metrics, *weights.values()])

    def test_top_features_sorted_by_magnitude(self) -> None:
        dataset = _separable_world()
        report = train_reregistration_predictor(dataset, FLAT, seed=3)
        magnitudes = [abs(weight) for _, weight in report.top_features(12)]
        assert magnitudes == sorted(magnitudes, reverse=True)
