"""Re-registration risk prediction (extension).

The paper's DNS predecessor (Miramirkhani et al., WWW'18) trained a
classifier to predict which expiring domains would be dropcaught; this
module brings that extension to ENS: a from-scratch logistic regression
over the Table-1 features, trained on the re-registered-vs-control
groups, with a held-out evaluation (accuracy / precision / recall /
rank AUC) and interpretable per-feature weights.

The learned weights double as a sanity check of the whole pipeline —
income, dictionary membership, and shortness must come out positive;
digits, hyphens, underscores negative — mirroring Table 1's directions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ..datasets.dataset import ENSDataset
from ..oracle.ethusd import EthUsdOracle
from .comparison import DomainFeatureRow, feature_rows_for
from .control import study_groups

__all__ = [
    "LogisticModel",
    "build_feature_matrix",
    "train_reregistration_predictor",
]

FEATURE_NAMES: tuple[str, ...] = (
    "log_income_usd",
    "num_unique_senders",
    "num_transactions",
    "length",
    "contains_digit",
    "is_numeric",
    "contains_dictionary_word",
    "is_dictionary_word",
    "contains_brand_name",
    "contains_adult_word",
    "contains_hyphen",
    "contains_underscore",
)


def _row_vector(row: DomainFeatureRow) -> list[float]:
    return [
        math.log1p(max(0.0, row.income_usd)),
        float(row.num_unique_senders),
        float(row.num_transactions),
        float(row.length),
        float(row.contains_digit),
        float(row.is_numeric),
        float(row.contains_dictionary_word),
        float(row.is_dictionary_word),
        float(row.contains_brand_name),
        float(row.contains_adult_word),
        float(row.contains_hyphen),
        float(row.contains_underscore),
    ]


def build_feature_matrix(
    dataset: ENSDataset, oracle: EthUsdOracle, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) over the re-registered (1) and control (0) groups."""
    reregistered, control = study_groups(dataset, seed=seed)
    rows = feature_rows_for(dataset, reregistered, oracle)
    rows += feature_rows_for(dataset, control, oracle)
    labels = [1.0] * len(reregistered) + [0.0] * len(control)
    features = np.array([_row_vector(row) for row in rows], dtype=float)
    return features, np.array(labels, dtype=float)


@dataclass
class LogisticModel:
    """A trained, standardized logistic regression."""

    weights: np.ndarray          # per standardized feature
    bias: float
    feature_means: np.ndarray
    feature_scales: np.ndarray

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """P(re-registered) for each row of raw (unstandardized) features."""
        standardized = (features - self.feature_means) / self.feature_scales
        logits = standardized @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary predictions at ``threshold`` over the probabilities."""
        return (self.predict_proba(features) >= threshold).astype(float)

    def feature_weights(self) -> dict[str, float]:
        """Standardized weights keyed by feature name (interpretable)."""
        return dict(zip(FEATURE_NAMES, (float(w) for w in self.weights)))

    @classmethod
    def fit(
        cls,
        features: np.ndarray,
        labels: np.ndarray,
        learning_rate: float = 0.5,
        epochs: int = 400,
        l2: float = 1e-3,
    ) -> "LogisticModel":
        """Full-batch gradient descent with L2 regularization."""
        if len(features) != len(labels) or len(features) == 0:
            raise ValueError("features and labels must be non-empty and aligned")
        means = features.mean(axis=0)
        scales = features.std(axis=0)
        scales[scales == 0.0] = 1.0
        standardized = (features - means) / scales
        count, dims = standardized.shape
        weights = np.zeros(dims)
        bias = 0.0
        for _ in range(epochs):
            logits = standardized @ weights + bias
            probabilities = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
            error = probabilities - labels
            gradient = standardized.T @ error / count + l2 * weights
            bias_gradient = float(error.mean())
            weights -= learning_rate * gradient
            bias -= learning_rate * bias_gradient
        return cls(
            weights=weights,
            bias=bias,
            feature_means=means,
            feature_scales=scales,
        )


@dataclass(frozen=True, slots=True)
class PredictionMetrics:
    """Held-out classification quality."""

    accuracy: float
    precision: float
    recall: float
    auc: float
    test_size: int


def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC via the Mann-Whitney rank statistic (ties get mid-ranks)."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=float)
    sorted_scores = scores[order]
    index = 0
    position = 1.0
    while index < len(scores):
        tie_end = index
        while (
            tie_end + 1 < len(scores)
            and sorted_scores[tie_end + 1] == sorted_scores[index]
        ):
            tie_end += 1
        mid_rank = (position + position + (tie_end - index)) / 2.0
        for tie_index in range(index, tie_end + 1):
            ranks[order[tie_index]] = mid_rank
        position += tie_end - index + 1
        index = tie_end + 1
    positives = labels == 1.0
    n_pos = int(positives.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    rank_sum = ranks[positives].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(model: LogisticModel, features: np.ndarray, labels: np.ndarray) -> PredictionMetrics:
    """Score a model on a held-out set."""
    probabilities = model.predict_proba(features)
    predictions = (probabilities >= 0.5).astype(float)
    true_positive = float(((predictions == 1) & (labels == 1)).sum())
    false_positive = float(((predictions == 1) & (labels == 0)).sum())
    false_negative = float(((predictions == 0) & (labels == 1)).sum())
    accuracy = float((predictions == labels).mean())
    precision = (
        true_positive / (true_positive + false_positive)
        if true_positive + false_positive
        else 0.0
    )
    recall = (
        true_positive / (true_positive + false_negative)
        if true_positive + false_negative
        else 0.0
    )
    return PredictionMetrics(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        auc=_rank_auc(probabilities, labels),
        test_size=len(labels),
    )


@dataclass
class PredictorReport:
    """A trained predictor plus its held-out evaluation."""

    model: LogisticModel
    metrics: PredictionMetrics
    train_size: int

    def top_features(self, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` features with the largest absolute weights."""
        weights = self.model.feature_weights()
        return sorted(weights.items(), key=lambda item: -abs(item[1]))[:k]


def train_reregistration_predictor(
    dataset: ENSDataset,
    oracle: EthUsdOracle,
    test_fraction: float = 0.3,
    seed: int = 0,
) -> PredictorReport:
    """Train and evaluate the risk predictor on one dataset."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    features, labels = build_feature_matrix(dataset, oracle, seed=seed)
    indices = list(range(len(labels)))
    random.Random(seed).shuffle(indices)
    split = max(1, int(len(indices) * (1.0 - test_fraction)))
    train_idx, test_idx = indices[:split], indices[split:]
    if not test_idx:
        raise ValueError("dataset too small to hold out a test split")
    model = LogisticModel.fit(features[train_idx], labels[train_idx])
    metrics = evaluate(model, features[test_idx], labels[test_idx])
    return PredictorReport(model=model, metrics=metrics, train_size=len(train_idx))
