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
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from operator import mul

from ..datasets.dataset import ENSDataset
from ..oracle.ethusd import EthUsdOracle
from .comparison import DomainFeatureRow, feature_rows_for
from .control import study_groups

__all__ = ["train_reregistration_predictor"]

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
) -> tuple[list[list[float]], list[float]]:
    """(X, y) over the re-registered (1) and control (0) groups."""
    reregistered, control = study_groups(dataset, seed=seed)
    rows = feature_rows_for(dataset, reregistered, oracle)
    rows += feature_rows_for(dataset, control, oracle)
    labels = [1.0] * len(reregistered) + [0.0] * len(control)
    return [_row_vector(row) for row in rows], labels


def _sigmoid(logit: float) -> float:
    return 1.0 / (1.0 + math.exp(-min(60.0, max(-60.0, logit))))


def _dot(left: Sequence[float], right: Sequence[float]) -> float:
    return sum(map(mul, left, right))


def _standardize(
    features: Sequence[Sequence[float]], means: list[float], scales: list[float]
) -> list[list[float]]:
    moments = list(zip(means, scales))
    return [
        [(float(x) - mean) / scale for x, (mean, scale) in zip(row, moments)]
        for row in features
    ]


@dataclass
class LogisticModel:
    """A trained, standardized logistic regression."""

    weights: list[float]         # per standardized feature
    bias: float
    feature_means: list[float]
    feature_scales: list[float]

    def predict_proba(self, features: Sequence[Sequence[float]]) -> list[float]:
        """P(re-registered) for each row of raw (unstandardized) features."""
        rows = _standardize(features, self.feature_means, self.feature_scales)
        return [_sigmoid(_dot(row, self.weights) + self.bias) for row in rows]

    def predict(
        self, features: Sequence[Sequence[float]], threshold: float = 0.5
    ) -> list[float]:
        """Binary predictions at ``threshold`` over the probabilities."""
        return [float(p >= threshold) for p in self.predict_proba(features)]

    def feature_weights(self) -> dict[str, float]:
        """Standardized weights keyed by feature name (interpretable)."""
        return dict(zip(FEATURE_NAMES, self.weights))

    @classmethod
    def fit(
        cls,
        features: Sequence[Sequence[float]],
        labels: Sequence[float],
        learning_rate: float = 0.5,
        epochs: int = 400,
        l2: float = 1e-3,
    ) -> "LogisticModel":
        """Full-batch gradient descent with L2 regularization."""
        if len(features) != len(labels) or len(features) == 0:
            raise ValueError("features and labels must be non-empty and aligned")
        targets = [float(label) for label in labels]
        count = len(targets)
        columns = [[float(x) for x in column] for column in zip(*features)]
        means = [sum(column) / count for column in columns]
        scales = [  # population std; a constant feature keeps scale 1
            math.sqrt(sum((value - mean) ** 2 for value in column) / count) or 1.0
            for column, mean in zip(columns, means)
        ]
        rows = _standardize(features, means, scales)
        columns = list(zip(*rows))
        weights, bias = [0.0] * len(columns), 0.0
        for _ in range(epochs):
            error = [
                _sigmoid(_dot(row, weights) + bias) - target
                for row, target in zip(rows, targets)
            ]
            weights = [
                weight - learning_rate * (_dot(column, error) / count + l2 * weight)
                for column, weight in zip(columns, weights)
            ]
            bias -= learning_rate * (sum(error) / count)
        return cls(weights, bias, means, scales)


@dataclass(frozen=True, slots=True)
class PredictionMetrics:
    """Held-out classification quality."""

    accuracy: float
    precision: float
    recall: float
    auc: float
    test_size: int


def _rank_auc(scores: Sequence[float], labels: Sequence[float]) -> float:
    """AUC via the Mann-Whitney rank statistic (ties get mid-ranks)."""
    scores = [float(score) for score in scores]
    ranks = [0.0] * len(scores)
    below = 0
    order = sorted(range(len(scores)), key=scores.__getitem__)  # stable
    for _, group in groupby(order, key=scores.__getitem__):
        tied = list(group)
        for index in tied:
            ranks[index] = below + (len(tied) + 1) / 2.0
        below += len(tied)
    positives = [rank for rank, label in zip(ranks, labels) if label == 1.0]
    n_pos, n_neg = len(positives), len(ranks) - len(positives)
    if n_pos == 0 or n_neg == 0:
        return 0.5
    return (sum(positives) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(
    model: LogisticModel, features: Sequence[Sequence[float]], labels: Sequence[float]
) -> PredictionMetrics:
    """Score a model on a held-out set."""
    labels = [float(label) for label in labels]
    probabilities = model.predict_proba(features)
    pairs = [(float(p >= 0.5), label) for p, label in zip(probabilities, labels)]
    true_positive = float(pairs.count((1.0, 1.0)))
    predicted_positive = true_positive + pairs.count((1.0, 0.0))
    actual_positive = true_positive + pairs.count((0.0, 1.0))
    return PredictionMetrics(
        accuracy=sum(predicted == label for predicted, label in pairs) / len(pairs),
        precision=true_positive / predicted_positive if predicted_positive else 0.0,
        recall=true_positive / actual_positive if actual_positive else 0.0,
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
    train = [features[i] for i in train_idx], [labels[i] for i in train_idx]
    test = [features[i] for i in test_idx], [labels[i] for i in test_idx]
    model = LogisticModel.fit(*train)
    metrics = evaluate(model, *test)
    return PredictorReport(model=model, metrics=metrics, train_size=len(train_idx))
