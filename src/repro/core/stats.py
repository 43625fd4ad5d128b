"""Statistical tests for the Table-1 comparison (§4.3).

The paper uses t-tests for numeric features and proportion tests for
categorical ones, at significance level 0.05. Both are implemented
from first principles (Welch's unequal-variance t-test with the
Welch–Satterthwaite degrees of freedom, and the pooled two-proportion
z-test); the test suite cross-checks them against scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["TestResult", "welch_t_test", "two_proportion_z_test"]

SIGNIFICANCE_LEVEL = 0.05


@dataclass(frozen=True, slots=True)
class TestResult:
    """Outcome of a two-sided hypothesis test."""

    statistic: float
    p_value: float
    test_name: str

    @property
    def significant(self) -> bool:
        """Whether ``p_value`` clears ``SIGNIFICANCE_LEVEL``."""
        return self.p_value < SIGNIFICANCE_LEVEL


def _mean_and_variance(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, variance


def _normal_sf(z: float) -> float:
    """Survival function of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _student_t_sf(t: float, df: float) -> float:
    """Survival function of Student's t via the incomplete beta function.

    P(T > t) = I_{df/(df+t^2)}(df/2, 1/2) / 2 for t >= 0.
    """
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    if t < 0:
        return 1.0 - _student_t_sf(-t, df)
    if df > 200:  # normal approximation is exact to ~1e-4 here
        return _normal_sf(t)
    x = df / (df + t * t)
    return 0.5 * _regularized_incomplete_beta(df / 2.0, 0.5, x)


def _regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the standard continued-fraction expansion."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's algorithm for the incomplete-beta continued fraction."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    return h  # converged well enough for p-value purposes


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> TestResult:
    """Two-sided Welch t-test for a difference in means."""
    if len(sample_a) < 2 or len(sample_b) < 2:
        raise ValueError("both samples need at least two observations")
    mean_a, var_a = _mean_and_variance(sample_a)
    mean_b, var_b = _mean_and_variance(sample_b)
    n_a, n_b = len(sample_a), len(sample_b)
    se_sq = var_a / n_a + var_b / n_b
    if se_sq == 0.0:
        # identical constant samples: no evidence of difference
        statistic = 0.0 if mean_a == mean_b else math.inf
        return TestResult(statistic, 0.0 if statistic else 1.0, "welch-t")
    statistic = (mean_a - mean_b) / math.sqrt(se_sq)
    df = se_sq**2 / (
        (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
    )
    p_value = 2.0 * _student_t_sf(abs(statistic), df)
    return TestResult(statistic, min(1.0, p_value), "welch-t")


def two_proportion_z_test(
    successes_a: int, n_a: int, successes_b: int, n_b: int
) -> TestResult:
    """Two-sided pooled z-test for a difference in proportions."""
    if n_a <= 0 or n_b <= 0:
        raise ValueError("both groups must be non-empty")
    if not (0 <= successes_a <= n_a and 0 <= successes_b <= n_b):
        raise ValueError("successes must lie within group sizes")
    p_a, p_b = successes_a / n_a, successes_b / n_b
    pooled = (successes_a + successes_b) / (n_a + n_b)
    se_sq = pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)
    if se_sq == 0.0:
        statistic = 0.0 if p_a == p_b else math.inf
        return TestResult(statistic, 0.0 if statistic else 1.0, "two-proportion-z")
    statistic = (p_a - p_b) / math.sqrt(se_sq)
    p_value = 2.0 * _normal_sf(abs(statistic))
    return TestResult(statistic, min(1.0, p_value), "two-proportion-z")
