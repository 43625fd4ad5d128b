"""Order statistics the benchmark reports.

Pure functions over lists of floats, importable without the program
under test (the benchmark's own tests exercise them directly).
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: Tail percentiles tried from the highest down; the first one with at
#: least :data:`MIN_BEYOND` samples above it is reported.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(values: list[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile: the ``ceil(p/100 * n)``-th
    smallest value (1-based), so the result is always a real sample."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return sorted(values)[_rank(len(values), p) - 1]


def _rank(count: int, p: float) -> int:
    """1-based nearest rank, computed exactly (``0.999 * 10000`` is not
    ``9990`` in binary floating point)."""
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``p``-th."""
    return count - _rank(count, p)


def tail(values: list[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest ladder percentile that has at
    least :data:`MIN_BEYOND` samples beyond it, or ``None`` when too few
    samples support any tail."""
    for p in TAIL_LADDER:
        if beyond(len(values), p) >= MIN_BEYOND:
            return p, nearest_rank(values, p)
    return None


def median(values: list[float]) -> float:
    """The sample median (mean of the middle two for even counts)."""
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
