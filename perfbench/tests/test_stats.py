"""Nearest-rank percentiles and the ten-beyond tail rule."""

import pytest

import stats
from workloads import Result, Timed


def test_nearest_rank_returns_a_sample():
    values = [float(v) for v in range(1, 11)]
    assert stats.nearest_rank(values, 50) == 5.0
    assert stats.nearest_rank(values, 90) == 9.0
    assert stats.nearest_rank(values, 91) == 10.0
    assert stats.nearest_rank(values, 100) == 10.0
    assert stats.nearest_rank(list(reversed(values)), 10) == 1.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0)


@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (99, None), (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_picks_highest_percentile_with_ten_beyond(count, expected):
    values = [float(v) for v in range(count)]
    tail = stats.tail(values)
    if expected is None:
        assert tail is None
    else:
        percentile, value = tail
        assert percentile == expected
        assert stats.beyond(count, percentile) >= stats.MIN_BEYOND
        assert sum(1 for v in values if v > value) >= stats.MIN_BEYOND


@pytest.mark.parametrize("count", [3, 40, 99])
def test_no_latency_tail_below_ten_beyond(count):
    result = Result()
    result.add_latency(
        [Timed(0.001, 0.001)] * count, [Timed(1.0, 1.0)], 50.0, tail_seconds=[0.001] * count
    )
    assert "latency_tail_ms" not in result.metrics
    assert result.metrics["latency_p50_ms"].samples == count


def test_latency_tail_reported_with_its_sample_count():
    result = Result()
    seconds = [i / 1000 for i in range(1, 1001)]
    result.add_latency(
        [Timed(s, s / 2) for s in seconds], [Timed(1.0, 1.0)], 50.0, tail_seconds=seconds
    )
    tail = result.metrics["latency_tail_ms"]
    assert tail.samples == 1000
    assert tail.value == pytest.approx(990.0)
    assert tail.note == "p99, 10 beyond, wall-clock"
    assert result.metrics["latency_p50_ms"].value == pytest.approx(250.25)
    assert result.metrics["latency_p50_wall_ms"].value == pytest.approx(500.5)


def test_no_tail_without_tail_samples():
    result = Result()
    result.add_latency([Timed(0.001, 0.001)] * 5000, [Timed(1.0, 1.0)], 50.0)
    assert "latency_tail_ms" not in result.metrics


def test_spread_is_interquartile_over_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, q2, q3 = stats.quartiles(values)
    assert q2 == 10.0
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10.0)

