"""MetricsRegistry semantics: families, labels, histogram percentiles."""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricError, MetricsRegistry, global_registry
from repro.obs.metrics import Histogram


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry) -> None:
        counter = registry.counter("requests_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self, registry) -> None:
        counter = registry.counter("requests_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_reregistration_returns_same_sample(self, registry) -> None:
        registry.counter("hits_total").inc()
        assert registry.counter("hits_total").value == 1.0

    def test_kind_conflict_raises(self, registry) -> None:
        registry.counter("thing")
        with pytest.raises(MetricError):
            registry.gauge("thing")

    def test_invalid_name_rejected(self, registry) -> None:
        with pytest.raises(MetricError):
            registry.counter("bad name!")


class TestLabels:
    def test_same_values_same_sample(self, registry) -> None:
        family = registry.counter("rpc_total", labels=("client",))
        family.labels(client="explorer").inc()
        family.labels(client="explorer").inc()
        family.labels(client="subgraph").inc()
        assert registry.value("rpc_total", client="explorer") == 2.0
        assert registry.value("rpc_total", client="subgraph") == 1.0

    def test_label_order_never_matters(self, registry) -> None:
        family = registry.counter("io_total", labels=("op", "client"))
        family.labels(op="read", client="a").inc()
        assert family.labels(client="a", op="read").value == 1.0

    def test_unknown_label_rejected(self, registry) -> None:
        family = registry.counter("rpc_total", labels=("client",))
        with pytest.raises(MetricError):
            family.labels(clientt="typo")
        with pytest.raises(MetricError):
            family.labels(client="x", extra="y")

    def test_label_set_conflict_raises(self, registry) -> None:
        registry.counter("rpc_total", labels=("client",))
        with pytest.raises(MetricError):
            registry.counter("rpc_total", labels=("op",))

    def test_labelled_family_has_no_default_sample(self, registry) -> None:
        family = registry.counter("rpc_total", labels=("client",))
        with pytest.raises(MetricError):
            family.default

    def test_values_coerced_to_strings(self, registry) -> None:
        family = registry.gauge("size", labels=("shard",))
        family.labels(shard=3).set(7)
        assert registry.value("size", shard="3") == 7.0

    def test_untouched_sample_reads_zero(self, registry) -> None:
        registry.counter("rpc_total", labels=("client",))
        assert registry.value("rpc_total", client="never") == 0.0
        assert registry.value("no_such_metric") == 0.0


class TestGauge:
    def test_set_inc_dec(self, registry) -> None:
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0


class TestHistogram:
    def test_count_sum_mean(self, registry) -> None:
        histogram = registry.histogram("latency_seconds")
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.6)
        assert histogram.mean == pytest.approx(0.2)

    def test_percentiles_nearest_rank(self, registry) -> None:
        histogram = registry.histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in range(1, 101):  # 1..100
            histogram.observe(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(90) == 90
        assert histogram.percentile(99) == 99
        assert histogram.percentile(100) == 100
        assert histogram.percentile(0) == 1

    def test_percentile_of_empty_is_nan(self, registry) -> None:
        histogram = registry.histogram("h")
        assert math.isnan(histogram.percentile(50))
        assert math.isnan(histogram.mean)

    def test_percentile_range_validated(self, registry) -> None:
        histogram = registry.histogram("h")
        with pytest.raises(MetricError):
            histogram.percentile(101)

    def test_cumulative_buckets(self) -> None:
        histogram = Histogram(buckets=(1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 99.0):
            histogram.observe(value)
        assert histogram.cumulative_buckets() == [
            (1.0, 2), (5.0, 3), (math.inf, 4),
        ]

    def test_unsorted_buckets_rejected(self) -> None:
        with pytest.raises(MetricError):
            Histogram(buckets=(5.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            max_size=60,
        ),
        st.integers(min_value=0, max_value=100),
    )
    def test_reads_equal_a_list_of_observations(self, values, p) -> None:
        histogram = Histogram(buckets=(-1.0, 0.0, 0.5, 10.0))
        for value in values:
            histogram.observe(value)
        assert histogram.values == tuple(values)
        assert histogram.count == len(values)
        total = 0.0
        for value in values:
            total += value
        assert histogram.sum == total
        ordered = sorted(values)
        if ordered:
            rank = max(1, math.ceil(p / 100.0 * len(ordered)))
            assert histogram.percentile(p) == ordered[rank - 1]
        else:
            assert math.isnan(histogram.percentile(p))
        expected = [
            (upper, sum(1 for value in values if value <= upper))
            for upper in (-1.0, 0.0, 0.5, 10.0)
        ] + [(math.inf, len(values))]
        assert histogram.cumulative_buckets() == expected

    def test_observations_cost_eight_bytes_each(self) -> None:
        """A resident server observes every request: 100,000
        observations stay under 1 MB (a list of floats takes ~3.2 MB)."""
        histogram = Histogram()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(100_000):
                histogram.observe(index * 1e-6)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert histogram.count == 100_000
        assert grown < 1_000_000, grown


class TestRegistryExportShape:
    def test_as_dict_snapshot(self, registry) -> None:
        registry.counter("a_total", "help text").inc(3)
        registry.histogram("b_seconds").observe(0.2)
        snapshot = registry.as_dict()
        assert snapshot["a_total"]["type"] == "counter"
        assert snapshot["a_total"]["help"] == "help text"
        assert snapshot["a_total"]["samples"][0]["value"] == 3.0
        histogram = snapshot["b_seconds"]["samples"][0]
        assert histogram["count"] == 1
        assert histogram["p50"] == pytest.approx(0.2)

    def test_families_sorted_by_name(self, registry) -> None:
        registry.counter("zzz")
        registry.counter("aaa")
        assert [family.name for family in registry.families()] == ["aaa", "zzz"]


class TestGlobalRegistry:
    def test_is_a_singleton(self) -> None:
        assert global_registry() is global_registry()

    def test_keccak_counters_registered(self) -> None:
        from repro.chain.crypto.keccak import keccak_256

        before = global_registry().value("keccak_digests_total")
        keccak_256(b"observability")
        after = global_registry().value("keccak_digests_total")
        assert after == before + 1
