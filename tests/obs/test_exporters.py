"""Exporters: Prometheus golden file, strict-JSON metric snapshots."""

from __future__ import annotations

from repro.obs import (
    MetricsRegistry,
    metrics_to_dict,
    prometheus_text,
    sanitize_metric_name,
)
from repro.obs.exporters import sanitize_non_finite

# The exporter promises deterministic output: families sorted by name,
# samples by label values, canonical float formatting. This golden text
# is that promise — update it only deliberately.
GOLDEN_PROMETHEUS = """\
# HELP crawler_requests_total API calls issued
# TYPE crawler_requests_total counter
crawler_requests_total{client="explorer"} 7
crawler_requests_total{client="subgraph"} 3
# HELP queue_depth Items waiting
# TYPE queue_depth gauge
queue_depth 2.5
# HELP stage_seconds Stage durations
# TYPE stage_seconds histogram
stage_seconds_bucket{le="0.1"} 1
stage_seconds_bucket{le="1"} 3
stage_seconds_bucket{le="+Inf"} 4
stage_seconds_sum 7.85
stage_seconds_count 4
"""


def _golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter(
        "crawler_requests_total", "API calls issued", labels=("client",)
    )
    requests.labels(client="subgraph").inc(3)
    requests.labels(client="explorer").inc(7)
    registry.gauge("queue_depth", "Items waiting").set(2.5)
    histogram = registry.histogram(
        "stage_seconds", "Stage durations", buckets=(0.1, 1.0)
    )
    for value in (0.05, 0.3, 0.5, 7.0):
        histogram.observe(value)
    return registry


class TestPrometheusText:
    def test_matches_golden_file(self) -> None:
        assert prometheus_text(_golden_registry()) == GOLDEN_PROMETHEUS

    def test_is_deterministic_across_insert_order(self) -> None:
        registry = MetricsRegistry()
        requests = registry.counter(
            "crawler_requests_total", "API calls issued", labels=("client",)
        )
        # reversed insertion order vs the golden registry
        requests.labels(client="explorer").inc(7)
        requests.labels(client="subgraph").inc(3)
        lines = prometheus_text(registry).splitlines()
        assert lines[2] == 'crawler_requests_total{client="explorer"} 7'
        assert lines[3] == 'crawler_requests_total{client="subgraph"} 3'

    def test_nan_gauge_rendered_as_nan(self) -> None:
        registry = MetricsRegistry()
        registry.gauge("rate").set(float("nan"))
        assert "rate NaN" in prometheus_text(registry)


class TestExpositionCompliance:
    """The subset of the Prometheus exposition format a scraper parses."""

    def test_label_values_escape_backslash_quote_newline(self) -> None:
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", labels=("path",))
        counter.labels(path='a\\b"c\nd').inc()
        line = [
            l for l in prometheus_text(registry).splitlines()
            if l.startswith("hits_total{")
        ][0]
        assert line == 'hits_total{path="a\\\\b\\"c\\nd"} 1'
        # the escaped line must stay a single physical line
        assert "\n" not in line

    def test_help_text_escapes_newlines(self) -> None:
        registry = MetricsRegistry()
        registry.counter("x_total", "line one\nline two").inc()
        text = prometheus_text(registry)
        assert "# HELP x_total line one\\nline two" in text

    def test_histogram_exposes_inf_bucket_sum_and_count(self) -> None:
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "latency", buckets=(0.5,))
        for value in (0.1, 0.7, 2.0):
            hist.observe(value)
        lines = prometheus_text(registry).splitlines()
        assert 'lat_seconds_bucket{le="0.5"} 1' in lines
        # the +Inf bucket is cumulative: every observation lands in it
        assert 'lat_seconds_bucket{le="+Inf"} 3' in lines
        assert "lat_seconds_sum 2.8" in lines
        assert "lat_seconds_count 3" in lines

    def test_histogram_bucket_counts_are_monotone(self) -> None:
        registry = MetricsRegistry()
        hist = registry.histogram("d_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in prometheus_text(registry).splitlines()
            if line.startswith("d_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4


class TestSanitizeMetricName:
    def test_legal_names_pass_through(self) -> None:
        assert sanitize_metric_name("crawl_requests_total") == (
            "crawl_requests_total"
        )
        assert sanitize_metric_name("ns:subsystem_total") == (
            "ns:subsystem_total"
        )

    def test_illegal_characters_become_underscores(self) -> None:
        assert sanitize_metric_name("shard.transactions") == (
            "shard_transactions"
        )
        assert sanitize_metric_name("task[0]") == "task_0_"

    def test_leading_digit_gets_prefixed(self) -> None:
        assert sanitize_metric_name("3_transactions") == "_3_transactions"

    def test_empty_name_becomes_underscore(self) -> None:
        assert sanitize_metric_name("") == "_"

    def test_exporter_applies_sanitization(self) -> None:
        # the registry validates names at registration, so smuggle in a
        # family the way an out-of-band producer (merged snapshot from
        # an older schema) could: the exporter must still emit legally
        from repro.obs.metrics import MetricFamily

        registry = MetricsRegistry()
        family = MetricFamily("weird.name-total", "counter", "", ())
        family.default.inc()
        registry._families["weird.name-total"] = family
        assert "weird_name_total 1" in prometheus_text(registry)


class TestMetricsToDict:
    def test_merges_registries(self) -> None:
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("a_total").inc()
        second.counter("b_total").inc(2)
        merged = metrics_to_dict(first, second)
        assert merged["a_total"]["samples"][0]["value"] == 1.0
        assert merged["b_total"]["samples"][0]["value"] == 2.0

    def test_non_finite_values_become_none(self) -> None:
        registry = MetricsRegistry()
        registry.gauge("rate").set(float("nan"))
        registry.histogram("empty_seconds")
        snapshot = metrics_to_dict(registry)
        assert snapshot["rate"]["samples"][0]["value"] is None
        assert snapshot["empty_seconds"]["samples"][0]["p50"] is None


class TestSanitizeNonFinite:
    def test_walks_dicts_lists_and_tuples(self) -> None:
        value = {"a": [1.0, float("inf")], "b": (float("-inf"), {"c": float("nan")})}
        assert sanitize_non_finite(value) == {"a": [1.0, None], "b": [None, {"c": None}]}

    def test_finite_scalars_pass_through(self) -> None:
        assert sanitize_non_finite(("x", 2, 0.5, None, True)) == ["x", 2, 0.5, None, True]
