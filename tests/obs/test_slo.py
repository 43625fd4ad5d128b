"""SLOs: readings from metrics and spans, the built-in defaults."""

from __future__ import annotations

from repro.obs import MetricsRegistry, Tracer
from repro.obs.slo import SLO, default_slos, evaluate_slos


def _evaluate_one(slo: SLO, registry: MetricsRegistry, tracer=None):
    return evaluate_slos([slo], registry, tracer)[0]


class TestEvaluate:
    def test_counter_pass_and_fail(self) -> None:
        registry = MetricsRegistry()
        registry.counter("retries_total").inc(5)
        slo = SLO(name="few_retries", metric="retries_total", threshold=10.0)
        assert _evaluate_one(slo, registry).status == "pass"
        registry.counter("retries_total").inc(10)
        result = _evaluate_one(slo, registry)
        assert result.status == "fail"
        assert result.value == 15.0
        assert not result.passed

    def test_histogram_percentile_with_labels(self) -> None:
        registry = MetricsRegistry()
        hist = registry.histogram(
            "span_duration_seconds", "spans", labels=("span",)
        )
        for value in (0.1, 0.2, 5.0):
            hist.labels(span="shard.transactions").observe(value)
        slo = SLO(
            name="shard_p99",
            metric="span_duration_seconds",
            labels={"span": "shard.transactions"},
            objective="p99",
            threshold=1.0,
        )
        result = _evaluate_one(slo, registry)
        assert result.status == "fail"
        assert result.value == 5.0

    def test_span_metric_reads_tracer(self) -> None:
        ticks = iter([0.0, 42.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("crawl"):
            pass
        slo = SLO(name="wall", metric="span:crawl", threshold=60.0)
        result = _evaluate_one(slo, MetricsRegistry(), tracer)
        assert result.status == "pass"
        assert result.value == 42.0

    def test_missing_observable_is_no_data(self) -> None:
        slo = SLO(name="ghost", metric="nonexistent_total", threshold=1.0)
        result = _evaluate_one(slo, MetricsRegistry())
        assert result.status == "no_data"
        assert result.value is None
        assert result.passed  # neutral, not a failure

    def test_registries_searched_in_order(self) -> None:
        first, second = MetricsRegistry(), MetricsRegistry()
        second.counter("requests_total").inc(3)
        slo = SLO(name="req", metric="requests_total", threshold=5.0)
        results = evaluate_slos([slo], [first, second])
        assert results[0].value == 3.0

    def test_as_dict_carries_verdict(self) -> None:
        registry = MetricsRegistry()
        registry.counter("x_total").inc(2)
        slo = SLO(name="x", metric="x_total", threshold=1.0, labels={})
        payload = _evaluate_one(slo, registry).as_dict()
        assert payload["name"] == "x"
        assert payload["status"] == "fail"
        assert payload["value"] == 2.0
        assert payload["threshold"] == 1.0


class TestDefaults:
    def test_crawl_like_commands_share_objectives(self) -> None:
        assert default_slos("crawl") == default_slos("simulate")
        assert default_slos("crawl")

    def test_report_combines_crawl_and_analyze(self) -> None:
        names = {slo.name for slo in default_slos("report")}
        assert "crawl_wall_clock" in names
        assert "analyze_wall_clock" in names

    def test_unknown_command_has_no_objectives(self) -> None:
        assert default_slos("lint") == ()
