"""Worker telemetry survives the process boundary: full registry + spans.

The regression this file pins: worker gauge and histogram state used to
be silently dropped on merge (only counters were folded). The capture
channel now ships the *whole* registry snapshot plus the finished span
tree, and the parent merges both.
"""

from __future__ import annotations

from repro.obs import MetricsRegistry, Tracer
from repro.obs.spanmerge import TelemetrySink
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    accumulate_registry,
    worker_telemetry,
)

WORKERS = 4


# Worker functions must be module-level (picklable) and pure.
def _observe(shared: float, item: int) -> int:
    """Touch every instrument kind inside the worker's telemetry."""
    telemetry = worker_telemetry()
    telemetry.registry.counter("effort_total").inc(item)
    telemetry.registry.gauge("last_item").set(float(item))
    telemetry.registry.histogram("item_seconds", buckets=(1.0, 10.0)).observe(
        shared * item
    )
    with telemetry.tracer.span("work", item=item):
        pass
    return item


def _run(executor) -> tuple[MetricsRegistry, Tracer, TelemetrySink]:
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry)
    sink = TelemetrySink(registry=registry, tracer=tracer)
    executor.telemetry_sink = sink
    items = [1, 2, 3, 4, 5]
    try:
        with tracer.span("stage"):
            results = dict(executor.run_stream(_observe, 0.5, items))
    finally:
        executor.telemetry_sink = None
    assert sorted(results.values()) == items
    return registry, tracer, sink


class TestWorkerStateSurvivesMerge:
    def test_counters_gauges_histograms_at_workers_4(self) -> None:
        """The satellite regression: at workers=4 the merged registry
        must hold the workers' gauge and histogram samples, not just
        counters."""
        registry, _, _ = _run(ProcessExecutor(WORKERS))
        assert registry.value("effort_total") == 15
        # gauge: last-write-wins by task index — the worker that ran
        # item index 4 (value 5) wins under any completion order
        assert registry.value("last_item") == 5.0
        family = registry.get("item_seconds")
        sample = family.samples[()]
        assert sample.count == 5
        assert sample.sum == 0.5 * 15
        # raw observations survive, so exact percentiles still work
        assert sample.percentile(100) == 2.5

    def test_serial_executor_merges_identically(self) -> None:
        """Every exported aggregate matches serial execution; only the
        arrival order of raw observations (never exported) may differ."""
        parallel_registry, _, _ = _run(ProcessExecutor(WORKERS))
        serial_registry, _, _ = _run(SerialExecutor())
        for name in ("effort_total", "last_item"):
            assert serial_registry.value(name) == parallel_registry.value(name)
        serial = serial_registry.get("item_seconds").samples[()]
        parallel = parallel_registry.get("item_seconds").samples[()]
        assert sorted(serial.values) == sorted(parallel.values)
        assert serial.cumulative_buckets() == parallel.cumulative_buckets()


class TestSpanGrafting:
    def test_worker_spans_graft_under_the_open_parent_span(self) -> None:
        _, tracer, _ = _run(ProcessExecutor(WORKERS))
        stage = tracer.find("stage")
        task_spans = [
            child for child in stage.children if child.name.startswith("task[")
        ]
        assert len(task_spans) == 5
        names = {span.name for span in task_spans}
        assert names == {f"task[{i}]" for i in range(5)}
        # parentage: each task root holds the worker's inner span
        for span in task_spans:
            assert [c.name for c in span.children] == ["work"]
            assert span.duration is not None
            assert span.children[0].duration is not None

    def test_grafted_instants_live_on_the_parent_timeline(self) -> None:
        _, tracer, _ = _run(ProcessExecutor(WORKERS))
        stage = tracer.find("stage")
        for span in stage.children:
            assert span.start >= stage.start
            assert span.end <= stage.end

    def test_task_durations_are_queryable_from_the_sink(self) -> None:
        _, _, sink = _run(ProcessExecutor(WORKERS))
        assert set(sink.tasks) == set(range(5))
        for index in range(5):
            assert sink.task_duration(index) > 0.0


class TestAccumulateRegistry:
    def test_folds_full_snapshots_in_task_order(self) -> None:
        workers = []
        for index in (1, 2):
            worker = MetricsRegistry()
            worker.counter("requests_total").inc(index)
            worker.gauge("depth").set(float(index))
            worker.histogram("lat_seconds").observe(0.1 * index)
            workers.append(worker.registry_snapshot())
        target = MetricsRegistry()
        accumulate_registry(target, workers)
        assert target.value("requests_total") == 3
        assert target.value("depth") == 2.0  # last snapshot wins
        assert target.get("lat_seconds").samples[()].count == 2
