"""Declarative service-level objectives evaluated against a run's telemetry.

The paper's core claims are timing claims, so the reproduction measures
itself with the same rigor: an :class:`SLO` states an upper bound on one
observable — a histogram percentile (``span_duration_seconds{span=...}``
p99), a counter or gauge value, or a named span's wall-clock duration —
and :func:`evaluate_slos` turns the current registry + tracer state into
pass/fail :class:`SLOResult` records. Every CLI run evaluates its SLO
set and writes the verdicts into the run ledger
(:mod:`repro.obs.runledger`), which is what lets ``repro obs diff`` flag
*regressions* — a run that newly violates an objective an earlier run
met — instead of only absolute failures.

Each command's objectives are its built-in set (:func:`default_slos`):
loose bounds meant to catch order-of-magnitude regressions, not to
flake on a busy CI runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .metrics import Histogram, MetricsRegistry
from .tracing import Tracer

__all__ = [
    "SLO",
    "SLOResult",
    "default_slos",
    "evaluate_slos",
]

#: Objectives a histogram sample supports.
_HISTOGRAM_OBJECTIVES = ("p50", "p90", "p99", "mean", "max", "count", "sum")

#: The prefix selecting a traced span's duration instead of a metric.
SPAN_METRIC_PREFIX = "span:"


@dataclass(frozen=True)
class SLO:
    """One declarative objective: ``observable <= threshold``.

    ``metric`` names either a registry family or, with the ``span:``
    prefix, a traced span (``span:crawl`` bounds the duration of the
    first span named ``crawl``). ``objective`` picks the reading:
    ``value`` for counters/gauges and spans, a percentile /
    ``mean`` / ``max`` / ``count`` / ``sum`` for histograms. ``labels``
    select one sample of a labelled family.
    """

    name: str
    metric: str
    threshold: float
    objective: str = "value"
    labels: dict[str, str] = field(default_factory=dict)
    description: str = ""

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready encoding (the ledger stores this next to results)."""
        payload: dict[str, Any] = {
            "name": self.name,
            "metric": self.metric,
            "objective": self.objective,
            "threshold": self.threshold,
        }
        if self.labels:
            payload["labels"] = dict(self.labels)
        if self.description:
            payload["description"] = self.description
        return payload


@dataclass(frozen=True)
class SLOResult:
    """The verdict of one SLO against one run.

    ``status`` is ``"pass"``, ``"fail"``, or ``"no_data"`` — a run that
    never exercised the observable (an ``analyze`` run has no crawl
    spans) neither meets nor violates the objective, and regression
    tooling treats ``no_data`` as neutral.
    """

    slo: SLO
    value: float | None
    status: str

    @property
    def passed(self) -> bool:
        """True unless the objective was measured and violated."""
        return self.status != "fail"

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready encoding for the run ledger."""
        payload = self.slo.as_dict()
        payload["value"] = self.value
        payload["status"] = self.status
        return payload


def _histogram_reading(sample: Histogram, objective: str) -> float | None:
    if sample.count == 0:
        return None
    if objective.startswith("p") and objective[1:].isdigit():
        return sample.percentile(int(objective[1:]))
    if objective == "mean":
        return sample.mean
    if objective == "max":
        return max(sample.values)
    if objective == "count":
        return float(sample.count)
    if objective == "sum":
        return sample.sum
    raise ValueError(
        f"histogram objective must be one of {_HISTOGRAM_OBJECTIVES},"
        f" got {objective!r}"
    )


def _metric_reading(
    slo: SLO, registries: list[MetricsRegistry]
) -> float | None:
    for registry in registries:
        family = registry.get(slo.metric)
        if family is None:
            continue
        key = tuple(str(slo.labels.get(name, "")) for name in family.label_names)
        sample = family.samples.get(key)
        if sample is None:
            continue
        if isinstance(sample, Histogram):
            reading = _histogram_reading(sample, slo.objective)
        else:
            reading = sample.value
        if reading is not None:
            return reading
    return None


def _span_reading(slo: SLO, tracer: Tracer | None) -> float | None:
    if tracer is None:
        return None
    name = slo.metric[len(SPAN_METRIC_PREFIX):]
    span = tracer.find(name)
    return None if span is None else span.duration


def evaluate_slos(
    slos: tuple[SLO, ...] | list[SLO],
    registries: MetricsRegistry | list[MetricsRegistry],
    tracer: Tracer | None = None,
) -> list[SLOResult]:
    """Evaluate every objective against the run's telemetry.

    Registries are searched in order; the first one holding the metric
    (with the requested label sample, and data for histograms) wins.
    """
    if isinstance(registries, MetricsRegistry):
        registries = [registries]
    results: list[SLOResult] = []
    for slo in slos:
        if slo.metric.startswith(SPAN_METRIC_PREFIX):
            value = _span_reading(slo, tracer)
        else:
            value = _metric_reading(slo, list(registries))
        if value is None:
            results.append(SLOResult(slo=slo, value=None, status="no_data"))
        else:
            status = "pass" if value <= slo.threshold else "fail"
            results.append(SLOResult(slo=slo, value=value, status=status))
    return results


#: Per-command built-in objectives. Bounds are deliberately loose —
#: order-of-magnitude tripwires for a CI runner.
_CRAWL_SLOS = (
    SLO(
        name="crawl_wall_clock",
        metric="span:crawl",
        threshold=600.0,
        description="end-to-end crawl stays under 10 minutes",
    ),
)

_ANALYZE_SLOS = (
    SLO(
        name="analyze_wall_clock",
        metric="span:analyze",
        threshold=600.0,
        description="report build stays under 10 minutes",
    ),
)

#: Columnar-store health: ``repro obs diff`` flags a run whose encoded
#: footprint or load latency regresses past these tripwires, which is
#: how a representation change that silently bloats the file (or turns
#: the O(1) mmap open back into an O(n) parse) surfaces in the ledger.
_COLUMNAR_SLOS = (
    SLO(
        name="columnar_bytes_per_domain",
        metric="columnar_bytes_per_domain",
        threshold=8192.0,
        description="encoded columnar footprint stays under 8 KiB/domain",
    ),
    SLO(
        name="columnar_load_wall_clock",
        metric="span:columnar.load",
        threshold=5.0,
        description="mmap open of a packed dataset stays under 5 seconds"
        " (O(1): independent of row count)",
    ),
    SLO(
        name="columnar_encode_wall_clock",
        metric="span:columnar.encode",
        threshold=300.0,
        description="packing the object graph stays under 5 minutes",
    ),
)

#: Resident-server health: the warm-up must stay interactive, request
#: latency bounded, and a clean run must serve zero 5xx responses. The
#: latency bound reads the exact p99 of the raw request histogram, so
#: it holds for any traffic mix a run actually saw.
_SERVE_SLOS = (
    SLO(
        name="serve_warmup_wall_clock",
        metric="span:serve.warmup",
        threshold=120.0,
        description="dataset load + report warm-up stays under 2 minutes",
    ),
    SLO(
        name="serve_request_p99",
        metric="serve_request_all_seconds",
        objective="p99",
        threshold=0.5,
        description="p99 request latency stays under 500ms",
    ),
    SLO(
        name="serve_zero_errors",
        metric="serve_errors_total",
        threshold=0.0,
        description="a healthy run serves no 5xx responses",
    ),
)

#: Incremental-ingestion health: applying a delta must stay far below a
#: cold rebuild (the O(delta + dirty items) contract of
#: :class:`~repro.core.increport.IncrementalReportBuilder`), and a
#: delta-aware run must never fall back to a full rebuild more often
#: than it applies deltas. Only refreshes of an already built report
#: record under ``delta.apply``; the serve warm-up is a cold refresh and
#: records under ``analyze`` inside ``serve.warmup``, which
#: ``serve_warmup_wall_clock`` bounds.
_DELTA_SLOS = (
    SLO(
        name="delta_apply_p99",
        metric="span_duration_seconds",
        labels={"span": "delta.apply"},
        objective="p99",
        threshold=30.0,
        description="p99 incremental report refresh stays under 30s",
    ),
    SLO(
        name="delta_apply_max",
        metric="span_duration_seconds",
        labels={"span": "delta.apply"},
        objective="max",
        threshold=120.0,
        description="no single delta apply exceeds 2 minutes",
    ),
)

_DEFAULT_SLOS: dict[str, tuple[SLO, ...]] = {
    "simulate": _CRAWL_SLOS + _COLUMNAR_SLOS,
    "crawl": _CRAWL_SLOS + _COLUMNAR_SLOS,
    "analyze": _ANALYZE_SLOS + _COLUMNAR_SLOS,
    "report": _CRAWL_SLOS + _ANALYZE_SLOS + _COLUMNAR_SLOS,
    "dataset": _COLUMNAR_SLOS + _DELTA_SLOS,
    "serve": _SERVE_SLOS + _COLUMNAR_SLOS + _DELTA_SLOS,
}


def default_slos(command: str) -> tuple[SLO, ...]:
    """The built-in objective set for one CLI command (may be empty)."""
    return _DEFAULT_SLOS.get(command, ())
