"""Observability: metrics, span tracing, structured logging, exporters.

The telemetry layer under every stage of the crawl → simulate → analyze
flow. §3's coverage claims (99.9% recovery, 9.7M transactions, the
retry behaviour against Etherscan's free tier) are operational numbers;
this package is where they are counted, timed, and exported — the
:class:`CrawlReport` is *built from* these counters, so the report and
the metrics can never drift apart.

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters,
  gauges, histograms, labels) plus the process :func:`global_registry`,
* :mod:`repro.obs.tracing` — nested :class:`Tracer` spans over wall or
  virtual clocks, rendered as human-readable trees by :func:`span_lines`,
* :mod:`repro.obs.exporters` — Prometheus text, strict-JSON snapshots,
* :mod:`repro.obs.log` — ``event key=value`` structured logging
  (``print()`` is banned outside ``cli.py`` and this package).
"""

from .exporters import metrics_to_dict, prometheus_text, sanitize_metric_name
from .log import configure, get_logger
from .metrics import (
    Histogram,
    MetricError,
    MetricFamily,
    MetricsRegistry,
    global_registry,
)
from .runledger import LEDGER_SCHEMA_VERSION, RunLedger, RunRecord
from .slo import SLO, SLOResult, default_slos, evaluate_slos
from .tracing import Span, Tracer, span_lines

__all__ = [
    "Histogram",
    "LEDGER_SCHEMA_VERSION",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "RunLedger",
    "RunRecord",
    "SLO",
    "SLOResult",
    "Span",
    "Tracer",
    "configure",
    "default_slos",
    "evaluate_slos",
    "get_logger",
    "global_registry",
    "metrics_to_dict",
    "prometheus_text",
    "sanitize_metric_name",
    "span_lines",
]
