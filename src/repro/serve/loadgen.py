"""Threaded load generator for ``repro serve``.

Drives N concurrent keep-alive clients against a running server with a
fixed request schedule and reports throughput plus latency percentiles.
Shared by the CLI's ``repro serve --load-gen`` mode (whose stats feed
the run ledger, where ``repro obs diff`` compares two runs' request
latency and error SLOs) and by ``benchmarks/bench_serve_throughput.py``.

Timing goes through :class:`~repro.obs.tracing.Tracer` spans — the one
sanctioned clock outside :mod:`repro.obs` — so the determinism lint
stays clean: one span per request per client, one ``loadgen`` span
around the whole run.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException

from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry

__all__ = ["DEFAULT_PATHS", "LoadStats", "run_load"]

#: The default request mix: the cached report slices a resident analyst
#: process serves most often.
DEFAULT_PATHS = (
    "/report",
    "/report/summary",
    "/report/actors",
    "/query/dropcatch",
)

_log = get_logger("serve.loadgen")


@dataclass(frozen=True, slots=True)
class LoadStats:
    """Aggregate result of one load-generation run."""

    requests: int
    errors: int
    clients: int
    duration_seconds: float
    p50_seconds: float
    p99_seconds: float

    @property
    def requests_per_second(self) -> float:
        """Sustained throughput over the whole run."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.requests / self.duration_seconds

    def lines(self) -> list[str]:
        """Human-readable summary (one fact per line)."""
        return [
            f"requests: {self.requests} over {self.clients} clients"
            f" ({self.errors} errors)",
            f"duration: {self.duration_seconds:.3f}s"
            f" ({self.requests_per_second:,.0f} req/s)",
            f"latency: p50 {self.p50_seconds * 1000:.2f}ms,"
            f" p99 {self.p99_seconds * 1000:.2f}ms",
        ]


def _percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of pre-sorted values (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _client_worker(
    host: str,
    port: int,
    paths: tuple[str, ...],
    requests: int,
    barrier: threading.Barrier,
    latencies: list[float],
    failures: list[str],
) -> None:
    """One keep-alive client: ``requests`` GETs over ``paths``, cycling."""
    from ..obs.tracing import Tracer

    tracer = Tracer()
    connection = HTTPConnection(host, port)
    try:
        barrier.wait()
        for index in range(requests):
            path = paths[index % len(paths)]
            try:
                with tracer.span("loadgen.request"):
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
            except (OSError, HTTPException) as exc:
                failures.append(f"{path}: {type(exc).__name__}: {exc}")
                connection.close()
                connection = HTTPConnection(host, port)
                continue
            if response.status >= 500 or not body:
                failures.append(f"{path}: status {response.status}")
    finally:
        connection.close()
    latencies.extend(
        span.duration
        for span in tracer.iter_spans()
        if span.duration is not None
    )


def run_load(
    host: str,
    port: int,
    *,
    clients: int = 4,
    requests_per_client: int = 250,
    paths: tuple[str, ...] = DEFAULT_PATHS,
    registry: MetricsRegistry | None = None,
) -> LoadStats:
    """Fire ``clients × requests_per_client`` GETs and collect stats.

    Clients start simultaneously (barrier-released), each reusing one
    keep-alive connection and cycling through ``paths``. When a
    ``registry`` is given, the run's throughput and latency summary
    land in ``loadgen_*`` gauges so the run ledger (and therefore the
    ledger bench gate) records them.
    """
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests_per_client must be >= 1")
    if not paths:
        raise ValueError("paths must not be empty")
    from ..obs.tracing import Tracer

    tracer = Tracer()
    barrier = threading.Barrier(clients)
    per_client_latencies: list[list[float]] = [[] for _ in range(clients)]
    per_client_failures: list[list[str]] = [[] for _ in range(clients)]
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(
                host,
                port,
                tuple(paths),
                requests_per_client,
                barrier,
                per_client_latencies[index],
                per_client_failures[index],
            ),
            name=f"loadgen-{index}",
        )
        for index in range(clients)
    ]
    with tracer.span("loadgen", clients=clients):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    duration = tracer.roots[0].duration or 0.0
    latencies = sorted(
        value for bucket in per_client_latencies for value in bucket
    )
    errors = sum(len(bucket) for bucket in per_client_failures)
    for bucket in per_client_failures:
        for failure in bucket[:5]:
            _log.warning("loadgen.failure", detail=failure)
    stats = LoadStats(
        requests=clients * requests_per_client,
        errors=errors,
        clients=clients,
        duration_seconds=duration,
        p50_seconds=_percentile(latencies, 50),
        p99_seconds=_percentile(latencies, 99),
    )
    if registry is not None:
        summary = registry.gauge(
            "loadgen_summary",
            "Load-generation results of the last --load-gen run",
            labels=("stat",),
        )
        summary.labels(stat="requests").set(stats.requests)
        summary.labels(stat="errors").set(stats.errors)
        summary.labels(stat="requests_per_second").set(
            stats.requests_per_second
        )
        summary.labels(stat="p50_seconds").set(stats.p50_seconds)
        summary.labels(stat="p99_seconds").set(stats.p99_seconds)
    return stats
