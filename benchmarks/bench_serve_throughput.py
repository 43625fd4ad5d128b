"""Serve throughput: cached round trips and sustained multi-client load.

The resident server's contract is that a *cached* query costs one lock
acquisition and one socket write — no analysis. Two measurements pin
that down:

* ``test_cached_report_roundtrip`` — single-client keep-alive latency
  of the largest cached body (``/report``).
* ``test_sustained_cached_throughput`` — 4 keep-alive clients hammering
  the default query mix; the run must sustain at least
  :data:`MIN_REQUESTS_PER_SECOND` with zero errors. Observed req/s and
  p50/p99 latency land in the bench's ``extra_info``.

Uses the shared session world from ``benchmarks/conftest.py``; the
server is built once per module and every benchmarked path is primed,
so the numbers measure the serving path, not the first-miss analysis.
"""

from __future__ import annotations

from http.client import HTTPConnection

import pytest

from repro.serve import DEFAULT_PATHS, LoadStats, ReproApp, ReproServer, run_load

#: The acceptance floor for cached serving, in requests per second.
MIN_REQUESTS_PER_SECOND = 1_000


@pytest.fixture(scope="module")
def served(dataset, oracle):
    """A warm, primed server over the shared bench dataset."""
    app = ReproApp(dataset, oracle)
    with ReproServer(app) as server:
        conn = HTTPConnection(server.host, server.port, timeout=60)
        try:
            for path in DEFAULT_PATHS:
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200 and body
        finally:
            conn.close()
        yield server


def test_cached_report_roundtrip(benchmark, served) -> None:
    """One keep-alive GET of the cached full report."""
    conn = HTTPConnection(served.host, served.port, timeout=60)

    def fetch() -> bytes:
        conn.request("GET", "/report")
        response = conn.getresponse()
        payload = response.read()
        assert response.status == 200
        return payload

    try:
        body = benchmark(fetch)
    finally:
        conn.close()
    assert body.endswith(b"\n")


def test_sustained_cached_throughput(benchmark, served) -> None:
    """4 clients x 250 requests over the cached default mix."""
    stats: LoadStats = benchmark.pedantic(
        run_load,
        args=(served.host, served.port),
        kwargs={"clients": 4, "requests_per_client": 250},
        rounds=3,
    )
    print("\n=== serve sustained load (cached) ===")
    for line in stats.lines():
        print(f"  {line}")
    assert stats.errors == 0
    assert stats.requests == 1000
    assert stats.requests_per_second >= MIN_REQUESTS_PER_SECOND, (
        f"sustained {stats.requests_per_second:,.0f} req/s is below the"
        f" {MIN_REQUESTS_PER_SECOND:,} req/s floor"
    )
    benchmark.extra_info["requests_per_second"] = round(
        stats.requests_per_second, 1
    )
    benchmark.extra_info["p50_ms"] = round(stats.p50_seconds * 1000, 3)
    benchmark.extra_info["p99_ms"] = round(stats.p99_seconds * 1000, 3)
