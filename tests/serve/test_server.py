"""Server behaviour under the deterministic concurrency harness.

Every test here drives the real HTTP listener (ephemeral port, threaded
keep-alive clients); the harness makes the concurrency assertions exact
rather than statistical — see :mod:`tests.serve.harness`.
"""

from __future__ import annotations

import threading
from http.client import HTTPConnection

import pytest

from repro.core import build_report, report_json
from repro.crawler import EtherscanClient
from repro.obs import MetricsRegistry
from repro.serve import ReproApp
from repro.serve.app import ERRORS_METRIC, REQUESTS_METRIC

from .harness import ServeHarness, canonical_key, expected_cache_counters

#: A mixed fixed schedule: overlapping queries, equivalent spellings,
#: and per-client unique ones.
SCHEDULE = [
    ["/report", "/report/summary", "/query/dropcatch?limit=5", "/healthz"],
    ["/report/summary", "/report", "/query/dropcatch?limit=5"],
    ["/query/hijackable", "/report", "/report/actors"],
    ["/report", "/report/actors", "/query/dropcatch?premium=true&limit=5"],
    ["/query/dropcatch?limit=5&premium=true", "/report/resale", "/report"],
]


def test_concurrent_schedule_no_5xx_and_deterministic_cache(harness) -> None:
    results = harness.run_schedule(SCHEDULE)

    flat = [result for client in results for result in client]
    assert len(flat) == sum(len(client) for client in SCHEDULE)
    assert all(result.status == 200 for result in flat), [
        (r.path, r.status) for r in flat if r.status != 200
    ]

    # cache counters are exactly predictable from the schedule alone
    assert harness.cache_counters() == expected_cache_counters(SCHEDULE)

    # byte-stability: one canonical query -> one body, across all clients
    bodies: dict[str, set[bytes]] = {}
    for result in flat:
        if result.path == "/healthz":
            continue
        bodies.setdefault(canonical_key(result.path), set()).add(result.body)
    assert all(len(variants) == 1 for variants in bodies.values())

    # zero 5xx responses, counted as well as observed
    assert harness.registry.value(ERRORS_METRIC) == 0.0


def test_schedule_is_all_hits_on_repeat(harness) -> None:
    harness.run_schedule(SCHEDULE)
    hits, misses = harness.cache_counters()
    repeat = harness.run_schedule(SCHEDULE)
    assert all(r.status == 200 for client in repeat for r in client)
    # second pass adds zero misses: every cacheable request is a hit
    expected_new_hits, _ = expected_cache_counters(SCHEDULE)
    cacheable_per_pass = expected_new_hits + misses
    assert harness.cache_counters() == (hits + cacheable_per_pass, misses)


def test_equivalent_spellings_share_one_cache_entry(harness) -> None:
    first = harness.get("/report/summary")
    second = harness.get("//report/summary/")
    third = harness.get("/report/summary?")
    assert first.status == second.status == third.status == 200
    assert first.body == second.body == third.body
    assert harness.cache_counters() == (2.0, 1.0)
    assert harness.app.cache_size == 1


def test_domain_lookup_is_case_insensitive(harness, serve_dataset) -> None:
    name = min(
        record.name
        for record in serve_dataset.domains.values()
        if record.name
    )
    lower = harness.get(f"/domain/{name}")
    upper = harness.get(f"/domain/{name.upper()}")
    assert lower.status == upper.status == 200
    assert lower.body == upper.body
    assert harness.cache_counters() == (1.0, 1.0)
    assert name.encode("utf-8") in lower.body


def test_report_bytes_match_canonical_cli_encoding(
    harness, serve_dataset, serve_oracle
) -> None:
    served = harness.get("/report")
    expected = report_json(build_report(serve_dataset, serve_oracle))
    assert served.status == 200
    assert served.body == expected.encode("utf-8")


def test_error_statuses(harness) -> None:
    assert harness.get("/nope").status == 404
    assert harness.get("/report/nonsense").status == 404
    assert harness.get("/domain/never-registered-zzz.eth").status == 404
    assert harness.get("/domain/bad..name").status == 400
    assert harness.get("/query/dropcatch?limit=-1").status == 400
    assert harness.get("/query/dropcatch?limit=bogus").status == 400
    assert harness.get("/query/dropcatch?premium=maybe").status == 400
    assert harness.request("POST", "/report").status == 405
    # none of those are 5xx, and none land in the cache
    assert harness.registry.value(ERRORS_METRIC) == 0.0
    assert harness.app.cache_size == 0


def test_error_responses_are_json_and_never_cached(harness) -> None:
    import json

    first = harness.get("/report/nonsense")
    second = harness.get("/report/nonsense")
    payload = json.loads(first.body)
    assert payload["status"] == 404
    assert "nonsense" in payload["error"]
    assert first.body == second.body
    # both requests recomputed: misses, no hits, nothing stored
    assert harness.cache_counters() == (0.0, 2.0)


def test_healthz_and_metrics(harness) -> None:
    health = harness.get("/healthz")
    assert health.status == 200
    assert health.body == b"ok\n"

    harness.get("/report/summary")
    metrics = harness.get("/metrics")
    assert metrics.status == 200
    text = metrics.body.decode("utf-8")
    assert REQUESTS_METRIC in text
    assert "serve_cache_requests_total" in text
    assert "serve_inflight_requests" in text


def test_metrics_help_for_crawler_retries(
    serve_world, serve_dataset, serve_oracle
) -> None:
    # a dataset-less `repro serve` crawls into the registry it serves
    registry = MetricsRegistry()
    EtherscanClient(serve_world.etherscan_api, registry=registry)
    app = ReproApp(serve_dataset, serve_oracle, registry=registry)
    text = app.handle("GET", "/metrics").body.decode("utf-8")
    assert (
        "# HELP crawler_retries_total Calls retried (any retryable error)\n"
        in text
    )


def test_stop_refuses_new_connections(serve_dataset, serve_oracle) -> None:
    harness = ServeHarness(serve_dataset, serve_oracle)
    harness.server.start()
    assert harness.get("/healthz").status == 200
    harness.server.stop()
    with pytest.raises(OSError):
        harness.get("/healthz")


def test_stop_drains_despite_idle_keepalive_client(
    serve_dataset, serve_oracle
) -> None:
    """Regression: an idle keep-alive connection must not wedge stop().

    Handler threads are non-daemon and joined on close; without the
    idle-connection timeout, a client that never closes parks its
    handler in a blocking read and stop() never returns.
    """
    harness = ServeHarness(serve_dataset, serve_oracle)
    harness.server._httpd.RequestHandlerClass.timeout = 1  # fast idle close
    harness.server.start()
    conn = HTTPConnection(harness.host, harness.port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        assert conn.getresponse().read() == b"ok\n"
        stopper = threading.Thread(target=harness.server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=30)
        assert not stopper.is_alive(), "stop() wedged on an idle connection"
    finally:
        conn.close()
