"""Server behaviour under the deterministic concurrency harness.

Every test here drives the real HTTP listener (ephemeral port, threaded
keep-alive clients); the harness makes the concurrency assertions exact
rather than statistical — see :mod:`tests.serve.harness`.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading
from http.client import HTTPConnection

import pytest

from repro.core import build_report, report_json
from repro.crawler import EtherscanClient
from repro.obs import MetricsRegistry
from repro.serve import ReproApp
from repro.serve.app import ERRORS_METRIC, REQUESTS_METRIC
from repro.serve.server import MAX_BODY, MAX_HEADERS, MAX_LINE

from .harness import (
    ServeHarness,
    canonical_key,
    expected_cache_counters,
    parse_responses,
    raw_exchange,
)

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


# -- the HTTP/1.1 transport on raw sockets -------------------------------------

CLOSE_GET = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"


def _raw(harness, payload: bytes, head_only: frozenset[int] = frozenset()):
    return parse_responses(
        raw_exchange(harness.host, harness.port, payload), head_only
    )


def _first_domain_name(dataset) -> str:
    return min(record.name for record in dataset.domains.values() if record.name)


@pytest.mark.parametrize(
    "template",
    ["//report/summary/", "//domain//{name}", "///query//dropcatch?limit=2"],
)
def test_app_reads_targets_as_the_transport_passes_them(
    harness, serve_dataset, template
) -> None:
    """Leading slashes are part of the path, never a network location."""
    target = template.format(name=_first_domain_name(serve_dataset))
    local = harness.app.handle("GET", target)
    served = harness.get(target)
    assert local.status == served.status == 200
    assert local.body == served.body


def test_request_body_is_drained_before_the_next_request(harness) -> None:
    payload = (
        b"POST /report HTTP/1.1\r\nHost: t\r\nContent-Length: 11\r\n\r\n"
        b"hello=world" + CLOSE_GET
    )
    posted, health = _raw(harness, payload)
    assert posted.status == 405
    assert json.loads(posted.body)["status"] == 405
    assert posted.headers["allow"] == "GET"
    assert "connection" not in posted.headers  # kept alive
    assert (health.status, health.body) == (200, b"ok\n")
    assert health.headers["connection"] == "close"


def test_head_is_answered_405_with_headers_only(harness) -> None:
    payload = b"HEAD /report HTTP/1.1\r\nHost: t\r\n\r\n" + CLOSE_GET
    head, health = _raw(harness, payload, head_only=frozenset({0}))
    assert head.status == 405
    assert head.body == b""
    assert int(head.headers["content-length"]) > 0
    assert head.headers["content-type"] == "application/json"
    assert (health.status, health.body) == (200, b"ok\n")


def test_every_response_carries_server_and_date(harness) -> None:
    (health,) = _raw(harness, CLOSE_GET)
    assert health.headers["server"] == "repro-serve"
    assert health.headers["date"].endswith(" GMT")


def test_http10_closes_unless_asked_to_keep_alive(harness) -> None:
    (plain,) = _raw(harness, b"GET /healthz HTTP/1.0\r\n\r\n")
    assert plain.status == 200
    assert plain.headers["connection"] == "close"
    kept, closed = _raw(
        harness,
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        b"GET /healthz HTTP/1.0\r\n\r\n",
    )
    assert kept.headers["connection"] == "keep-alive"
    assert (kept.status, closed.status) == (200, 200)
    assert closed.headers["connection"] == "close"


#: Input outside the transport's limits, and the status it gets.
MALFORMED = {
    "request line over the limit": (
        b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 414
    ),
    "request line of two words": (b"GET /healthz\r\n\r\n", 400),
    "method outside the token set": (b"G(T /healthz HTTP/1.1\r\n\r\n", 400),
    "malformed version": (b"GET /healthz HTTX/1.1\r\n\r\n", 400),
    "HTTP/2.0": (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    "HTTP/0.9 version": (b"GET /healthz HTTP/0.9\r\n\r\n", 505),
    "too many header lines": (
        b"GET /healthz HTTP/1.1\r\n" + b"X-A: 1\r\n" * (MAX_HEADERS + 1)
        + b"\r\n",
        431,
    ),
    "header line over the limit": (
        b"GET /healthz HTTP/1.1\r\nX-A: " + b"a" * MAX_LINE + b"\r\n\r\n", 431
    ),
    "header line without a colon": (
        b"GET /healthz HTTP/1.1\r\nHost t\r\n\r\n", 400
    ),
    "whitespace before the colon": (
        b"GET /healthz HTTP/1.1\r\nHost : t\r\n\r\n", 400
    ),
    "obs-fold": (
        b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n", 400
    ),
    "negative Content-Length": (
        b"POST /report HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400
    ),
    "conflicting Content-Length": (
        b"POST /report HTTP/1.1\r\nContent-Length: 1\r\n"
        b"Content-Length: 2\r\n\r\nab",
        400,
    ),
    "Transfer-Encoding": (
        b"POST /report HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"0\r\n\r\n" + CLOSE_GET,
        501,
    ),
    "body over the limit": (
        b"POST /report HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (MAX_BODY + 1),
        413,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_gets_its_status_and_a_close(harness, case) -> None:
    payload, status = MALFORMED[case]
    (response,) = _raw(harness, payload)  # one answer, then the server closed
    assert response.status == status
    assert response.headers["connection"] == "close"
    assert json.loads(response.body)["status"] == status
    assert harness.get("/healthz").status == 200


def test_client_reset_ends_the_connection_quietly(harness, monkeypatch) -> None:
    failures = []
    monkeypatch.setattr(
        harness.server._httpd,
        "handle_error",
        lambda request, address: failures.append(sys.exc_info()[1]),
    )
    sock = socket.create_connection((harness.host, harness.port), timeout=30)
    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost")
    # SO_LINGER 0: close() sends a reset instead of a FIN
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()
    assert harness.get("/healthz").status == 200
    harness.server.stop()  # joins the handler threads
    assert failures == []


def test_expect_continue_is_answered_before_the_body(harness) -> None:
    head = (
        b"POST /report HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n"
        b"Expect: 100-continue\r\n\r\n"
    )
    with socket.create_connection((harness.host, harness.port), timeout=30) as sock:
        sock.sendall(head)
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(b"hello" + CLOSE_GET)
        rest = b""
        while chunk := sock.recv(65536):
            rest += chunk
    posted, health = parse_responses(rest)
    assert (posted.status, health.status) == (405, 200)


def test_unknown_query_endpoints_share_one_label(harness) -> None:
    for name in ("nope-1", "nope-2"):
        assert harness.get(f"/query/{name}").status == 404
    assert harness.registry.value(REQUESTS_METRIC, endpoint="other", status="4xx") == 2.0
    assert harness.get("/query/dropcatch").status == 200
    assert harness.registry.value(
        REQUESTS_METRIC, endpoint="query_dropcatch", status="2xx"
    ) == 1.0
