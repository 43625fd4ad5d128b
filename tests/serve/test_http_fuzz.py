"""Hypothesis fuzzing of HTTP input: request heads, targets, queries.

Every input must end in one of the statuses the transport and the app
define, or in a clean close; no exception escapes and no handler thread
is left blocked.
"""

from __future__ import annotations

import io
import socket
import sys
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chain.errors import InvalidName
from repro.obs import MetricsRegistry
from repro.serve import ReproApp, canonical_query
from repro.serve.app import ERRORS_METRIC
from repro.serve.server import RequestRejected, _body_length, _read_request

from .harness import CLIENT_TIMEOUT, ServeHarness

#: Statuses the transport answers itself.
TRANSPORT_STATUSES = frozenset({400, 413, 414, 431, 501, 505})

#: Statuses the app answers.
APP_STATUSES = frozenset({200, 304, 400, 404, 405})

_METHODS = st.sampled_from([b"GET", b"HEAD", b"POST", b"PUT", b"G(T", b""])
_TARGETS = st.one_of(
    st.sampled_from([b"/healthz", b"/report/summary", b"//domain//x.eth", b"*"]),
    st.binary(max_size=40),
)
_VERSIONS = st.sampled_from(
    [b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1", b"http/1.1", b""]
)
_HEADER_LINES = st.one_of(
    st.sampled_from([
        b"Host: t", b"Connection: close", b"Connection: keep-alive",
        b"Content-Length: 3", b"Content-Length: x", b"Content-Length: 99999999",
        b"Transfer-Encoding: chunked", b"If-None-Match: *", b" folded",
        b"Name : v", b"no colon", b"Expect: 100-continue",
    ]),
    st.binary(max_size=30).filter(lambda line: b"\n" not in line),
)


@st.composite
def request_heads(draw) -> bytes:
    """A request line and header lines, mostly well-formed pieces."""
    line = b" ".join([draw(_METHODS), draw(_TARGETS), draw(_VERSIONS)])
    headers = draw(st.lists(_HEADER_LINES, max_size=6))
    ending = draw(st.sampled_from([b"\r\n", b"\n"]))
    head = ending.join([line, *headers, b"", b""])
    return head + draw(st.binary(max_size=8))


_HEADS = st.one_of(request_heads(), st.binary(max_size=200))


def _outcome(data: bytes) -> str:
    """What the transport makes of one request head."""
    try:
        request = _read_request(io.BytesIO(data))
        if request is None:
            return "close"
        _body_length(request[3])
    except RequestRejected as rejected:
        assert rejected.status in TRANSPORT_STATUSES
        return str(rejected.status)
    method, target, version, headers = request
    assert version in (b"HTTP/1.0", b"HTTP/1.1")
    assert all(name == name.lower() for name in headers)
    return "request"


@settings(max_examples=300, deadline=None)
@given(_HEADS)
def test_read_request_ends_in_a_request_a_status_or_a_close(data) -> None:
    assert _outcome(data) in {"request", "close"} | {
        str(status) for status in TRANSPORT_STATUSES
    }


@pytest.fixture(scope="module")
def fuzz_server(serve_dataset, serve_oracle):
    """One live server for every fuzzed connection in this module."""
    harness = ServeHarness(serve_dataset, serve_oracle)
    failures: list[BaseException | None] = []
    harness.server._httpd.handle_error = (
        lambda request, address: failures.append(sys.exc_info()[1])
    )
    harness.server.start()
    yield harness, failures
    stopper = threading.Thread(target=harness.server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=CLIENT_TIMEOUT)
    assert not stopper.is_alive(), "a handler thread was left blocked"
    assert failures == []


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_HEADS)
def test_live_server_answers_or_closes(fuzz_server, data) -> None:
    harness, failures = fuzz_server
    with socket.create_connection(
        (harness.host, harness.port), timeout=CLIENT_TIMEOUT
    ) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    statuses = [
        int(line.split(b" ")[1])
        for line in received.split(b"\r\n")
        if line.startswith(b"HTTP/1.1 ") and line[9:12].isdigit()
    ]
    assert set(statuses) <= TRANSPORT_STATUSES | APP_STATUSES | {100}
    assert failures == []
    assert harness.registry.value(ERRORS_METRIC) == 0.0


@pytest.fixture(scope="module")
def serve_app(serve_dataset, serve_oracle):
    """One app over a fresh registry for the in-process fuzzing."""
    return ReproApp(serve_dataset, serve_oracle, registry=MetricsRegistry())


_TEXT_TARGETS = st.one_of(
    st.text(max_size=40),
    st.builds(
        lambda head, tail, query: head + tail + query,
        st.sampled_from(["/", "//", "/domain/", "/query/", "/report/", "?"]),
        st.text(max_size=20),
        st.sampled_from(["", "?limit=1", "?name=", "?premium=x&limit=-1", "#f"]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["GET", "HEAD", "POST", "get"]),
    _TEXT_TARGETS,
    st.dictionaries(st.sampled_from(["If-None-Match", "if-none-match", "X"]),
                    st.text(max_size=10), max_size=2),
)
def test_app_answers_any_target_without_a_500(
    serve_app, method, target, headers
) -> None:
    response = serve_app.handle(method, target, headers)
    assert response.status in APP_STATUSES
    assert serve_app.registry.value(ERRORS_METRIC) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40), st.text(max_size=40))
@example("0 /", "")  # a segment's trailing space, stripped on the first pass
def test_canonical_query_is_text_or_an_invalid_name(path, query) -> None:
    try:
        key = canonical_query(path, query)
    except InvalidName:
        return
    assert key.startswith("/")
    assert canonical_query(*key.partition("?")[::2]) == key
