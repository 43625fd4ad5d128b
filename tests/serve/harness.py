"""Deterministic concurrency harness for the serve test suite.

One :class:`ServeHarness` owns a real :class:`~repro.serve.ReproServer`
on an ephemeral port over a fresh :class:`~repro.obs.MetricsRegistry`,
so every test starts from zeroed counters. :meth:`ServeHarness.run_schedule`
drives N threaded keep-alive clients through a *fixed request schedule*
(client i sends exactly ``schedule[i]``, in order, all clients released
by one barrier), which is what makes the cache assertions deterministic:
the app computes cacheable responses under one lock, so for any
interleaving the hit/miss counters equal
``total cacheable requests - distinct canonical queries`` /
``distinct canonical queries`` — :func:`expected_cache_counters`
computes that prediction straight from the schedule.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from http.client import HTTPConnection

from repro.obs import MetricsRegistry
from repro.serve import ReproApp, ReproServer, canonical_query
from repro.serve.query import CACHE_REQUESTS_METRIC, split_target

#: Endpoints the app serves outside the response cache.
NON_CACHEABLE = frozenset({"/healthz", "/metrics"})

#: Client socket timeout — generous; failures should be assertions,
#: not hangs.
CLIENT_TIMEOUT = 60.0


@dataclass(frozen=True)
class ClientResult:
    """One observed exchange: path, status, body, response headers."""

    path: str
    status: int
    body: bytes
    headers: tuple[tuple[str, str], ...] = ()

    def header(self, name: str) -> str | None:
        """One response header value, case-insensitive, or ``None``."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None


def canonical_key(path: str) -> str:
    """The cache key the server derives for a raw request target."""
    return canonical_query(*split_target(path))


def expected_cache_counters(
    schedule: list[list[str]], error_paths: tuple[str, ...] = ()
) -> tuple[float, float]:
    """Predicted ``(hits, misses)`` after running ``schedule``.

    Assumes every cacheable request outside ``error_paths`` returns 200
    (and is therefore cached after its first miss); requests listed in
    ``error_paths`` produce non-200 responses, which are never stored,
    so each one counts as a miss.
    """
    cacheable = [
        path
        for client in schedule
        for path in client
        if split_target(path)[0] not in NON_CACHEABLE
    ]
    errors = set(error_paths)
    keys = [canonical_key(path) for path in cacheable if path not in errors]
    error_requests = sum(1 for path in cacheable if path in errors)
    distinct = len(set(keys))
    hits = float(len(keys) - distinct)
    misses = float(distinct + error_requests)
    return hits, misses


class ServeHarness:
    """An in-process server plus deterministic multi-client driver."""

    def __init__(self, dataset, oracle=None, *, seed: int = 0) -> None:
        self.registry = MetricsRegistry()
        self.app = ReproApp(dataset, oracle, seed=seed, registry=self.registry)
        self.server = ReproServer(self.app)

    def __enter__(self) -> "ServeHarness":
        self.server.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.server.stop()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def get(
        self, path: str, headers: dict[str, str] | None = None
    ) -> ClientResult:
        """One GET on a fresh connection."""
        return self.request("GET", path, headers=headers)

    def request(
        self,
        method: str,
        path: str,
        headers: dict[str, str] | None = None,
    ) -> ClientResult:
        """One request on a fresh connection (any method, for 405 tests)."""
        conn = HTTPConnection(self.host, self.port, timeout=CLIENT_TIMEOUT)
        try:
            conn.request(method, path, headers=headers or {})
            response = conn.getresponse()
            return ClientResult(
                path,
                response.status,
                response.read(),
                tuple(response.getheaders()),
            )
        finally:
            conn.close()

    def run_schedule(self, schedule: list[list[str]]) -> list[list[ClientResult]]:
        """Run the fixed schedule: one keep-alive client per entry.

        All clients block on a barrier, then each sends its paths in
        order on a single persistent connection. Returns per-client
        results in schedule order; any transport error fails the test.
        """
        barrier = threading.Barrier(len(schedule))
        results: list[list[ClientResult]] = [[] for _ in schedule]
        failures: list[tuple[int, BaseException]] = []

        def client(index: int, paths: list[str]) -> None:
            conn = HTTPConnection(self.host, self.port, timeout=CLIENT_TIMEOUT)
            try:
                barrier.wait(timeout=CLIENT_TIMEOUT)
                for path in paths:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    results[index].append(
                        ClientResult(path, response.status, response.read())
                    )
            except BaseException as exc:  # surfaced as a test failure below
                failures.append((index, exc))
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, args=(index, paths), daemon=True)
            for index, paths in enumerate(schedule)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=CLIENT_TIMEOUT)
        if failures:
            raise AssertionError(f"harness clients failed: {failures!r}")
        return results

    def cache_counters(self) -> tuple[float, float]:
        """Current ``(hits, misses)`` from the app's own registry."""
        return (
            self.registry.value(CACHE_REQUESTS_METRIC, outcome="hit"),
            self.registry.value(CACHE_REQUESTS_METRIC, outcome="miss"),
        )


@dataclass(frozen=True)
class RawResponse:
    """One response parsed off a raw socket: status, headers, body."""

    status: int
    headers: dict[str, str]
    body: bytes


def raw_exchange(host: str, port: int, payload: bytes) -> bytes:
    """Send ``payload`` on a new connection; everything the server
    writes until it closes the connection.

    The payload must make the server close (its last request says
    ``Connection: close``, or it is input the server rejects); a
    server that keeps the connection open fails the read with a
    timeout.
    """
    import socket

    with socket.create_connection((host, port), timeout=CLIENT_TIMEOUT) as sock:
        sock.sendall(payload)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def parse_responses(
    data: bytes, head_only: frozenset[int] = frozenset()
) -> list[RawResponse]:
    """Split a byte stream into responses, by ``Content-Length``.

    The responses numbered in ``head_only`` (answers to HEAD) and 304s
    carry no body whatever their ``Content-Length`` says.
    """
    responses: list[RawResponse] = []
    while data:
        head, separator, data = data.partition(b"\r\n\r\n")
        assert separator, f"truncated response head: {head[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers: dict[str, str] = {}
        for line in lines:
            name, colon, value = line.partition(":")
            assert colon and name == name.strip(), line
            headers[name.lower()] = value.strip()
        length = int(headers["content-length"])
        if len(responses) in head_only or status == "304":
            length = 0
        assert len(data) >= length, "truncated response body"
        responses.append(RawResponse(int(status), headers, data[:length]))
        data = data[length:]
    return responses
