"""The serve application: routes, warm analysis state, response cache.

:class:`ReproApp` is the transport-independent half of ``repro serve``:
it owns the dataset, a warm :class:`~repro.core.context.AnalysisContext`,
the eagerly built :class:`~repro.core.report.HeadlineReport`, and the
versioned :class:`~repro.serve.query.QueryCache`, and maps one ``(method,
target)`` pair to one :class:`Response`. The HTTP listener
(:mod:`repro.serve.server`) is a thin shell around :meth:`ReproApp.handle`,
which is also what lets the test harness drive the application in-process
without sockets.

Endpoints (all ``GET``):

``/healthz``
    liveness probe, ``text/plain`` ``ok``.
``/metrics``
    Prometheus exposition of the app registry + the process-global one.
``/report``
    the full §4 headline report — byte-identical to
    ``repro report --json-out`` for the same dataset.
``/report/<section>``
    one top-level section of the report (``summary``, ``actors``, …).
``/domain/<name>``
    one domain's record plus its dropcatch events, via the O(1) name
    index (ENS-normalized lookup).
``/query/dropcatch``
    every re-registration event; filters: ``name=<ens name>``,
    ``premium=true|false``, ``limit=N``.
``/query/hijackable``
    every hijackable-funds window with its USD exposure; filter
    ``limit=N``.

Every JSON body is rendered by the canonical encoder
(:func:`~repro.core.report.canonical_json`), so responses are
byte-stable across runs and non-finite floats encode as ``null``.
Cacheable responses (everything except ``/healthz`` and ``/metrics``)
are computed under one lock: concurrent identical queries produce
exactly one miss and N-1 hits, which the concurrency harness checks.

Report responses (``/report``, ``/report/<section>``) carry a strong
``ETag`` derived from the dataset version/delta-cursor token; a request
whose ``If-None-Match`` matches is answered ``304 Not Modified`` with
an empty body (counted in ``serve_not_modified_total``). Dataset deltas
applied through :meth:`ReproApp.apply_deltas` (the ``--watch`` path)
refresh the report incrementally via an
:class:`~repro.core.increport.IncrementalReportBuilder` and migrate the
response cache selectively — a transactions-only delta keeps the
``/domain/*`` and ``/query/dropcatch`` entries, which such a delta
provably cannot affect — instead of dropping every entry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from urllib.parse import parse_qsl, unquote

from ..chain.errors import InvalidName
from ..core.context import AnalysisContext
from ..core.dropcatch import ReRegistration
from ..core.increport import IncrementalReportBuilder
from ..core.report import HeadlineReport, canonical_json, report_json
from ..datasets.delta import DatasetDelta
from ..datasets.columnar import ColumnarDataset
from ..datasets.dataset import ENSDataset
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, global_registry
from ..obs.exporters import prometheus_text
from ..obs.tracing import Tracer
from ..oracle.ethusd import EthUsdOracle
from .query import QueryCache, canonical_query, split_target

__all__ = [
    "ERRORS_METRIC",
    "NOT_MODIFIED_METRIC",
    "REQUESTS_METRIC",
    "ReproApp",
    "Response",
    "error_response",
]

#: Requests served, by endpoint class and status class.
REQUESTS_METRIC = "serve_requests_total"

#: Request latency histogram, by endpoint class.
REQUEST_SECONDS_METRIC = "serve_request_seconds"

#: Unlabelled request latency aggregate (the serve_request_p99 SLO target).
REQUEST_SECONDS_ALL_METRIC = "serve_request_all_seconds"

#: Responses with a 5xx status (bound eagerly so the zero-error SLO
#: reads 0.0 instead of "no data" on a clean run).
ERRORS_METRIC = "serve_errors_total"

#: Conditional requests answered 304 via an If-None-Match ETag hit.
NOT_MODIFIED_METRIC = "serve_not_modified_total"

_TEXT = "text/plain; charset=utf-8"
_PROM = "text/plain; version=0.0.4; charset=utf-8"
_JSON = "application/json"

_log = get_logger("serve.app")


@dataclass(frozen=True, slots=True)
class Response:
    """One finished HTTP response: status, content type, body bytes.

    ``headers`` carries extra response headers (beyond ``Content-Type``
    / ``Content-Length``, which the listener derives) — currently the
    ``ETag`` on report endpoints.
    """

    status: int
    content_type: str
    body: bytes
    headers: tuple[tuple[str, str], ...] = ()

    def header(self, name: str) -> str | None:
        """The value of one extra header, case-insensitive, or ``None``."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None


def _json_response(
    payload: object, status: int = 200, headers: tuple[tuple[str, str], ...] = ()
) -> Response:
    """Canonical-JSON response for any JSON-ready payload."""
    body = canonical_json(payload).encode("utf-8")
    return Response(status, _JSON, body, headers)


def error_response(
    status: int, message: str, headers: tuple[tuple[str, str], ...] = ()
) -> Response:
    """A JSON error body (``{"error": ..., "status": ...}``)."""
    return _json_response({"error": message, "status": status}, status, headers)


#: The ``/query/<name>`` endpoints, each its own endpoint label.
_QUERY_ENDPOINTS = frozenset({"dropcatch", "hijackable"})


def _endpoint_class(path: str) -> str:
    """Bounded-cardinality endpoint label for a request path."""
    segments = [part for part in path.split("/") if part]
    if not segments:
        return "root"
    head = segments[0]
    if head == "report":
        return "report_section" if len(segments) > 1 else "report"
    if head == "domain":
        return "domain"
    if head == "query" and len(segments) > 1 and segments[1] in _QUERY_ENDPOINTS:
        return f"query_{segments[1]}"
    if head in ("healthz", "metrics"):
        return head
    return "other"


def _keep_nothing(key: str) -> bool:
    """Migration predicate dropping every cache entry."""
    return False


def _unaffected_by_tx_delta(key: str) -> bool:
    """Cache entries a transactions-only delta provably cannot change.

    ``/domain/<name>`` bodies read the domain record and its
    re-registration events; ``/query/dropcatch`` reads only the events.
    Both are pure functions of the domain records, which a
    transactions-only delta leaves untouched. Everything else
    (``/report*``, ``/query/hijackable``) reads transaction windows.
    """
    path = key.partition("?")[0]
    return path == "/query/dropcatch" or path.startswith("/domain/")


def _event_payload(event: ReRegistration) -> dict[str, object]:
    """JSON-ready encoding of one dropcatch event."""
    return {
        "domain_id": event.domain_id,
        "name": event.name,
        "previous_owner": event.previous_owner,
        "new_owner": event.new_owner,
        "expiry_date": event.previous.expiry_date,
        "reregistration_date": event.next.registration_date,
        "delay_days": event.delay_days,
        "paid_premium": event.paid_premium,
        "premium_wei": event.next.premium_wei,
    }


class ReproApp:
    """Resident query application over one loaded dataset.

    Construction is the warm-up: it builds the shared
    :class:`AnalysisContext` and the full headline report once (under a
    ``serve.warmup`` span when a tracer is given), so the first request
    never pays the analysis cost — only the render. All cacheable
    request handling is serialized by one lock; see the module
    docstring for why that makes cache counters deterministic.
    """

    def __init__(
        self,
        dataset: ENSDataset | ColumnarDataset,
        oracle: EthUsdOracle | None = None,
        *,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        """Load ``dataset`` and pre-build the warm analysis state."""
        self.dataset = dataset
        self.oracle = oracle if oracle is not None else EthUsdOracle()
        self.seed = seed
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._cache = QueryCache(self.registry)
        self._requests = self.registry.counter(
            REQUESTS_METRIC,
            "Requests served, by endpoint class and status class",
            labels=("endpoint", "status"),
        )
        self._latency = self.registry.histogram(
            REQUEST_SECONDS_METRIC,
            "Request wall-clock latency by endpoint class",
            labels=("endpoint",),
        )
        self._latency_all = self.registry.histogram(
            REQUEST_SECONDS_ALL_METRIC,
            "Request wall-clock latency across all endpoints"
            " (the serve_request_p99 SLO reads this)",
        )
        self._errors = self.registry.counter(
            ERRORS_METRIC, "Responses with a 5xx status"
        )
        self._not_modified = self.registry.counter(
            NOT_MODIFIED_METRIC,
            "Conditional requests answered 304 via an If-None-Match hit",
        )
        self._inflight = self.registry.gauge(
            "serve_inflight_requests", "Requests currently being handled"
        )
        #: ``(endpoint, status class)`` -> its request counter and the
        #: endpoint's latency histogram, bound on first use.
        self._samples: dict[tuple[str, str], tuple] = {}
        warm_tracer = tracer if tracer is not None else Tracer(registry=self.registry)
        with warm_tracer.span("serve.warmup"):
            self.context = AnalysisContext(
                dataset, self.oracle, registry=self.registry
            )
            # The warm-up is the builder's memo-populating cold refresh,
            # so the very first delta already applies in O(delta +
            # dirty items).
            self._builder = IncrementalReportBuilder(
                dataset,
                self.oracle,
                seed=seed,
                registry=self.registry,
                tracer=warm_tracer,
                context=self.context,
            )
            self._report: HeadlineReport = self._builder.refresh()
            self._report_token = self._token()
        _log.info(
            "serve.warm",
            domains=len(dataset.domains),
            transactions=len(dataset.transactions),
        )

    # -- versioning --------------------------------------------------------

    def _token(self) -> tuple[int, int, int, int, int]:
        """The dataset version token cache entries are keyed on.

        The classic fingerprint (monotonic version + collection sizes)
        plus the delta cursor, so a token encodes *how* the dataset
        reached its state — the handle delta-aware cache migration and
        report ETags key on.
        """
        dataset = self.dataset
        return (
            dataset.version,
            len(dataset.domains),
            len(dataset.transactions),
            len(dataset.market_events),
            getattr(dataset, "delta_cursor", 0),
        )

    def _etag(self, token: tuple[int, ...]) -> str:
        """Strong ETag for report endpoints under ``token``."""
        return '"' + "-".join(str(part) for part in token) + '"'

    def _report_for(self, token: tuple[int, ...]) -> HeadlineReport:
        """The headline report for the current dataset state.

        Refreshed when the dataset mutated since warm-up — in O(delta +
        dirty items) through the incremental builder when the mutation
        came through the delta log, via a full rebuild otherwise;
        callers hold the app lock.
        """
        if token != self._report_token:
            self._report = self._builder.refresh()
            self._report_token = token
        return self._report

    # -- delta ingestion ---------------------------------------------------

    def apply_deltas(self, deltas: "list[DatasetDelta]") -> None:
        """Apply dataset deltas and refresh serve state in O(delta).

        The ``--watch`` ingestion path: appends every delta to the live
        dataset, refreshes the headline report through the incremental
        builder, and *migrates* the response cache to the new token —
        a transactions-only batch keeps the ``/domain/*`` and
        ``/query/dropcatch`` entries (their payloads read only domain
        records and re-registration events), anything touching domains
        or market events drops everything. Requires the mutable object
        store (:class:`~repro.datasets.columnar.ColumnarDataset` is
        read-only).
        """
        if not deltas:
            return
        with self._lock:
            apply = getattr(self.dataset, "apply_delta", None)
            if apply is None:
                raise TypeError(
                    "apply_deltas requires a mutable ENSDataset"
                    " (columnar stores are read-only)"
                )
            domains_touched = any(delta.domains for delta in deltas)
            market_touched = any(delta.market_events for delta in deltas)
            for delta in deltas:
                apply(delta)
            token = self._token()
            self._report_for(token)
            if domains_touched or market_touched:
                keep = _keep_nothing
            else:
                keep = _unaffected_by_tx_delta
            self._cache.migrate(token, keep)
            _log.info(
                "serve.deltas_applied",
                deltas=len(deltas),
                records=sum(delta.record_count for delta in deltas),
                cache_entries=len(self._cache),
            )

    # -- dispatch ----------------------------------------------------------

    def handle(
        self,
        method: str,
        target: str,
        headers: "dict[str, str] | None" = None,
    ) -> Response:
        """Serve one request; always returns a :class:`Response`.

        ``target`` is the raw origin-form request target (path plus
        optional query string, see
        :func:`~repro.serve.query.split_target`); ``headers`` carries
        the request headers the app acts on (currently
        ``If-None-Match``). Unexpected exceptions become a 500 — they
        are logged and counted, never propagated into the listener
        thread.
        """
        path, query = split_target(target)
        endpoint = _endpoint_class(path)
        if_none_match = None
        if headers:
            for name, value in headers.items():
                if name.lower() == "if-none-match":
                    if_none_match = value.strip()
        with self._lock:
            self._inflight.inc()
        started = time.perf_counter()  # lint: ignore[det-wall-clock] request latency metric only
        try:
            response = self._route(method, path, query, if_none_match)
        except Exception as exc:  # noqa: BLE001 - boundary: keep serving
            _log.error(
                "serve.request_failed",
                target=target,
                error=f"{type(exc).__name__}: {exc}",
            )
            response = error_response(500, "internal server error")
        duration = time.perf_counter() - started  # lint: ignore[det-wall-clock] request latency metric only
        key = (endpoint, f"{response.status // 100}xx")
        with self._lock:
            self._inflight.dec()
            samples = self._samples.get(key)
            if samples is None:
                samples = self._samples[key] = (
                    self._requests.labels(endpoint=endpoint, status=key[1]),
                    self._latency.labels(endpoint=endpoint),
                )
            samples[0].inc()
            samples[1].observe(duration)
            self._latency_all.observe(duration)
            if response.status >= 500:
                self._errors.inc()
        return response

    def _route(
        self,
        method: str,
        path: str,
        query: str,
        if_none_match: str | None = None,
    ) -> Response:
        """Dispatch one parsed request to its endpoint."""
        if method != "GET":
            return error_response(
                405, f"method {method} not allowed (GET only)", (("Allow", "GET"),)
            )
        if path == "/healthz":
            return Response(200, _TEXT, b"ok\n")
        if path == "/metrics":
            text = prometheus_text(self.registry, global_registry())
            return Response(200, _PROM, text.encode("utf-8"))
        try:
            key = canonical_query(path, query)
        except InvalidName as exc:
            return error_response(400, str(exc))
        with self._lock:
            token = self._token()
            cached = self._cache.lookup(token, key)
            if cached is not None:
                assert isinstance(cached, Response)
                response = cached
            else:
                response = self._compute(key, token)
                if response.status == 200:
                    self._cache.store(token, key, response)
            etag = response.header("ETag")
            if (
                etag is not None
                and if_none_match is not None
                and if_none_match in (etag, "*")
            ):
                self._not_modified.inc()
                return Response(
                    304, response.content_type, b"", (("ETag", etag),)
                )
        return response

    # -- endpoint bodies ---------------------------------------------------

    def _compute(
        self, key: str, token: tuple[int, int, int, int]
    ) -> Response:
        """Build the response for one canonical query (lock held).

        The canonical text percent-encodes segments and parameters
        (see :func:`~repro.serve.query.canonical_query`), so both are
        decoded here before dispatch.
        """
        path, _, query = key.partition("?")
        params = dict(parse_qsl(query))
        segments = [unquote(part) for part in path.split("/") if part]
        if path == "/report":
            report = self._report_for(token)
            return Response(
                200,
                _JSON,
                report_json(report).encode("utf-8"),
                (("ETag", self._etag(token)),),
            )
        if len(segments) == 2 and segments[0] == "report":
            payload = self._report_for(token).as_dict()
            section = segments[1]
            if section not in payload:
                known = ", ".join(sorted(payload))
                return error_response(
                    404, f"unknown report section {section!r} (one of: {known})"
                )
            body = canonical_json(payload[section]).encode("utf-8")
            return Response(
                200, _JSON, body, (("ETag", self._etag(token)),)
            )
        if len(segments) == 2 and segments[0] == "domain":
            return self._domain(segments[1])
        if path == "/query/dropcatch":
            return self._dropcatch(params)
        if path == "/query/hijackable":
            return self._hijackable(params, token)
        return error_response(404, f"no such endpoint: {path}")

    def _domain(self, name: str) -> Response:
        """``/domain/<name>``: record + dropcatch events, O(1) lookup."""
        record = self.dataset.domain_by_name(name)
        if record is None:
            return error_response(404, f"no domain named {name!r}")
        events = [
            _event_payload(event)
            for event in self.context.reregistrations()
            if event.domain_id == record.domain_id
        ]
        return _json_response(
            {
                "name": name,
                "domain": record.as_dict(),
                "reregistrations": events,
            }
        )

    def _dropcatch(self, params: dict[str, str]) -> Response:
        """``/query/dropcatch``: the re-registration event list."""
        events = self.context.reregistrations()
        name = params.get("name")
        if name is not None:
            events = [event for event in events if event.name == name]
        premium = params.get("premium")
        if premium is not None:
            if premium not in ("true", "false"):
                return error_response(400, "premium must be 'true' or 'false'")
            events = [
                event
                for event in events
                if event.paid_premium == (premium == "true")
            ]
        events, limited = self._limit(events, params)
        if events is None:
            return error_response(400, "limit must be a non-negative integer")
        return _json_response(
            {
                "count": len(events),
                "limited": limited,
                "events": [_event_payload(event) for event in events],
            }
        )

    def _hijackable(
        self, params: dict[str, str], token: tuple[int, ...]
    ) -> Response:
        """``/query/hijackable``: exposure windows with USD totals, read
        off the headline report's Figure 7 windows."""
        report = self._report_for(token).hijackable
        windows = [window for window in report.windows if window.txs]
        windows, limited = self._limit(windows, params)
        if windows is None:
            return error_response(400, "limit must be a non-negative integer")
        return _json_response(
            {
                "count": len(windows),
                "limited": limited,
                "total_usd": report.total_usd,
                "windows": [
                    {
                        "domain_id": window.domain_id,
                        "name": window.name,
                        "wallet": window.wallet,
                        "window_start": window.window_start,
                        "window_end": window.window_end,
                        "tx_count": len(window.txs),
                        "usd_total": window.usd_total(self.oracle),
                    }
                    for window in windows
                ],
            }
        )

    @staticmethod
    def _limit(
        items: list, params: dict[str, str]
    ) -> tuple[list | None, bool]:
        """Apply an optional ``limit=N`` parameter; ``(None, False)`` on a
        malformed value."""
        raw = params.get("limit")
        if raw is None:
            return items, False
        try:
            limit = int(raw)
        except ValueError:
            return None, False
        if limit < 0:
            return None, False
        return items[:limit], len(items) > limit

    # -- introspection -----------------------------------------------------

    @property
    def cache_size(self) -> int:
        """Number of live response-cache entries."""
        return len(self._cache)
