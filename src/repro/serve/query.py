"""Query canonicalization and the versioned response cache.

The server's cache follows the compiled-query-cache idiom: a request is
reduced to one *canonical query text* — path normalized, parameters
sorted, whitespace stripped, ENS names normalized per ENSIP-15 — and
responses are keyed on ``(dataset version token, canonical text)``.
Equivalent request spellings (``?b=2&a=1`` vs ``?a=1&b=2``,
``/domain/GOLD.eth`` vs ``/domain/gold.eth``) therefore share one cache
entry, and any dataset mutation (a version-token move) invalidates the
whole cache at once, so a stale response can never be served.

:class:`QueryCache` itself is deliberately not thread-safe: the
application holds one lock across lookup → compute → store, which both
protects the dict and makes the hit/miss counters *exactly* equal to
``total cacheable requests - distinct canonical queries`` regardless of
client interleaving — the invariant the deterministic concurrency
harness asserts.
"""

from __future__ import annotations

from typing import Callable
from urllib.parse import parse_qsl, quote, unquote

from ..ens.normalize import normalize_name
from ..obs.metrics import MetricsRegistry

__all__ = [
    "QueryCache",
    "canonical_query",
    "split_target",
]

#: Cache lookups by outcome (``hit`` / ``miss``).
CACHE_REQUESTS_METRIC = "serve_cache_requests_total"

#: Times the cache dropped every entry because the dataset version moved.
CACHE_INVALIDATIONS_METRIC = "serve_cache_invalidations_total"

#: Entries handled by a selective migration, by outcome (kept/dropped).
CACHE_MIGRATED_METRIC = "serve_cache_migrated_entries_total"

#: Query parameters whose values are ENS names (normalized into the key).
DOMAIN_PARAMS = frozenset({"name", "domain"})


def split_target(target: str) -> tuple[str, str]:
    """``(path, query)`` of an origin-form request target.

    The path is everything before the first ``?``, with leading
    slashes collapsed to one, so ``//report/summary`` is the path
    ``/report/summary`` (never a network location); the query is
    everything after it.
    """
    path, _, query = target.partition("?")
    return "/" + path.lstrip("/"), query


def canonical_query(path: str, query: str = "") -> str:
    """One canonical text for every equivalent spelling of a request.

    Normalization applied:

    * the path is percent-decoded, each segment's surrounding
      whitespace is stripped, and empty segments (``//``, trailing
      ``/``) collapse away;
    * a ``/domain/<name>`` path normalizes ``<name>`` per ENSIP-15
      (NFC + case folding + validation), so ``/domain/GOLD.eth`` and
      ``/domain/gold.eth`` are the same query;
    * query parameters are percent-decoded, whitespace-stripped,
      sorted by ``(key, value)``, and empty keys/values dropped;
    * parameter values naming domains (:data:`DOMAIN_PARAMS`) are ENS
      normalized like path names;
    * segments, keys, and values are re-percent-encoded (``safe=''``)
      into the canonical text, so a value containing a literal ``&``,
      ``=``, or ``/`` can never collide with a structurally different
      query — the canonical text decodes unambiguously.

    Raises :class:`~repro.chain.errors.InvalidName` when a domain name
    fails ENS validation — the server maps that to a 400, never a cache
    entry.
    """
    segments = [part for part in map(str.strip, unquote(path).split("/")) if part]
    if len(segments) == 2 and segments[0] == "domain":
        segments = ["domain", normalize_name(segments[1])]
    canonical_path = "/" + "/".join(quote(part, safe="") for part in segments)
    params: list[tuple[str, str]] = []
    for key, value in parse_qsl(query, keep_blank_values=False):
        key = key.strip()
        value = value.strip()
        if not key or not value:
            continue
        if key in DOMAIN_PARAMS:
            value = normalize_name(value)
        params.append((key, value))
    params.sort()
    if not params:
        return canonical_path
    encoded = "&".join(
        f"{quote(key, safe='')}={quote(value, safe='')}" for key, value in params
    )
    return f"{canonical_path}?{encoded}"


class QueryCache:
    """Response cache keyed on ``(dataset version token, canonical query)``.

    The *version token* is the dataset's cheap fingerprint (monotonic
    ``version`` counter plus collection sizes, mirroring
    :class:`~repro.core.context.AnalysisContext`). A lookup under a
    token different from the cached one drops every entry first — the
    cache can only ever serve responses computed against the live
    dataset state.

    Not thread-safe on its own; callers serialize lookup/store under
    one lock (see :class:`~repro.serve.app.ReproApp`).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        """Bind hit/miss/invalidation counters in ``registry``."""
        registry = registry if registry is not None else MetricsRegistry()
        requests = registry.counter(
            CACHE_REQUESTS_METRIC,
            "Serve response-cache lookups by outcome",
            labels=("outcome",),
        )
        self._hit = requests.labels(outcome="hit")
        self._miss = requests.labels(outcome="miss")
        self._invalidations = registry.counter(
            CACHE_INVALIDATIONS_METRIC,
            "Times the serve response cache dropped all entries on a"
            " dataset version change",
        )
        migrated = registry.counter(
            CACHE_MIGRATED_METRIC,
            "Serve response-cache entries handled by a selective"
            " migration, by outcome",
            labels=("outcome",),
        )
        self._migrated_kept = migrated.labels(outcome="kept")
        self._migrated_dropped = migrated.labels(outcome="dropped")
        self._token: tuple[int, ...] | None = None
        self._entries: dict[str, object] = {}

    def __len__(self) -> int:
        """Number of live cache entries (for tests and introspection)."""
        return len(self._entries)

    def lookup(self, token: tuple[int, ...], key: str) -> object | None:
        """The cached response for ``key`` under ``token``, or ``None``.

        Counts one hit or one miss; a token change invalidates every
        entry before the lookup (counted once per change, not per
        entry).
        """
        if token != self._token:
            if self._token is not None:
                self._invalidations.inc()
            self._entries = {}
            self._token = token
        entry = self._entries.get(key)
        if entry is None:
            self._miss.inc()
            return None
        self._hit.inc()
        return entry

    def store(self, token: tuple[int, ...], key: str, response: object) -> None:
        """Remember ``response`` for ``key``, unless ``token`` went stale."""
        if token == self._token:
            self._entries[key] = response

    def migrate(
        self, token: tuple[int, ...], keep: "Callable[[str], bool]"
    ) -> None:
        """Move to ``token``, carrying over the entries ``keep`` accepts.

        The delta-aware alternative to the wholesale drop in
        :meth:`lookup`: a caller that knows *what* a dataset mutation
        touched (e.g. a transactions-only delta) migrates the cache to
        the new token, keeping only the entries whose canonical query
        the mutation provably cannot affect (``keep(key) -> bool``).
        Counts each entry as ``kept`` or ``dropped`` in
        ``serve_cache_migrated_entries_total``; does not count a
        wholesale invalidation. A no-op when the token is unchanged.
        """
        if token == self._token:
            return
        carried = {
            key: entry for key, entry in self._entries.items() if keep(key)
        }
        dropped = len(self._entries) - len(carried)
        if carried:
            self._migrated_kept.inc(len(carried))
        if dropped:
            self._migrated_dropped.inc(dropped)
        self._entries = carried
        self._token = token
