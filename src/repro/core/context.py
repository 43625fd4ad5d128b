"""Shared analysis index: memoized derived artifacts for the §4 analyses.

Every analysis in :mod:`repro.core` reads the same handful of derived
artifacts — the re-registration event list, per-domain ownership
intervals, per-address transaction arrays, per-(sender → recipient)
payment lists. Recomputing them per analysis makes ``build_report``
effectively O(analyses × events × senders × txs); at paper scale
(3.1M names, 9.7M wallet transactions) that is days of rescanning.

:class:`AnalysisContext` computes each artifact once and serves every
consumer from the cache:

* window queries (``incoming_window``) bisect a parallel timestamp
  vector instead of scanning the address's full history, and answer
  with parallel timestamp/value/sender lists: a
  :class:`~repro.datasets.schema.TxRecord` is built only for the
  positions a caller keeps (:meth:`IncomingTransfers.tx`);
* the §4.4 common-sender heuristic reads pre-grouped
  (sender → recipient) payment lists;
* censoring slices a timestamp-ordered permutation of the transaction
  log instead of filtering it per cutoff.

Caches key on a cheap dataset fingerprint — the monotonic
:attr:`~repro.datasets.dataset.ENSDataset.version` counter plus the
collection sizes — and drop themselves whenever it moves, so a mutated
dataset can never serve stale windows (see ``docs/PERFORMANCE.md``).

Both stores answer the same three transaction reads —
``incoming_entry`` (an address's error-free incoming history, as the
store groups it with :func:`~repro.datasets.dataset.group_incoming`),
``tx_at`` and ``ordered_by_timestamp`` — so the context never asks
which store it holds.

:class:`ScanAccess` implements the same query protocol without
memoization, bisects or grouped payments: each query scans the whole
incoming history of its address, as the store groups it, and the
censoring queries scan the raw logs. It is the executable
specification: ``build_report(..., context=ScanAccess(ds))`` must
produce byte-identical output to the indexed default, and the
golden-equivalence tests assert exactly that.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Callable, Iterator, Sequence

from ..datasets.dataset import ENSDataset
from ..datasets.schema import MarketEventRecord, TxRecord
from ..obs import MetricsRegistry

if TYPE_CHECKING:
    from ..oracle.ethusd import EthUsdOracle
    from .dropcatch import ReRegistration

__all__ = ["AnalysisContext", "DeltaImpact", "ScanAccess"]

CACHE_REQUESTS_METRIC = "analysis_cache_requests_total"
CACHE_INVALIDATIONS_METRIC = "analysis_cache_invalidations_total"
DELTA_APPLIED_METRIC = "context_delta_applied_total"


@dataclass(frozen=True, slots=True)
class DeltaImpact:
    """What a batch of applied deltas touched, for downstream memo owners.

    ``addresses`` are the wallets whose *incoming* history gained
    transactions — the only transaction dependency any §4 analysis
    reads through the context. ``domains`` are the ids whose records
    were inserted or extended. ``market_changed`` flags new marketplace
    events. Consumers that memoize per-item analysis results
    (:class:`~repro.core.increport.IncrementalReportBuilder`) intersect
    their stored dependency sets with these to find dirty items.
    """

    addresses: frozenset[str] = frozenset()
    domains: frozenset[str] = frozenset()
    market_changed: bool = False

    @property
    def empty(self) -> bool:
        """True when the deltas touched nothing (dataset unchanged)."""
        return not (self.addresses or self.domains or self.market_changed)


_EMPTY_IMPACT = DeltaImpact()


@dataclass(frozen=True, slots=True)
class OwnershipInterval:
    """One registration cycle of a domain, with its successor's start.

    ``next_start`` is the registration date of the following cycle, or
    ``None`` for the final (current) cycle — consumers combine it with
    the crawl timestamp to bound release windows.
    """

    registrant: str
    start: int            # registration_date
    end: int              # expiry_date
    next_start: int | None


class IncomingTransfers:
    """A selection of the successful transfers one address received,
    oldest first, as parallel lists.

    ``stamps``, ``values`` and ``senders`` hold each transfer's
    timestamp, wei value and sender address; :meth:`tx` returns the
    full record of one position. Every selection of one address shares
    one record list, which holds the store's row number until :meth:`tx`
    first asks for the record: a pass that reads only the lists builds
    no record, and no row is built twice. A selection stays valid until
    the dataset next changes.
    """

    __slots__ = ("stamps", "values", "senders", "_records", "_positions", "_build")

    def __init__(
        self,
        stamps: list[int],
        values: list[int],
        senders: list[str],
        records: "list[TxRecord | int]",
        positions: Sequence[int] | None = None,
        build: Callable[[int], TxRecord] | None = None,
    ) -> None:
        self.stamps = stamps
        self.values = values
        self.senders = senders
        self._records = records
        self._positions = range(len(stamps)) if positions is None else positions
        self._build = build

    @classmethod
    def of_records(cls, txs: list[TxRecord]) -> "IncomingTransfers":
        """The transfers of already-built records, in their order (the
        selection keeps ``txs`` itself, not a copy)."""
        return cls(
            [tx.timestamp for tx in txs],
            [tx.value_wei for tx in txs],
            [tx.from_address for tx in txs],
            txs,
        )

    def __len__(self) -> int:
        return len(self.stamps)

    def tx(self, position: int) -> TxRecord:
        """The :class:`TxRecord` at ``position``, built on first use."""
        index = self._positions[position]
        record = self._records[index]
        if type(record) is int:
            record = self._records[index] = self._build(record)
        return record

    def txs(self) -> list[TxRecord]:
        """Every record of the selection, in order."""
        return [self.tx(position) for position in range(len(self.stamps))]

    def window(self, start: int | None, end: int | None) -> "IncomingTransfers":
        """The transfers with ``start <= timestamp <= end`` (``None``
        bounds are open): two bisects and three slices."""
        stamps = self.stamps
        lo = 0 if start is None else bisect_left(stamps, start)
        hi = len(stamps) if end is None else bisect_right(stamps, end)
        return IncomingTransfers(
            stamps[lo:hi],
            self.values[lo:hi],
            self.senders[lo:hi],
            self._records,
            self._positions[lo:hi],
            self._build,
        )

    def select(self, positions: list[int]) -> "IncomingTransfers":
        """The transfers at ``positions`` (ascending)."""
        return IncomingTransfers(
            [self.stamps[p] for p in positions],
            [self.values[p] for p in positions],
            [self.senders[p] for p in positions],
            self._records,
            [self._positions[p] for p in positions],
            self._build,
        )

    def insert(self, tx: TxRecord) -> None:
        """Insert an appended record into every list of a whole history.

        Appended records come after every equal timestamp already
        present (stable-sort order), so ``bisect_right`` lands them
        exactly where a rebuild would.
        """
        position = bisect_right(self.stamps, tx.timestamp)
        self.stamps.insert(position, tx.timestamp)
        self.values.insert(position, tx.value_wei)
        self.senders.insert(position, tx.from_address)
        self._records.insert(position, tx)
        self._positions = range(len(self.stamps))


class AnalysisContext:
    """Invalidation-aware cache of derived analysis artifacts.

    One context is built per report run (or long-lived per dataset —
    mutations are detected via the dataset fingerprint) and threaded
    through every analysis. All query methods return exactly what the
    legacy full-scan code computed, in the same order; only the cost
    changes.
    """

    def __init__(
        self,
        dataset: ENSDataset,
        oracle: "EthUsdOracle | None" = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.dataset = dataset
        self.oracle = oracle
        self._registry = registry if registry is not None else MetricsRegistry()
        requests = self._registry.counter(
            CACHE_REQUESTS_METRIC,
            "AnalysisContext cache lookups by cache name and outcome",
            labels=("cache", "outcome"),
        )
        self._hit = {
            name: requests.labels(cache=name, outcome="hit")
            for name in ("events", "intervals", "incoming", "payments", "tx_order")
        }
        self._miss = {
            name: requests.labels(cache=name, outcome="miss")
            for name in ("events", "intervals", "incoming", "payments", "tx_order")
        }
        self._invalidations = self._registry.counter(
            CACHE_INVALIDATIONS_METRIC,
            "Times the AnalysisContext dropped its caches on dataset mutation",
        )
        self._delta_applied = self._registry.counter(
            DELTA_APPLIED_METRIC,
            "Dataset deltas the AnalysisContext applied in place (O(delta))"
            " instead of dropping every cache",
        )
        self._fingerprint: tuple[int, int, int, int] | None = None
        self._cursor: int = 0
        self._pinned = False
        self._events: "list[ReRegistration] | None" = None
        self._events_by_domain: "dict[str, tuple[ReRegistration, ...]] | None" = None
        self._intervals: dict[str, tuple[OwnershipInterval, ...]] = {}
        self._incoming: dict[str, IncomingTransfers] = {}
        self._payments: dict[str, tuple[IncomingTransfers, dict[str, list[int]]]] = {}
        self._tx_order: tuple[list[int], list[int]] | None = None
        self._event_order: tuple[list[int], list[int]] | None = None

    # -- invalidation ------------------------------------------------------

    def _current_fingerprint(self) -> tuple[int, int, int, int]:
        dataset = self.dataset
        return (
            dataset.version,
            len(dataset.domains),
            len(dataset.transactions),
            len(dataset.market_events),
        )

    def _invalidate(self, fingerprint: tuple[int, int, int, int]) -> None:
        """Drop every cache (the non-delta mutation path)."""
        if self._fingerprint is not None:
            self._invalidations.inc()
        self._fingerprint = fingerprint
        self._cursor = getattr(self.dataset, "delta_cursor", 0)
        self._events = None
        self._events_by_domain = None
        self._intervals.clear()
        self._incoming.clear()
        self._payments.clear()
        self._tx_order = None
        self._event_order = None

    def sync(self) -> DeltaImpact | None:
        """Bring every cache up to the live dataset state.

        Three outcomes:

        * the dataset did not move — returns an empty
          :class:`DeltaImpact` and touches nothing;
        * the dataset moved *only* through logged deltas
          (:meth:`~repro.datasets.dataset.ENSDataset.apply_delta`) —
          patches the bisect vectors, per-address windows, rereg-event
          memo, and interval cache in O(delta) and returns the
          accumulated :class:`DeltaImpact` (counted in
          ``context_delta_applied_total``);
        * the chain is broken (out-of-band mutation, columnar store,
          consumer older than the retained log) — drops every cache
          like the classic invalidation path and returns ``None``.

        Every query method calls this outside :meth:`synced`, so the
        delta path is transparent to existing callers; delta-aware
        consumers call it directly to learn what changed.
        """
        fingerprint = self._current_fingerprint()
        if fingerprint == self._fingerprint:
            return _EMPTY_IMPACT
        entries = None
        if self._fingerprint is not None:
            deltas_since = getattr(self.dataset, "deltas_since", None)
            if deltas_since is not None:
                entries = deltas_since(self._cursor, self._fingerprint[0])
        if not entries:
            self._invalidate(fingerprint)
            return None
        impact = self._apply_entries(entries)
        self._fingerprint = fingerprint
        self._cursor = entries[-1].cursor
        self._delta_applied.inc(len(entries))
        return impact

    def _apply_entries(self, entries: tuple) -> DeltaImpact:
        """Patch every live cache with the chain's records, in order."""
        from .dropcatch import iter_reregistrations

        assert self._fingerprint is not None
        addresses: set[str] = set()
        touched_domains: set[str] = set()
        market_changed = False
        tx_index = self._fingerprint[2]
        event_index = self._fingerprint[3]
        for applied in entries:
            delta = applied.delta
            for tx in delta.transactions:
                if not tx.is_error:
                    addresses.add(tx.to_address)
                    entry = self._incoming.get(tx.to_address)
                    if entry is not None:
                        entry.insert(tx)
                if self._tx_order is not None:
                    order, stamps = self._tx_order
                    position = bisect_right(stamps, tx.timestamp)
                    order.insert(position, tx_index)
                    stamps.insert(position, tx.timestamp)
                tx_index += 1
            for event in delta.market_events:
                market_changed = True
                if self._event_order is not None:
                    order, stamps = self._event_order
                    position = bisect_right(stamps, event.timestamp)
                    order.insert(position, event_index)
                    stamps.insert(position, event.timestamp)
                event_index += 1
            for record in delta.domains:
                touched_domains.add(record.domain_id)
                self._intervals.pop(record.domain_id, None)
        for address in addresses:
            self._payments.pop(address, None)
        if touched_domains and self._events is not None:
            self._refresh_events(touched_domains, iter_reregistrations)
        return DeltaImpact(
            addresses=frozenset(addresses),
            domains=frozenset(touched_domains),
            market_changed=market_changed,
        )

    def _refresh_events(self, touched: set[str], iter_events) -> None:
        """Recompute the rereg events of ``touched`` domains only.

        The flat event list is rebuilt (in domain insertion order) only
        when some touched domain's event tuple actually changed value —
        otherwise ``self._events`` keeps its *object identity*, which is
        the contract delta-aware consumers use to detect "the event list
        is exactly what I saw last time" without comparing values.
        """
        assert self._events_by_domain is not None
        changed = False
        for domain_id in sorted(touched):
            record = self.dataset.domains.get(domain_id)
            new = tuple(iter_events(record)) if record is not None else ()
            old = self._events_by_domain.get(domain_id, ())
            if new != old:
                changed = True
                if new:
                    self._events_by_domain[domain_id] = new
                else:
                    self._events_by_domain.pop(domain_id, None)
        if changed:
            by_domain = self._events_by_domain
            self._events = [
                event
                for domain in self.dataset.iter_domains()
                for event in by_domain.get(domain.domain_id, ())
            ]

    @contextmanager
    def synced(self) -> Iterator[DeltaImpact | None]:
        """:meth:`sync` once, then answer every query in the block
        without re-checking the fingerprint.

        For a caller that holds the dataset still for the whole block,
        as :meth:`~repro.core.increport.IncrementalReportBuilder.refresh`
        does for one report; queries outside the block sync as before.
        Yields what :meth:`sync` returned.
        """
        impact = self.sync()
        self._pinned = True
        try:
            yield impact
        finally:
            self._pinned = False

    def _ensure_fresh(self) -> None:
        if not self._pinned:
            self.sync()

    # -- derived artifacts -------------------------------------------------

    def reregistrations(self) -> "list[ReRegistration]":
        """The dataset's dropcatch events, memoized (domain order).

        The returned list object is *identity-stable*: it is replaced
        only when the event list's value changes (or on a full
        invalidation), never gratuitously — incremental consumers rely
        on ``events is previous_events`` as a cheap no-change check.
        """
        from .dropcatch import find_reregistrations

        self._ensure_fresh()
        if self._events is None:
            self._miss["events"].inc()
            self._events = find_reregistrations(self.dataset)
            by_domain: dict[str, list] = {}
            for event in self._events:
                by_domain.setdefault(event.domain_id, []).append(event)
            self._events_by_domain = {
                domain_id: tuple(events)
                for domain_id, events in by_domain.items()
            }
        else:
            self._hit["events"].inc()
        return self._events

    def ownership_intervals(self, domain_id: str) -> tuple[OwnershipInterval, ...]:
        """Registration cycles of one domain as :class:`OwnershipInterval`."""
        self._ensure_fresh()
        cached = self._intervals.get(domain_id)
        if cached is not None:
            self._hit["intervals"].inc()
            return cached
        self._miss["intervals"].inc()
        domain = self.dataset.domains.get(domain_id)
        registrations = domain.registrations if domain is not None else []
        intervals = tuple(
            OwnershipInterval(
                registrant=registration.registrant,
                start=registration.registration_date,
                end=registration.expiry_date,
                next_start=(
                    registrations[position + 1].registration_date
                    if position + 1 < len(registrations)
                    else None
                ),
            )
            for position, registration in enumerate(registrations)
        )
        self._intervals[domain_id] = intervals
        return intervals

    def _incoming_entry(self, address: str) -> IncomingTransfers:
        cached = self._incoming.get(address)
        if cached is not None:
            self._hit["incoming"].inc()
            return cached
        self._miss["incoming"].inc()
        stamps, values, senders, rows = self.dataset.incoming_entry(address)
        entry = IncomingTransfers(
            stamps, values, senders, rows, build=self.dataset.tx_at
        )
        self._incoming[address] = entry
        return entry

    def incoming_window(
        self, address: str, start: int | None, end: int | None
    ) -> IncomingTransfers:
        """Successful transfers received by ``address`` with
        ``start <= timestamp <= end`` (``None`` bounds are open), oldest
        first — a bisect slice of the cached parallel lists."""
        self._ensure_fresh()
        return self._incoming_entry(address).window(start, end)

    def senders_in_window(
        self,
        address: str,
        start: int | None,
        end: int | None,
        positive_only: bool = True,
    ) -> set[str]:
        """Distinct senders to ``address`` within the window."""
        window = self.incoming_window(address, start, end)
        if positive_only:
            return {
                sender
                for sender, value in zip(window.senders, window.values)
                if value > 0
            }
        return set(window.senders)

    def _payment_groups(
        self, recipient: str
    ) -> tuple[IncomingTransfers, dict[str, list[int]]]:
        """``recipient``'s history and the positions of each sender's
        positive-value payments in it, grouped once and memoized."""
        self._ensure_fresh()
        cached = self._payments.get(recipient)
        if cached is not None:
            self._hit["payments"].inc()
            return cached
        self._miss["payments"].inc()
        entry = self._incoming_entry(recipient)
        grouped: dict[str, list[int]] = {}
        for position, (sender, value) in enumerate(
            zip(entry.senders, entry.values)
        ):
            if value > 0:
                grouped.setdefault(sender, []).append(position)
        self._payments[recipient] = (entry, grouped)
        return entry, grouped

    def payments(self, sender: str, recipient: str) -> IncomingTransfers:
        """Positive-value ``sender → recipient`` transfers, oldest first.

        Grouped once per recipient and memoized; repeated candidate
        probes in the §4.4 detector become dict lookups, and a record
        is built only where the caller asks for one.
        """
        entry, grouped = self._payment_groups(recipient)
        return entry.select(grouped.get(sender, []))

    def payers(self, recipient: str) -> AbstractSet[str]:
        """Every sender with a positive-value transfer to ``recipient``."""
        return self._payment_groups(recipient)[1].keys()

    def transactions_until(self, cutoff: int) -> list[TxRecord]:
        """Transactions with ``timestamp <= cutoff``, in insertion order."""
        self._ensure_fresh()
        if self._tx_order is None:
            self._miss["tx_order"].inc()
            self._tx_order = self.dataset.ordered_by_timestamp("transactions")
        else:
            self._hit["tx_order"].inc()
        order, stamps = self._tx_order
        count = bisect_right(stamps, cutoff)
        transactions = self.dataset.transactions
        return [transactions[i] for i in sorted(order[:count])]

    def market_events_until(self, cutoff: int) -> list[MarketEventRecord]:
        """Market events with ``timestamp <= cutoff``, in insertion order."""
        self._ensure_fresh()
        if self._event_order is None:
            self._miss["tx_order"].inc()
            self._event_order = self.dataset.ordered_by_timestamp("market_events")
        else:
            self._hit["tx_order"].inc()
        order, stamps = self._event_order
        count = bisect_right(stamps, cutoff)
        events = self.dataset.market_events
        return [events[i] for i in sorted(order[:count])]


class ScanAccess:
    """Memo-free reference implementation of the context protocol.

    Answers every transfer query by scanning the address's whole
    incoming history — the store's ``incoming_entry`` rows, read
    through ``tx_at`` on every query — with no bisect, window slice or
    payment grouping, and the censoring queries by filtering the raw
    logs. The history itself is the store's grouping
    (:func:`~repro.datasets.dataset.group_incoming`), which the indexed
    context shares. Exists so equivalence is a one-line assertion: the
    same analysis body run against :class:`ScanAccess` and
    :class:`AnalysisContext` must agree byte-for-byte.
    """

    def __init__(
        self, dataset: ENSDataset, oracle: "EthUsdOracle | None" = None
    ) -> None:
        self.dataset = dataset
        self.oracle = oracle

    @contextmanager
    def synced(self) -> Iterator[None]:
        """Nothing is cached, so every report refresh is a full rebuild."""
        yield None

    def reregistrations(self) -> "list[ReRegistration]":
        """Recompute the dropcatch events from scratch."""
        from .dropcatch import find_reregistrations

        return find_reregistrations(self.dataset)

    def ownership_intervals(self, domain_id: str) -> tuple[OwnershipInterval, ...]:
        """Registration cycles of one domain, computed on the fly."""
        domain = self.dataset.domains.get(domain_id)
        registrations = domain.registrations if domain is not None else []
        return tuple(
            OwnershipInterval(
                registrant=registration.registrant,
                start=registration.registration_date,
                end=registration.expiry_date,
                next_start=(
                    registrations[position + 1].registration_date
                    if position + 1 < len(registrations)
                    else None
                ),
            )
            for position, registration in enumerate(registrations)
        )

    def _history(self, address: str) -> list[TxRecord]:
        """Every record of ``address``'s incoming history, oldest first."""
        rows = self.dataset.incoming_entry(address)[3]
        return [self.dataset.tx_at(row) for row in rows]

    def incoming_window(
        self, address: str, start: int | None, end: int | None
    ) -> IncomingTransfers:
        """Full scan of the address's incoming history."""
        return IncomingTransfers.of_records(
            [
                tx
                for tx in self._history(address)
                if (start is None or tx.timestamp >= start)
                and (end is None or tx.timestamp <= end)
            ]
        )

    def senders_in_window(
        self,
        address: str,
        start: int | None,
        end: int | None,
        positive_only: bool = True,
    ) -> set[str]:
        """Distinct senders within the window, by full scan."""
        return {
            tx.from_address
            for tx in self._history(address)
            if (start is None or tx.timestamp >= start)
            and (end is None or tx.timestamp <= end)
            and (not positive_only or tx.value_wei > 0)
        }

    def payments(self, sender: str, recipient: str) -> IncomingTransfers:
        """Positive-value sender → recipient transfers, by full scan."""
        return IncomingTransfers.of_records(
            [
                tx
                for tx in self._history(recipient)
                if tx.from_address == sender and tx.value_wei > 0
            ]
        )

    def payers(self, recipient: str) -> AbstractSet[str]:
        """Every positive-value sender to ``recipient``, by full scan."""
        return self.senders_in_window(recipient, None, None)

    def transactions_until(self, cutoff: int) -> list[TxRecord]:
        """Filter the transaction log in insertion order."""
        return [
            tx for tx in self.dataset.transactions if tx.timestamp <= cutoff
        ]

    def market_events_until(self, cutoff: int) -> list[MarketEventRecord]:
        """Filter the market-event log in insertion order."""
        return [
            event
            for event in self.dataset.market_events
            if event.timestamp <= cutoff
        ]
