"""The assembled study dataset: domains + transactions + market + labels.

The crawler produces one :class:`ENSDataset`; every analysis in
:mod:`repro.core` consumes one, through the same three transaction
reads the columnar store answers: :meth:`ENSDataset.incoming_entry`
(an address's error-free incoming history, grouped once by
:func:`group_incoming`), :meth:`ENSDataset.tx_at` and
:meth:`ENSDataset.ordered_by_timestamp`.

Every mutator bumps :attr:`ENSDataset.version`, a monotonic counter
that derived-artifact caches (:class:`repro.core.context.AnalysisContext`)
use as a cheap dataset fingerprint — see ``docs/PERFORMANCE.md`` for
the invalidation contract.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Hashable,
    Iterable,
    Iterator,
    Sequence,
    TypeVar,
)

from .schema import DomainRecord, MarketEventRecord, TxRecord

if TYPE_CHECKING:
    from .delta import AppliedDelta, DatasetDelta

__all__ = [
    "ENSDataset",
    "DatasetFormatError",
    "DatasetIntegrityError",
    "DatasetNotFoundError",
]

_Address = TypeVar("_Address", bound=Hashable)


class DatasetIntegrityError(ValueError):
    """The dataset violates a structural invariant."""


class DatasetNotFoundError(FileNotFoundError):
    """The directory holds no dataset: it, or its ``meta.json``, is missing."""


class DatasetFormatError(ValueError):
    """A dataset file (``meta.json`` or a JSONL record) does not parse."""


#: Maximum retained append-log entries. A consumer more than this many
#: deltas behind cannot chain forward and falls back to a full rebuild —
#: the log bounds memory, not correctness.
DELTA_LOG_LIMIT = 256


#: Data attributes whose wholesale replacement (``dataset.transactions =
#: [...]``, still used by legacy call sites) must invalidate every
#: derived structure: version, incoming index, dedup set, name index.
_TRACKED_FIELDS = frozenset(
    {
        "domains",
        "transactions",
        "market_events",
        "coinbase_addresses",
        "custodial_addresses",
    }
)


@dataclass
class ENSDataset:
    """Everything the paper's analyses read."""

    domains: dict[str, DomainRecord] = field(default_factory=dict)
    transactions: list[TxRecord] = field(default_factory=list)
    market_events: list[MarketEventRecord] = field(default_factory=list)
    coinbase_addresses: set[str] = field(default_factory=set)
    custodial_addresses: set[str] = field(default_factory=set)  # non-Coinbase
    crawl_timestamp: int = 0

    _incoming: dict[str, list[int]] | None = field(
        default=None, repr=False, compare=False
    )
    _version: int = field(default=0, repr=False, compare=False)
    # Keyed by hash in a dict, not a set: below 50,000 entries a growing
    # set resizes its table to 4x its size, 16 B a slot, while a dict
    # keeps 24 B entries behind small indices. At 19,763 hashes a set
    # takes 2.0 MiB and this dict 0.40 MiB (CPython 3.11).
    _tx_hashes: dict[str, None] = field(
        default_factory=dict, repr=False, compare=False
    )
    _tx_dirty: bool = field(default=False, repr=False, compare=False)
    _names: dict[str, str] | None = field(default=None, repr=False, compare=False)
    _names_token: tuple[int, int] | None = field(
        default=None, repr=False, compare=False
    )
    _delta_log: list[AppliedDelta] = field(
        default_factory=list, repr=False, compare=False
    )
    _delta_cursor: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        # From here on, __setattr__ treats tracked-field assignment as a
        # mutation (the dataclass-generated __init__ ran with the guard off).
        object.__setattr__(self, "_init_done", True)

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name in _TRACKED_FIELDS and getattr(self, "_init_done", False):
            # Direct replacement is a mutation like any other: bump the
            # version so AnalysisContext fingerprints change, and flag
            # every lazily derived structure for rebuild.
            object.__setattr__(self, "_version", self._version + 1)
            object.__setattr__(self, "_incoming", None)
            object.__setattr__(self, "_tx_dirty", True)
            object.__setattr__(self, "_names", None)

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumped by every mutator.

        Derived-artifact caches key on this (plus the collection sizes)
        to decide whether their memoized indexes are still valid.
        Wholesale replacement of a data attribute (``dataset.domains =
        {...}``) counts as a mutation and bumps it too.
        """
        return self._version

    # -- construction ------------------------------------------------------------

    def add_domain(self, domain: DomainRecord) -> None:
        """Insert or replace one domain record."""
        replacing = domain.domain_id in self.domains
        self.domains[domain.domain_id] = domain
        object.__setattr__(self, "_version", self._version + 1)
        if self._names is not None:
            if replacing:
                # The old record's name mapping may now be stale; rebuild
                # lazily on the next domain_by_name call.
                self._names = None
                self._names_token = None
            else:
                # Keep first-wins semantics: a later domain with a
                # duplicate name must not shadow the earlier one.
                self._names.setdefault(domain.name, domain.domain_id)
                self._names_token = (self._version, len(self.domains))

    def add_transactions(self, records: Iterable[TxRecord]) -> None:
        """Append transactions, dropping duplicates by hash.

        Dedup state is kept incrementally in ``_tx_hashes`` so repeated
        batches cost O(batch), not O(total transactions) per call. The
        index is resynced when the transaction list was replaced wholesale
        (``_tx_dirty``, set by ``__setattr__``) — a signal that, unlike
        the old length comparison, also fires when the replacement list
        happens to preserve the length.

        A built incoming index is kept: each new error-free row joins its
        recipient's group after every equal stamp, where a stable regroup
        by :func:`group_incoming` would put it. A resync drops the index
        instead, since rows it never saw may have joined the list.
        """
        if self._tx_dirty or len(self._tx_hashes) != len(self.transactions):
            self._tx_hashes = dict.fromkeys(tx.tx_hash for tx in self.transactions)
            self._tx_dirty = False
            self._incoming = None
        known = self._tx_hashes
        txs = self.transactions
        incoming = self._incoming
        for record in records:
            if record.tx_hash not in known:
                known[record.tx_hash] = None
                txs.append(record)
                if incoming is not None and not record.is_error:
                    insort(
                        incoming.setdefault(record.to_address, []),
                        len(txs) - 1,
                        key=lambda row: txs[row].timestamp,
                    )
        object.__setattr__(self, "_version", self._version + 1)

    def add_market_events(self, records: Iterable[MarketEventRecord]) -> None:
        """Append market events to the dataset."""
        self.market_events.extend(records)
        self._version += 1

    # -- delta ingestion -----------------------------------------------------------

    @property
    def delta_cursor(self) -> int:
        """Monotonic count of deltas ever applied to this dataset.

        Independent of :attr:`version` (which also moves on out-of-band
        mutations) and of log truncation — the cursor of the newest
        retained :class:`AppliedDelta` entry always equals this value.
        """
        return self._delta_cursor

    def apply_delta(self, delta: DatasetDelta) -> AppliedDelta:
        """Append one delta batch through the ordinary mutators, logged.

        Routes domain upserts through :meth:`add_domain`, transactions
        through :meth:`add_transactions` (hash-dedup applies), and
        market events through :meth:`add_market_events`, then records
        the *effective* delta — duplicate transactions stripped — as an
        :class:`AppliedDelta` chain entry. Returns that entry so callers
        (the analysis context, the serve watcher) can mirror exactly
        what the dataset gained.
        """
        from .delta import AppliedDelta, DatasetDelta

        version_before = self._version
        replaced = tuple(
            record.domain_id
            for record in delta.domains
            if record.domain_id in self.domains
        )
        for record in delta.domains:
            self.add_domain(record)
        if delta.transactions:
            appended_from = len(self.transactions)
            self.add_transactions(delta.transactions)
            effective_txs = tuple(self.transactions[appended_from:])
        else:
            effective_txs = ()
        if delta.market_events:
            self.add_market_events(delta.market_events)
        effective = DatasetDelta(
            domains=delta.domains,
            transactions=effective_txs,
            market_events=tuple(delta.market_events),
            label=delta.label,
        )
        object.__setattr__(self, "_delta_cursor", self._delta_cursor + 1)
        applied = AppliedDelta(
            cursor=self._delta_cursor,
            version_before=version_before,
            version_after=self._version,
            delta=effective,
            replaced_domains=replaced,
        )
        self._delta_log.append(applied)
        if len(self._delta_log) > DELTA_LOG_LIMIT:
            del self._delta_log[: len(self._delta_log) - DELTA_LOG_LIMIT]
        return applied

    def deltas_since(
        self, cursor: int, version: int
    ) -> tuple[AppliedDelta, ...] | None:
        """The unbroken delta chain from ``(cursor, version)`` to now.

        Returns the :class:`AppliedDelta` entries a consumer that last
        synced at delta ``cursor`` (observing dataset ``version``) must
        replay to catch up, or ``None`` when no valid chain exists —
        the consumer is older than the retained log, or an out-of-band
        mutation (any version move without a log entry) happened before,
        between, or after the logged deltas. ``None`` means "do a full
        rebuild"; an empty tuple means "already current".
        """
        if cursor == self._delta_cursor:
            return () if version == self._version else None
        entries = [entry for entry in self._delta_log if entry.cursor > cursor]
        if not entries or entries[0].cursor != cursor + 1:
            return None  # truncated past the consumer's position
        if entries[0].version_before != version:
            return None  # unlogged mutation before the first needed delta
        for earlier, later in zip(entries, entries[1:]):
            if later.version_before != earlier.version_after:
                return None  # unlogged mutation between deltas
        if entries[-1].version_after != self._version:
            return None  # unlogged mutation after the newest delta
        return tuple(entries)

    # -- transaction reads ---------------------------------------------------------

    def incoming_entry(
        self, address: str
    ) -> tuple[list[int], list[int], list[str], list[int]]:
        """``address``'s error-free incoming history, oldest first, as
        parallel (stamps, values, senders, rows) lists; ``rows`` are
        positions for :meth:`tx_at`. The lists are the caller's own."""
        if self._incoming is None:
            txs = self.transactions
            self._incoming = group_incoming(
                [tx.to_address for tx in txs],
                [tx.timestamp for tx in txs],
                [tx.is_error for tx in txs],
            )
        rows = list(self._incoming.get(address, ()))
        records = [self.transactions[row] for row in rows]
        return (
            [tx.timestamp for tx in records],
            [tx.value_wei for tx in records],
            [tx.from_address for tx in records],
            rows,
        )

    def tx_at(self, row: int) -> TxRecord:
        """The transaction at position ``row``."""
        return self.transactions[row]

    def ordered_by_timestamp(self, kind: str) -> tuple[list[int], list[int]]:
        """:func:`timestamp_order` of one log, ``"transactions"`` or
        ``"market_events"``."""
        if kind == "transactions":
            records: list = self.transactions
        elif kind == "market_events":
            records = self.market_events
        else:
            raise ValueError(f"unknown log kind {kind!r}")
        return timestamp_order([record.timestamp for record in records])

    # -- views ----------------------------------------------------------------------

    def iter_domains(self) -> Iterator[DomainRecord]:
        """Iterate domain records in insertion order."""
        return iter(self.domains.values())

    def domain_by_name(self, name: str) -> DomainRecord | None:
        """First domain record named ``name``, or None.

        Backed by a name → domain_id index that ``add_domain`` keeps
        current and that any other mutation (version bump, direct
        ``domains`` replacement) invalidates — the lookup is O(1)
        amortized instead of a scan over every domain.
        """
        token = (self._version, len(self.domains))
        if self._names is None or self._names_token != token:
            index: dict[str, str] = {}
            for domain in self.domains.values():
                index.setdefault(domain.name, domain.domain_id)
            self._names = index
            self._names_token = token
        domain_id = self._names.get(name)
        return None if domain_id is None else self.domains.get(domain_id)

    @property
    def domain_count(self) -> int:
        """Number of domain records."""
        return len(self.domains)

    @property
    def transaction_count(self) -> int:
        """Number of transaction records."""
        return len(self.transactions)

    def wallet_addresses(self) -> set[str]:
        """Addresses relevant to transaction crawling: registrants plus
        the wallets domains resolve(d) to."""
        addresses: set[str] = set()
        for domain in self.domains.values():
            for registration in domain.registrations:
                addresses.add(registration.registrant)
            if domain.resolved_address:
                addresses.add(domain.resolved_address)
        return addresses

    # -- integrity ---------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`DatasetIntegrityError` on structural violations."""
        validate_domains(self.domains.values())
        seen_hashes: set[str] = set()
        for tx in self.transactions:
            if tx.tx_hash in seen_hashes:
                raise DatasetIntegrityError(f"duplicate transaction {tx.tx_hash}")
            seen_hashes.add(tx.tx_hash)
            if tx.value_wei < 0:
                raise DatasetIntegrityError(f"negative value in {tx.tx_hash}")
        validate_label_sets(self.coinbase_addresses, self.custodial_addresses)


def group_incoming(
    recipients: Sequence[_Address],
    stamps: Sequence[int],
    errors: Sequence[object],
) -> dict[_Address, list[int]]:
    """Every address's incoming history: the rows of the error-free
    transactions grouped by recipient, each group stable-sorted by
    timestamp (equal stamps keep row order).

    The one definition of that history; both stores build their
    ``incoming_entry`` index with it, from parallel per-row columns.
    """
    groups: dict[_Address, list[int]] = {}
    for row, (recipient, error) in enumerate(zip(recipients, errors)):
        if not error:
            groups.setdefault(recipient, []).append(row)
    for rows in groups.values():
        rows.sort(key=stamps.__getitem__)
    return groups


def timestamp_order(stamps: Sequence[int]) -> tuple[list[int], list[int]]:
    """The stable timestamp-sorted permutation of a log's rows, and the
    sorted stamps: the ``ordered_by_timestamp`` read of both stores."""
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    return order, [stamps[row] for row in order]


def validate_domains(domains: Iterable[DomainRecord]) -> None:
    """The per-domain invariants of :meth:`ENSDataset.validate`, shared
    with the columnar store so both raise the same first failure."""
    for domain in domains:
        if not domain.registrations:
            raise DatasetIntegrityError(
                f"domain {domain.domain_id} has no registrations"
            )
        dates = [r.registration_date for r in domain.registrations]
        if dates != sorted(dates):
            raise DatasetIntegrityError(
                f"domain {domain.domain_id} registrations out of order"
            )
        for registration in domain.registrations:
            if registration.expiry_date <= registration.registration_date:
                raise DatasetIntegrityError(
                    f"registration {registration.registration_id} expires"
                    " before it starts"
                )
            if registration.cost_wei != (
                registration.base_cost_wei + registration.premium_wei
            ):
                raise DatasetIntegrityError(
                    f"registration {registration.registration_id} cost"
                    " split does not add up"
                )


def validate_label_sets(
    coinbase: AbstractSet[str], custodial: AbstractSet[str]
) -> None:
    """No address may be both Coinbase and non-Coinbase custodial."""
    overlap = coinbase & custodial
    if overlap:
        raise DatasetIntegrityError(
            f"{len(overlap)} addresses are both Coinbase and non-Coinbase"
        )
