"""Array-backed columnar dataset store with mmap persistence.

The object graph (:class:`~repro.datasets.dataset.ENSDataset` holding
lists of per-row dataclasses) is the scale ceiling for 100k–1M-domain
runs: per-object overhead dominates memory and pointer chasing
dominates scan time. This module stores the same records as packed
column vectors — one stdlib-typed array per field — with every string
(address, domain name, tx hash) interned once into a shared pool, and
persists them in a versioned binary file (``RCOL``) that is written
atomically and opened via :mod:`mmap`:

* **O(1) open** — :meth:`ColumnarDataset.open` parses a fixed-size
  header and section directory and wraps each section in a zero-copy
  ``memoryview`` cast; no row is touched until an analysis asks for it.
* **Identical analysis output** — :class:`ColumnarDataset` implements
  the read surface of :class:`~repro.datasets.dataset.ENSDataset`
  (``domains`` mapping, ``transactions`` / ``market_events``
  sequences, ``iter_domains`` …, and the three transaction reads
  ``incoming_entry`` / ``tx_at`` / ``ordered_by_timestamp``, answered
  off the integer columns), materializing record dataclasses lazily,
  in the same order, with the same values — ``build_report`` over
  either store is byte-identical, and the CI determinism gate asserts
  exactly that.

Wei amounts may exceed 64 bits (total ETH supply is ~1.2e26 wei), so
every ``*_wei`` column is stored as a ``(hi, lo)`` pair of unsigned
64-bit vectors — exact for values below 2**128.

See ``docs/PERFORMANCE.md`` ("The columnar store") for the file-format
layout and guidance on when to pass ``--store columnar``.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from array import array
from collections.abc import Mapping, Sequence
from functools import cached_property
from pathlib import Path
from typing import Any, Iterator

from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, global_registry
from ..obs.tracing import Tracer
from .dataset import (
    DatasetIntegrityError,
    ENSDataset,
    group_incoming,
    timestamp_order,
    validate_domains,
    validate_label_sets,
)
from .schema import DomainRecord, MarketEventRecord, RegistrationRecord, TxRecord

__all__ = [
    "ColumnarDataset",
    "ColumnarFormatError",
    "encode_dataset",
    "write_columnar",
]

_log = get_logger("datasets.columnar")

#: File magic + container version. Bump the version on any layout change;
#: readers reject versions they do not understand instead of guessing.
_MAGIC = b"RCOL"
_FORMAT_VERSION = 1

#: Header: magic, u16 version, u16 reserved, u32 section count.
_HEADER = struct.Struct("<4sHHI")

#: Directory entry: section name (16 bytes, NUL-padded ASCII), dtype
#: code (1 byte), 7 pad bytes, then u64 offset / element count / bytes.
_DIRENT = struct.Struct("<16sc7xQQQ")

#: Pool id meaning "this optional string is None".
_NULL_ID = 0xFFFF_FFFF

#: dtype code -> memoryview cast format. ``S`` (raw bytes) and ``J``
#: (UTF-8 JSON) sections stay uncast.
_CASTS = {b"q": "q", b"Q": "Q", b"I": "I", b"B": "B"}

#: struct.calcsize per cast format, for directory validation.
_ITEM_SIZES = {"q": 8, "Q": 8, "I": 4, "B": 1}

#: The transaction columns, in :class:`TxRecord` field order (the wei
#: value takes two). :meth:`ColumnarDataset.tx_at` binds them once.
_TX_COLUMNS = (
    "tx_hash", "tx_block", "tx_ts", "tx_from", "tx_to",
    "tx_val_hi", "tx_val_lo", "tx_err",
)

#: Typed-section name prefix -> the meta ``counts`` entry its element
#: count must equal; an ``*_offs`` section holds one bound more.
_COUNT_FAMILIES = (
    ("pool_", "poolStrings"),
    ("dom_", "domains"),
    ("reg_", "registrations"),
    ("tx_", "transactions"),
    ("ev_", "marketEvents"),
)

POOL_HITS_METRIC = "columnar_pool_hits_total"
POOL_MISSES_METRIC = "columnar_pool_misses_total"
BYTES_PER_DOMAIN_METRIC = "columnar_bytes_per_domain"


class ColumnarFormatError(ValueError):
    """The buffer is not a readable RCOL container."""


class ColumnarImmutableError(TypeError):
    """A mutator was called on the read-only columnar store."""

    def __init__(self, operation: str) -> None:
        super().__init__(
            f"ColumnarDataset is read-only ({operation} is not supported);"
            " mutate an ENSDataset and re-encode it with"
            " encode_dataset()/write_columnar() or `repro dataset pack`"
        )


def _split_wei(value: int, column: str) -> tuple[int, int]:
    """A wei amount as a ``(hi, lo)`` pair of unsigned 64-bit halves."""
    if value < 0 or value >= 1 << 128:
        raise ColumnarFormatError(
            f"{column}: wei value {value} outside the storable [0, 2**128)"
        )
    return value >> 64, value & 0xFFFF_FFFF_FFFF_FFFF


class _StringPool:
    """Encode-side interning: every distinct string is stored once.

    Ids are assigned in first-appearance order, which keeps the encoded
    bytes a pure function of the dataset — no hash-order leaks into the
    file (or into its digest).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._ids: dict[str, int] = {}
        self.strings: list[str] = []
        self._hits = registry.counter(
            POOL_HITS_METRIC,
            "String-pool intern requests answered by an existing entry",
        )
        self._misses = registry.counter(
            POOL_MISSES_METRIC,
            "String-pool intern requests that created a new entry",
        )

    def intern(self, value: str | None) -> int:
        """The pool id of ``value`` (``None`` maps to the null id)."""
        if value is None:
            return _NULL_ID
        existing = self._ids.get(value)
        if existing is not None:
            self._hits.inc()
            return existing
        self._misses.inc()
        new_id = len(self.strings)
        if new_id >= _NULL_ID:
            raise ColumnarFormatError("string pool overflow (2**32-1 entries)")
        self._ids[value] = new_id
        self.strings.append(value)
        return new_id


def _pack_sections(sections: list[tuple[str, bytes, bytes]]) -> bytes:
    """Assemble header + directory + 8-byte-aligned payload sections."""
    header_size = _HEADER.size + _DIRENT.size * len(sections)
    directory = bytearray()
    payload = bytearray()
    for name, dtype, data in sections:
        encoded_name = name.encode("ascii")
        if len(encoded_name) > 16:
            raise ColumnarFormatError(f"section name too long: {name}")
        while (header_size + len(payload)) % 8:
            payload.append(0)
        offset = header_size + len(payload)
        cast = _CASTS.get(dtype)
        count = len(data) // _ITEM_SIZES[cast] if cast else len(data)
        directory += _DIRENT.pack(
            encoded_name.ljust(16, b"\0"), dtype, offset, count, len(data)
        )
        payload += data
    return (
        _HEADER.pack(_MAGIC, _FORMAT_VERSION, 0, len(sections))
        + bytes(directory)
        + bytes(payload)
    )


def encode_dataset(
    dataset: ENSDataset,
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> bytes:
    """Encode a dataset into the RCOL columnar container format.

    The encoding is canonical: two datasets that would serialize to the
    same JSONL directory encode to the same bytes (rows in insertion
    order, label sets sorted, pool ids in first-appearance order).
    """
    registry = registry if registry is not None else global_registry()
    tracer = tracer if tracer is not None else Tracer()
    with tracer.span("columnar.encode", domains=len(dataset.domains)):
        blob = _encode_body(dataset, registry)
    registry.gauge(
        BYTES_PER_DOMAIN_METRIC,
        "Encoded columnar bytes per domain record",
    ).set(len(blob) / max(1, len(dataset.domains)))
    return blob


def _encode_body(dataset: ENSDataset, registry: MetricsRegistry) -> bytes:
    """The un-instrumented encode: columns, pool, meta, container."""
    pool = _StringPool(registry)

    dom_id = array("I")
    dom_name = array("I")
    dom_label = array("I")
    dom_labelhash = array("I")
    dom_created = array("q")
    dom_owner = array("I")
    dom_resolved = array("I")
    dom_subdomains = array("q")
    dom_reg_offsets = array("Q", [0])

    reg_id = array("I")
    reg_registrant = array("I")
    reg_date = array("q")
    reg_expiry = array("q")
    reg_cost_hi = array("Q")
    reg_cost_lo = array("Q")
    reg_base_hi = array("Q")
    reg_base_lo = array("Q")
    reg_prem_hi = array("Q")
    reg_prem_lo = array("Q")

    for domain in dataset.domains.values():
        dom_id.append(pool.intern(domain.domain_id))
        dom_name.append(pool.intern(domain.name))
        dom_label.append(pool.intern(domain.label_name))
        dom_labelhash.append(pool.intern(domain.labelhash))
        dom_created.append(domain.created_at)
        dom_owner.append(pool.intern(domain.owner))
        dom_resolved.append(pool.intern(domain.resolved_address))
        dom_subdomains.append(domain.subdomain_count)
        for registration in domain.registrations:
            reg_id.append(pool.intern(registration.registration_id))
            reg_registrant.append(pool.intern(registration.registrant))
            reg_date.append(registration.registration_date)
            reg_expiry.append(registration.expiry_date)
            hi, lo = _split_wei(registration.cost_wei, "cost_wei")
            reg_cost_hi.append(hi)
            reg_cost_lo.append(lo)
            hi, lo = _split_wei(registration.base_cost_wei, "base_cost_wei")
            reg_base_hi.append(hi)
            reg_base_lo.append(lo)
            hi, lo = _split_wei(registration.premium_wei, "premium_wei")
            reg_prem_hi.append(hi)
            reg_prem_lo.append(lo)
        dom_reg_offsets.append(len(reg_id))

    tx_hash = array("I")
    tx_block = array("q")
    tx_ts = array("q")
    tx_from = array("I")
    tx_to = array("I")
    tx_val_hi = array("Q")
    tx_val_lo = array("Q")
    tx_err = array("B")
    for tx in dataset.transactions:
        tx_hash.append(pool.intern(tx.tx_hash))
        tx_block.append(tx.block_number)
        tx_ts.append(tx.timestamp)
        tx_from.append(pool.intern(tx.from_address))
        tx_to.append(pool.intern(tx.to_address))
        hi, lo = _split_wei(tx.value_wei, "value_wei")
        tx_val_hi.append(hi)
        tx_val_lo.append(lo)
        tx_err.append(1 if tx.is_error else 0)

    ev_token = array("I")
    ev_type = array("I")
    ev_ts = array("q")
    ev_maker = array("I")
    ev_taker = array("I")
    ev_price_hi = array("Q")
    ev_price_lo = array("Q")
    for event in dataset.market_events:
        ev_token.append(pool.intern(event.token_id))
        ev_type.append(pool.intern(event.event_type))
        ev_ts.append(event.timestamp)
        ev_maker.append(pool.intern(event.maker))
        ev_taker.append(pool.intern(event.taker))
        hi, lo = _split_wei(event.price_wei, "price_wei")
        ev_price_hi.append(hi)
        ev_price_lo.append(lo)

    # Label sets are interned in sorted order so pool ids (and therefore
    # the file bytes) never depend on set iteration order.
    coinbase_ids = [pool.intern(a) for a in sorted(dataset.coinbase_addresses)]
    custodial_ids = [
        pool.intern(a) for a in sorted(dataset.custodial_addresses)
    ]

    pool_offsets = array("Q", [0])
    pool_blob = bytearray()
    for text in pool.strings:
        pool_blob += text.encode("utf-8")
        pool_offsets.append(len(pool_blob))

    meta = {
        "crawlTimestamp": dataset.crawl_timestamp,
        "coinbase": coinbase_ids,
        "custodial": custodial_ids,
        "counts": {
            "domains": len(dom_id),
            "registrations": len(reg_id),
            "transactions": len(tx_hash),
            "marketEvents": len(ev_token),
            "poolStrings": len(pool.strings),
        },
    }

    sections: list[tuple[str, bytes, bytes]] = [
        ("pool_offs", b"Q", pool_offsets.tobytes()),
        ("pool_blob", b"S", bytes(pool_blob)),
        ("dom_id", b"I", dom_id.tobytes()),
        ("dom_name", b"I", dom_name.tobytes()),
        ("dom_label", b"I", dom_label.tobytes()),
        ("dom_labelhash", b"I", dom_labelhash.tobytes()),
        ("dom_created", b"q", dom_created.tobytes()),
        ("dom_owner", b"I", dom_owner.tobytes()),
        ("dom_resolved", b"I", dom_resolved.tobytes()),
        ("dom_subdoms", b"q", dom_subdomains.tobytes()),
        ("dom_reg_offs", b"Q", dom_reg_offsets.tobytes()),
        ("reg_id", b"I", reg_id.tobytes()),
        ("reg_registrant", b"I", reg_registrant.tobytes()),
        ("reg_date", b"q", reg_date.tobytes()),
        ("reg_expiry", b"q", reg_expiry.tobytes()),
        ("reg_cost_hi", b"Q", reg_cost_hi.tobytes()),
        ("reg_cost_lo", b"Q", reg_cost_lo.tobytes()),
        ("reg_base_hi", b"Q", reg_base_hi.tobytes()),
        ("reg_base_lo", b"Q", reg_base_lo.tobytes()),
        ("reg_prem_hi", b"Q", reg_prem_hi.tobytes()),
        ("reg_prem_lo", b"Q", reg_prem_lo.tobytes()),
        ("tx_hash", b"I", tx_hash.tobytes()),
        ("tx_block", b"q", tx_block.tobytes()),
        ("tx_ts", b"q", tx_ts.tobytes()),
        ("tx_from", b"I", tx_from.tobytes()),
        ("tx_to", b"I", tx_to.tobytes()),
        ("tx_val_hi", b"Q", tx_val_hi.tobytes()),
        ("tx_val_lo", b"Q", tx_val_lo.tobytes()),
        ("tx_err", b"B", tx_err.tobytes()),
        ("ev_token", b"I", ev_token.tobytes()),
        ("ev_type", b"I", ev_type.tobytes()),
        ("ev_ts", b"q", ev_ts.tobytes()),
        ("ev_maker", b"I", ev_maker.tobytes()),
        ("ev_taker", b"I", ev_taker.tobytes()),
        ("ev_price_hi", b"Q", ev_price_hi.tobytes()),
        ("ev_price_lo", b"Q", ev_price_lo.tobytes()),
        ("meta", b"J", json.dumps(meta, sort_keys=True).encode("utf-8")),
    ]
    return _pack_sections(sections)


def write_columnar(
    dataset: ENSDataset,
    path: str | Path,
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> Path:
    """Encode ``dataset`` and write it to ``path`` atomically.

    The bytes land in a same-directory temp file first and are moved
    into place with :func:`os.replace`, so a reader (or a crashed
    writer) can never observe a half-written container.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = encode_dataset(dataset, registry=registry, tracer=tracer)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    _log.info(
        "columnar.written",
        path=str(path),
        bytes=len(blob),
        domains=len(dataset.domains),
    )
    return path


class _DomainsView(Mapping):
    """Read-only ``domain_id -> DomainRecord`` mapping over the columns.

    Iteration order is row order, i.e. the insertion order of the
    source dataset's ``domains`` dict — analyses that scan
    ``domains.values()`` see records in exactly the same sequence.
    """

    def __init__(self, store: "ColumnarDataset") -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.domain_count

    def __iter__(self) -> Iterator[str]:
        store = self._store
        ids = store.col("dom_id")
        for row in range(store.domain_count):
            yield store.pool_str(ids[row])

    def __getitem__(self, domain_id: str) -> DomainRecord:
        row = self._store.domain_row(domain_id)
        if row is None:
            raise KeyError(domain_id)
        return self._store.domain_at(row)

    def values(self) -> Iterator[DomainRecord]:  # type: ignore[override]
        """Domain records in row (insertion) order, lazily materialized."""
        store = self._store
        for row in range(store.domain_count):
            yield store.domain_at(row)


class _RecordColumn(Sequence):
    """A list-compatible sequence that materializes one record per access."""

    def __init__(self, store: "ColumnarDataset", kind: str, length: int) -> None:
        self._store = store
        self._kind = kind
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return [self._materialize(i) for i in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._materialize(index)

    def _materialize(self, row: int) -> Any:
        if self._kind == "tx":
            return self._store.tx_at(row)
        return self._store.event_at(row)


class ColumnarDataset:
    """Zero-copy columnar view implementing the ENSDataset read surface.

    Backed either by an ``mmap`` of an RCOL file (:meth:`open`) or by an
    in-memory bytes buffer (:meth:`from_bytes` / :meth:`from_dataset`).
    All secondary indexes (incoming grouping, id lookups) are built
    lazily from the integer columns on first use; the open itself reads
    only the header, directory, and meta section — O(1) in row count.

    The store is strictly read-only: mutators raise
    :class:`ColumnarImmutableError`. Its :attr:`version` is therefore a
    constant, which keeps :class:`~repro.core.context.AnalysisContext`
    fingerprints stable for the lifetime of the view.
    """

    def __init__(
        self,
        buffer: bytes | mmap.mmap,
        *,
        path: str | None = None,
    ) -> None:
        self._buffer = buffer
        self._path = path
        self._view = memoryview(buffer)
        self._sections: dict[str, tuple[bytes, memoryview, int]] = {}
        self._columns: dict[str, memoryview] = {}
        self._parse_directory()
        try:
            self._meta = json.loads(bytes(self._section_view("meta")).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ColumnarFormatError(f"unreadable meta section: {exc}") from exc
        counts = self._checked_counts()
        self._n_domains = counts["domains"]
        self._n_txs = counts["transactions"]
        self._n_events = counts["marketEvents"]
        self._strings: list[str] | None = None
        self._tx_columns: tuple[memoryview, ...] | None = None
        self._domain_cache: dict[int, DomainRecord] = {}
        self.crawl_timestamp = int(self._meta.get("crawlTimestamp", 0))
        self._domain_rows: dict[str, int] | None = None
        self._name_rows: dict[str, int] | None = None
        self._incoming_rows: dict[int, list[int]] | None = None
        self._reverse_pool: dict[str, int] | None = None
        self.domains = _DomainsView(self)
        self.transactions = _RecordColumn(self, "tx", self._n_txs)
        self.market_events = _RecordColumn(self, "event", self._n_events)

    # -- construction ------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> "ColumnarDataset":
        """Memory-map an RCOL file; O(1) in the number of rows."""
        registry = registry if registry is not None else global_registry()
        tracer = tracer if tracer is not None else Tracer()
        path = Path(path)
        with tracer.span("columnar.load", path=str(path)):
            with path.open("rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            store = cls(mapped, path=str(path))
        registry.gauge(
            BYTES_PER_DOMAIN_METRIC,
            "Encoded columnar bytes per domain record",
        ).set(len(mapped) / max(1, store.domain_count))
        return store

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarDataset":
        """Wrap an in-memory RCOL buffer (no file backing)."""
        return cls(data)

    @classmethod
    def from_dataset(
        cls,
        dataset: ENSDataset,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> "ColumnarDataset":
        """Encode an object-graph dataset and wrap the result in memory."""
        return cls.from_bytes(
            encode_dataset(dataset, registry=registry, tracer=tracer)
        )

    # -- container parsing -------------------------------------------------

    def _parse_directory(self) -> None:
        view = self._view
        if len(view) < _HEADER.size:
            raise ColumnarFormatError("buffer shorter than the RCOL header")
        magic, version, _, count = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ColumnarFormatError("bad magic; not an RCOL container")
        if version != _FORMAT_VERSION:
            raise ColumnarFormatError(
                f"unsupported RCOL version {version}"
                f" (this reader understands {_FORMAT_VERSION})"
            )
        offset = _HEADER.size
        for _ in range(count):
            if offset + _DIRENT.size > len(view):
                raise ColumnarFormatError("truncated section directory")
            raw_name, dtype, data_offset, elements, nbytes = _DIRENT.unpack_from(
                view, offset
            )
            offset += _DIRENT.size
            name = raw_name.rstrip(b"\0").decode("ascii")
            if data_offset + nbytes > len(view):
                raise ColumnarFormatError(f"section {name} overruns the buffer")
            self._sections[name] = (dtype, view[data_offset:data_offset + nbytes], elements)

    def _checked_counts(self) -> dict[str, int]:
        """The meta row counts, checked against every typed section's
        element count (O(sections)): a column shorter than its count
        would fail mid-analysis, a longer one would hide rows."""
        try:
            counts = self._meta.get("counts", {})
            checked = {key: int(counts.get(key, 0)) for _, key in _COUNT_FAMILIES}
        except (AttributeError, TypeError, ValueError) as exc:
            raise ColumnarFormatError(f"unreadable meta counts: {exc}") from exc
        for name, (dtype, raw, elements) in self._sections.items():
            cast = _CASTS.get(dtype)
            family = next(
                (key for prefix, key in _COUNT_FAMILIES if name.startswith(prefix)),
                None,
            )
            if cast is None or family is None:
                continue
            expected = checked[family] + name.endswith("_offs")
            if elements != expected or len(raw) != expected * _ITEM_SIZES[cast]:
                raise ColumnarFormatError(
                    f"section {name} holds {elements} elements ({len(raw)} bytes);"
                    f" meta counts {family}={checked[family]} need {expected}"
                )
        return checked

    def _sections_get(self, name: str) -> tuple[bytes, memoryview, int]:
        entry = self._sections.get(name)
        if entry is None:
            raise ColumnarFormatError(f"missing section {name!r}")
        return entry

    def _section_view(self, name: str) -> memoryview:
        return self._sections_get(name)[1]

    def col(self, name: str) -> memoryview:
        """The typed (cast) memoryview of one column section."""
        cached = self._columns.get(name)
        if cached is not None:
            return cached
        dtype, raw, _ = self._sections_get(name)
        cast = _CASTS.get(dtype)
        if cast is None:
            raise ColumnarFormatError(f"section {name!r} is not a typed column")
        typed = raw.cast(cast)
        self._columns[name] = typed
        return typed

    # -- pool --------------------------------------------------------------

    def _pool(self) -> list[str]:
        """Every pooled string, decoded once on first access.

        ``pool_str`` and the reverse index both read this one list, so
        the open stays O(1) and the pool is decoded at most once.
        """
        if self._strings is None:
            bounds = self.col("pool_offs").tolist()
            blob = bytes(self._section_view("pool_blob"))
            if bounds != sorted(bounds) or (bounds and bounds[-1] > len(blob)):
                raise ColumnarFormatError("pool offsets do not fit pool_blob")
            try:
                self._strings = [
                    blob[start:stop].decode("utf-8")
                    for start, stop in zip(bounds, bounds[1:])
                ]
            except UnicodeDecodeError as exc:
                raise ColumnarFormatError(
                    f"string pool is not valid UTF-8: {exc}"
                ) from exc
        return self._strings

    def pool_str(self, pool_id: int) -> str | None:
        """The pooled string for ``pool_id`` (None for the null id)."""
        try:
            return (self._strings or self._pool())[pool_id]
        except IndexError:
            if pool_id == _NULL_ID:
                return None
            raise ColumnarFormatError(f"pool id {pool_id} out of range") from None

    @cached_property
    def coinbase_addresses(self) -> frozenset[str]:
        """The Coinbase label set (decoded on first access)."""
        return frozenset(self.pool_str(i) for i in self._meta.get("coinbase", ()))

    @cached_property
    def custodial_addresses(self) -> frozenset[str]:
        """The non-Coinbase custodial label set (decoded on first access)."""
        return frozenset(self.pool_str(i) for i in self._meta.get("custodial", ()))

    @property
    def pool_size(self) -> int:
        """Number of distinct strings in the pool."""
        return max(0, len(self.col("pool_offs")) - 1)

    # -- record materialization --------------------------------------------

    def domain_at(self, row: int) -> DomainRecord:
        """The :class:`DomainRecord` of one row (cached per view)."""
        cached = self._domain_cache.get(row)
        if cached is not None:
            return cached
        reg_offsets = self.col("dom_reg_offs")
        start, stop = reg_offsets[row], reg_offsets[row + 1]
        registrations = [self.registration_at(i) for i in range(start, stop)]
        record = DomainRecord(
            domain_id=self.pool_str(self.col("dom_id")[row]),
            name=self.pool_str(self.col("dom_name")[row]),
            label_name=self.pool_str(self.col("dom_label")[row]),
            labelhash=self.pool_str(self.col("dom_labelhash")[row]),
            created_at=self.col("dom_created")[row],
            owner=self.pool_str(self.col("dom_owner")[row]),
            resolved_address=self.pool_str(self.col("dom_resolved")[row]),
            subdomain_count=self.col("dom_subdoms")[row],
            registrations=registrations,
        )
        self._domain_cache[row] = record
        return record

    def registration_at(self, row: int) -> RegistrationRecord:
        """The :class:`RegistrationRecord` of one flattened row."""
        return RegistrationRecord(
            registration_id=self.pool_str(self.col("reg_id")[row]),
            registrant=self.pool_str(self.col("reg_registrant")[row]),
            registration_date=self.col("reg_date")[row],
            expiry_date=self.col("reg_expiry")[row],
            cost_wei=(self.col("reg_cost_hi")[row] << 64)
            | self.col("reg_cost_lo")[row],
            base_cost_wei=(self.col("reg_base_hi")[row] << 64)
            | self.col("reg_base_lo")[row],
            premium_wei=(self.col("reg_prem_hi")[row] << 64)
            | self.col("reg_prem_lo")[row],
        )

    def tx_at(self, row: int) -> TxRecord:
        """The :class:`TxRecord` of one row (materialized per call)."""
        if self._tx_columns is None:
            self._tx_columns = tuple(self.col(name) for name in _TX_COLUMNS)
        hashes, blocks, stamps, senders, recipients, high, low, errors = (
            self._tx_columns
        )
        text = self.pool_str
        return TxRecord(
            tx_hash=text(hashes[row]),
            block_number=blocks[row],
            timestamp=stamps[row],
            from_address=text(senders[row]),
            to_address=text(recipients[row]),
            value_wei=(high[row] << 64) | low[row],
            is_error=bool(errors[row]),
        )

    def event_at(self, row: int) -> MarketEventRecord:
        """The :class:`MarketEventRecord` of one row."""
        return MarketEventRecord(
            token_id=self.pool_str(self.col("ev_token")[row]),
            event_type=self.pool_str(self.col("ev_type")[row]),
            timestamp=self.col("ev_ts")[row],
            maker=self.pool_str(self.col("ev_maker")[row]),
            taker=self.pool_str(self.col("ev_taker")[row]),
            price_wei=(self.col("ev_price_hi")[row] << 64)
            | self.col("ev_price_lo")[row],
        )

    # -- dataset protocol: counts and version ------------------------------

    @property
    def version(self) -> int:
        """Constant fingerprint component — the store is immutable."""
        return 0

    @property
    def domain_count(self) -> int:
        """Number of domain records."""
        return self._n_domains

    @property
    def transaction_count(self) -> int:
        """Number of transaction records."""
        return self._n_txs

    # -- dataset protocol: mutators (rejected) -----------------------------

    def add_domain(self, domain: DomainRecord) -> None:
        """Unsupported: the columnar store is read-only."""
        raise ColumnarImmutableError("add_domain")

    def add_transactions(self, records: Any) -> None:
        """Unsupported: the columnar store is read-only."""
        raise ColumnarImmutableError("add_transactions")

    def add_market_events(self, records: Any) -> None:
        """Unsupported: the columnar store is read-only."""
        raise ColumnarImmutableError("add_market_events")

    # -- dataset protocol: lookups -----------------------------------------

    def domain_row(self, domain_id: str) -> int | None:
        """Row index of ``domain_id`` (index built lazily, O(n) once)."""
        if self._domain_rows is None:
            ids = self.col("dom_id")
            self._domain_rows = {
                self.pool_str(ids[row]): row for row in range(self._n_domains)
            }
        return self._domain_rows.get(domain_id)

    def iter_domains(self) -> Iterator[DomainRecord]:
        """Iterate domain records in insertion (row) order."""
        for row in range(self._n_domains):
            yield self.domain_at(row)

    def domain_by_name(self, name: str) -> DomainRecord | None:
        """First domain record named ``name``, or None (indexed)."""
        if self._name_rows is None:
            names = self.col("dom_name")
            index: dict[str, int] = {}
            for row in range(self._n_domains):
                text = self.pool_str(names[row])
                if text is not None and text not in index:
                    index[text] = row
            self._name_rows = index
        row = self._name_rows.get(name)
        return None if row is None else self.domain_at(row)

    def wallet_addresses(self) -> set[str]:
        """Registrants plus the wallets domains resolve(d) to."""
        distinct = set(self.col("reg_registrant"))
        distinct.update(self.col("dom_resolved"))
        distinct.discard(_NULL_ID)
        return {self.pool_str(pool_id) for pool_id in distinct}

    # -- dataset protocol: transaction reads -------------------------------

    def _pool_id_of(self, text: str) -> int | None:
        """Reverse pool lookup, lazily indexed over the whole pool."""
        if self._reverse_pool is None:
            strings = self._pool()
            self._reverse_pool = dict(zip(strings, range(len(strings))))
        return self._reverse_pool.get(text)

    def incoming_entry(
        self, address: str
    ) -> tuple[list[int], list[int], list[str | None], list[int]]:
        """``address``'s error-free incoming history, oldest first, as
        parallel (stamps, values, senders, rows) lists read straight off
        the columns; ``rows`` are transaction rows for :meth:`tx_at`, and
        no record is built here. The lists are the caller's own."""
        if self._incoming_rows is None:
            self._incoming_rows = group_incoming(
                self.col("tx_to"), self.col("tx_ts"), self.col("tx_err")
            )
        # An address outside the pool has no id and so no history.
        rows = list(self._incoming_rows.get(self._pool_id_of(address), ()))
        stamps, senders, high, low = (
            self.col(name) for name in ("tx_ts", "tx_from", "tx_val_hi", "tx_val_lo")
        )
        text = self.pool_str
        return (
            [stamps[row] for row in rows],
            [(high[row] << 64) | low[row] for row in rows],
            [text(senders[row]) for row in rows],
            rows,
        )

    def ordered_by_timestamp(self, kind: str) -> tuple[list[int], list[int]]:
        """:func:`~repro.datasets.dataset.timestamp_order` of one log's
        timestamp column, ``"transactions"`` or ``"market_events"``;
        no record is built."""
        if kind == "transactions":
            return timestamp_order(self.col("tx_ts"))
        if kind == "market_events":
            return timestamp_order(self.col("ev_ts"))
        raise ValueError(f"unknown log kind {kind!r}")

    # -- integrity / introspection -----------------------------------------

    def validate(self) -> None:
        """Structural validation over the columns: the invariants, the
        messages and the first failure of :meth:`ENSDataset.validate`.

        The domains are checked on the cached :meth:`domain_at` records
        the analyses read next; transaction hashes are checked off the
        ``tx_hash`` column, so no :class:`TxRecord` is built. There is
        no negative-value check: ``write_columnar`` cannot store one.
        """
        validate_domains(self.iter_domains())
        ids = self.col("tx_hash")[: self._n_txs]
        hashes = [self.pool_str(pool_id) for pool_id in ids]
        if len(set(hashes)) != len(hashes):
            seen: set[str | None] = set()
            for tx_hash in hashes:
                if tx_hash in seen:
                    raise DatasetIntegrityError(f"duplicate transaction {tx_hash}")
                seen.add(tx_hash)
        validate_label_sets(self.coinbase_addresses, self.custodial_addresses)

    @property
    def nbytes(self) -> int:
        """Total size of the backing buffer in bytes."""
        return len(self._view)

    @property
    def path(self) -> str | None:
        """Backing file path, or None for in-memory buffers."""
        return self._path

    def stats(self) -> dict[str, Any]:
        """Counts + layout numbers for ``repro dataset info`` (O(sections))."""
        sections = {
            name: {"dtype": dtype.decode("ascii"), "bytes": len(raw), "elements": count}
            for name, (dtype, raw, count) in sorted(self._sections.items())
        }
        return {
            "format_version": _FORMAT_VERSION,
            "path": self._path,
            "bytes": self.nbytes,
            "domains": self._n_domains,
            "registrations": int(
                self._sections_get("reg_id")[2]
            ),
            "transactions": self._n_txs,
            "market_events": self._n_events,
            "pool_strings": self.pool_size,
            "bytes_per_domain": self.nbytes / max(1, self._n_domains),
            "crawl_timestamp": self.crawl_timestamp,
            "sections": sections,
        }
