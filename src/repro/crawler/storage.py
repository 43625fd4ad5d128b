"""Dataset persistence: JSONL files, one record per line.

Layout of a dataset directory::

    meta.json            crawl timestamp + label lists
    domains.jsonl        one DomainRecord per line
    transactions.jsonl   one TxRecord per line
    market_events.jsonl  one MarketEventRecord per line
    deltas.jsonl         optional append log (one DatasetDelta per line)
    dataset.rcol         optional columnar container (``--store columnar``)

The JSONL files are the canonical, diffable interchange format and are
always written. ``dataset.rcol`` is a packed columnar mirror of the
same records (see :mod:`repro.datasets.columnar`): ``save_dataset(...,
store="columnar")`` or :func:`pack_dataset` produce it, and
``load_dataset(..., store="columnar")`` memory-maps it for O(1) opens.

``deltas.jsonl`` is the incremental ingestion channel: producers append
one canonical-JSON :class:`~repro.datasets.delta.DatasetDelta` per line
(:func:`append_delta`), and the object-store loader replays the log
through :meth:`~repro.datasets.dataset.ENSDataset.apply_delta`, so a
reloaded dataset's ``delta_cursor`` equals the number of complete log
lines — the resume point for checkpointed streams. A torn trailing
line (producer killed mid-write) is skipped on read and truncated away
by the next append; the base JSONL files are never rewritten by the
delta path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, TypeVar

from ..datasets.dataset import DatasetFormatError, DatasetNotFoundError, ENSDataset
from ..datasets.schema import DomainRecord, MarketEventRecord, TxRecord
from ..obs.log import get_logger

if TYPE_CHECKING:
    from ..datasets.columnar import ColumnarDataset
    from ..datasets.delta import DatasetDelta

__all__ = [
    "COLUMNAR_FILE",
    "DELTAS_FILE",
    "DatasetFormatError",
    "DatasetNotFoundError",
    "append_delta",
    "load_deltas",
    "parse_line",
    "save_dataset",
    "load_dataset",
    "dataset_digest",
    "pack_dataset",
]

_DOMAINS_FILE = "domains.jsonl"
_TRANSACTIONS_FILE = "transactions.jsonl"
_MARKET_FILE = "market_events.jsonl"
_META_FILE = "meta.json"

#: Append log of :class:`~repro.datasets.delta.DatasetDelta` lines.
DELTAS_FILE = "deltas.jsonl"

#: Columnar container inside a dataset directory (``.rcol``: the RCOL format).
COLUMNAR_FILE = "dataset.rcol"

#: Separators between the row streams in :func:`dataset_digest`'s input.
_DIGEST_SECTION_MARKERS = {
    _DOMAINS_FILE: b"",
    _TRANSACTIONS_FILE: b"--transactions--\n",
    _MARKET_FILE: b"--market--\n",
}

_log = get_logger("crawler.storage")

_T = TypeVar("_T")

#: What a line that is no record raises: bad UTF-8 or bad JSON a
#: ValueError, a missing field a KeyError, a JSON value of the wrong
#: shape (``[1]``, ``{"domains": 5}``) a TypeError or AttributeError.
_LINE_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


def _serialized(
    dataset: ENSDataset | ColumnarDataset,
) -> tuple[dict[str, Any], tuple[tuple[str, Iterator[dict[str, Any]]], ...]]:
    """The on-disk form of ``dataset``: meta dict and per-file row streams.

    :func:`save_dataset` writes exactly these and :func:`dataset_digest`
    hashes exactly these, so the digest cannot drift from the files.
    """
    meta = {
        "crawlTimestamp": dataset.crawl_timestamp,
        "coinbaseAddresses": sorted(dataset.coinbase_addresses),
        "custodialAddresses": sorted(dataset.custodial_addresses),
    }
    streams = (
        (_DOMAINS_FILE, (domain.as_dict() for domain in dataset.domains.values())),
        (_TRANSACTIONS_FILE, (tx.as_dict() for tx in dataset.transactions)),
        (_MARKET_FILE, (event.as_dict() for event in dataset.market_events)),
    )
    return meta, streams


def _jsonl_line(row: dict[str, Any]) -> str:
    return json.dumps(row, separators=(",", ":")) + "\n"


def _write_jsonl(path: Path, rows: Iterator[dict[str, Any]]) -> int:
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(_jsonl_line(row))
            count += 1
    return count


def parse_line(
    path: Path, line_number: int, line: bytes, parse: Callable[[Any], _T]
) -> _T:
    """``parse`` applied to UTF-8 JSON ``line``, line ``line_number`` of ``path``.

    Any failure to read the line as a record raises
    :class:`DatasetFormatError` naming the directory, file and line.
    """
    try:
        return parse(json.loads(line.decode("utf-8")))
    except _LINE_ERRORS as exc:
        raise DatasetFormatError(
            f"{path.parent}: {path.name}:{line_number}: malformed record ({exc})"
        ) from exc


def _read_jsonl(path: Path, parse: Callable[[Any], _T]) -> list[_T]:
    """Every record of one base file :func:`save_dataset` wrote.

    :func:`save_dataset` always writes all three files, so a missing one
    is a :class:`DatasetFormatError`, never an empty table.
    """
    if not path.exists():
        raise DatasetFormatError(f"{path.parent}: missing {path.name}")
    with path.open("rb") as handle:
        return [
            parse_line(path, line_number, line, parse)
            for line_number, line in enumerate(handle, start=1)
            if line.strip()
        ]


def append_delta(directory: str | Path, delta: DatasetDelta) -> int:
    """Append one delta line to ``deltas.jsonl``; return its line index.

    The append is torn-write safe from both sides: before writing, any
    unterminated trailing partial line (a producer killed mid-write) is
    truncated away, and the new line is flushed and fsynced so a crash
    after return cannot lose it. Returns the 1-based index of the
    written line — equal to the dataset's ``delta_cursor`` after the
    line is replayed, which is what checkpointed streams persist.
    """
    import os

    directory = Path(directory)
    path = directory / DELTAS_FILE
    complete = 0
    if path.exists():
        raw = path.read_bytes()
        keep = raw.rfind(b"\n") + 1
        complete = raw.count(b"\n", 0, keep)
        if keep != len(raw):
            _log.info(
                "delta.torn_line_truncated",
                path=str(path),
                dropped_bytes=len(raw) - keep,
            )
            with path.open("r+b") as handle:
                handle.truncate(keep)
    line = json.dumps(delta.as_dict(), sort_keys=True, separators=(",", ":"))
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    return complete + 1


def load_deltas(directory: str | Path) -> list[DatasetDelta]:
    """Read the complete delta lines of a dataset directory, in order.

    Only newline-terminated lines count: an unterminated tail is a torn
    write and is skipped (the next :func:`append_delta` truncates it).
    A malformed *terminated* line is real corruption and raises
    :class:`DatasetFormatError`.
    """
    path = Path(directory) / DELTAS_FILE
    if not path.exists():
        return []
    from ..datasets.delta import DatasetDelta

    raw = path.read_bytes()
    keep = raw.rfind(b"\n") + 1
    if keep != len(raw):
        _log.info(
            "delta.torn_line_skipped",
            path=str(path),
            dropped_bytes=len(raw) - keep,
        )
    return [
        parse_line(path, line_number, line, DatasetDelta.from_dict)
        for line_number, line in enumerate(raw[:keep].split(b"\n"), start=1)
        if line.strip()
    ]


def save_dataset(
    dataset: ENSDataset | ColumnarDataset,
    directory: str | Path,
    *,
    store: str = "object",
    registry: Any = None,
    tracer: Any = None,
) -> Path:
    """Write a dataset to ``directory`` (created if needed).

    The JSONL interchange files are always written; ``store="columnar"``
    additionally packs the records into ``dataset.rcol`` so subsequent
    ``load_dataset(..., store="columnar")`` calls open via mmap.
    """
    if store not in ("object", "columnar"):
        raise ValueError(f"unknown store {store!r} (choose object or columnar)")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta, streams = _serialized(dataset)
    for name, rows in streams:
        _write_jsonl(directory / name, rows)
    (directory / _META_FILE).write_text(json.dumps(meta, indent=2), encoding="utf-8")
    if store == "columnar":
        from ..datasets.columnar import write_columnar

        write_columnar(
            dataset, directory / COLUMNAR_FILE, registry=registry, tracer=tracer
        )
    return directory


def pack_dataset(
    directory: str | Path,
    out: str | Path | None = None,
    *,
    registry: Any = None,
    tracer: Any = None,
) -> Path:
    """Pack an existing JSONL dataset directory into a columnar file.

    Loads the object graph once, encodes it, and writes ``out``
    (default: ``dataset.rcol`` inside the directory) atomically.
    Returns the written path. ``registry``/``tracer`` feed the encode
    instrumentation (pool hit counters, ``columnar.encode`` span).

    An in-place pack is also the delta-log compaction point: the log's
    records were replayed into the loaded graph, so the base JSONL
    files are rewritten to include them and ``deltas.jsonl`` is removed
    — otherwise later columnar loads would treat the fresh container
    as stale. Packing to an external ``out`` leaves the source
    directory untouched.
    """
    from ..datasets.columnar import write_columnar

    directory = Path(directory)
    dataset = load_dataset(directory)
    target = Path(out) if out is not None else directory / COLUMNAR_FILE
    packed = write_columnar(dataset, target, registry=registry, tracer=tracer)
    deltas_path = directory / DELTAS_FILE
    if out is None and deltas_path.exists():
        save_dataset(dataset, directory)
        deltas_path.unlink()
    return packed


def dataset_digest(dataset: ENSDataset | ColumnarDataset) -> str:
    """SHA-256 over the dataset's canonical on-disk serialization.

    Two datasets with the same digest would produce byte-identical
    :func:`save_dataset` directories — the equality the chaos suite
    asserts between faulted/resumed crawls and the clean baseline.
    """
    import hashlib

    digest = hashlib.sha256()
    meta, streams = _serialized(dataset)
    for name, rows in streams:
        digest.update(_DIGEST_SECTION_MARKERS[name])
        for row in rows:
            digest.update(_jsonl_line(row).encode("utf-8"))
    digest.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def load_dataset(
    directory: str | Path,
    *,
    store: str = "object",
    registry: Any = None,
    tracer: Any = None,
) -> ENSDataset | ColumnarDataset:
    """Read a dataset previously written by :func:`save_dataset`.

    ``store="columnar"`` memory-maps ``dataset.rcol`` when present —
    O(1) regardless of row count — and otherwise falls back to loading
    the JSONL files and encoding in memory (logging a hint to run
    ``repro dataset pack`` so the next load is O(1)).
    """
    if store not in ("object", "columnar"):
        raise ValueError(f"unknown store {store!r} (choose object or columnar)")
    directory = Path(directory)
    if store == "columnar":
        from ..datasets.columnar import ColumnarDataset

        packed = directory / COLUMNAR_FILE
        if packed.exists():
            if load_deltas(directory):
                # The packed container predates the append log; serving
                # it would drop the appended records. Encode in memory
                # from the replayed object graph instead (repack with
                # `repro dataset pack` to restore O(1) opens).
                _log.info(
                    "columnar.stale_pack",
                    directory=str(directory),
                    hint="deltas.jsonl present; ignoring dataset.rcol -"
                    " run `repro dataset pack` to fold the log in",
                )
            else:
                return ColumnarDataset.open(
                    packed, registry=registry, tracer=tracer
                )
        _log.info(
            "columnar.pack_hint",
            directory=str(directory),
            hint="no dataset.rcol; encoding in memory -"
            " run `repro dataset pack` to persist it",
        )
        return ColumnarDataset.from_dataset(
            load_dataset(directory), registry=registry, tracer=tracer
        )
    meta_path = directory / _META_FILE
    if not meta_path.exists():
        reason = "no meta.json" if directory.is_dir() else "no such directory"
        raise DatasetNotFoundError(f"{directory}: {reason}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        dataset = ENSDataset(
            coinbase_addresses=set(meta["coinbaseAddresses"]),
            custodial_addresses=set(meta["custodialAddresses"]),
            crawl_timestamp=meta["crawlTimestamp"],
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise DatasetFormatError(
            f"{directory}: malformed {_META_FILE} ({exc})"
        ) from exc
    for domain in _read_jsonl(directory / _DOMAINS_FILE, DomainRecord.from_dict):
        dataset.add_domain(domain)
    dataset.add_transactions(
        _read_jsonl(directory / _TRANSACTIONS_FILE, TxRecord.from_dict)
    )
    dataset.add_market_events(
        _read_jsonl(directory / _MARKET_FILE, MarketEventRecord.from_dict)
    )
    # Replay the append log so delta_cursor == the number of complete
    # log lines — checkpointed streams resume from exactly that index.
    for delta in load_deltas(directory):
        dataset.apply_delta(delta)
    return dataset
