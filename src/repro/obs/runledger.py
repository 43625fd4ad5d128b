"""A persistent, append-only ledger of CLI runs (`.repro/ledger/*.json`).

Run-over-run comparability is the point: without a durable record of
each run's command, configuration, dataset fingerprint, metrics, and
SLO verdicts, regressions and drift are invisible — you can only
compare a run against the one you remember. Every CLI invocation
appends one :class:`RunRecord` (schema-versioned JSON, atomic
write-then-link so a crash never leaves a torn entry), and
``repro obs ls / show / diff`` read the history back: ``obs diff``
compares two runs and exits non-zero when an SLO that passed in the
first fails in the second.

This module is part of :mod:`repro.obs` and is therefore the one layer
allowed to read the wall clock (`det-wall-clock` exempts the telemetry
layer): ledger timestamps are *operational* metadata about when a run
happened, never inputs to the simulation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .exporters import metrics_to_dict, sanitize_non_finite
from .log import get_logger
from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = [
    "DEFAULT_LEDGER_DIR",
    "LEDGER_SCHEMA_VERSION",
    "LedgerRecordError",
    "RunLedger",
    "RunRecord",
    "git_sha",
    "wall_now",
]

#: Bump when a reader of old records would misinterpret new ones.
LEDGER_SCHEMA_VERSION = 1

#: Where the ledger lives unless overridden (CLI flag or REPRO_LEDGER_DIR).
DEFAULT_LEDGER_DIR = ".repro/ledger"

_RUN_FILE_PREFIX = "run-"

_log = get_logger("obs.ledger")

_NUMBER_OR_NONE = (int, float, type(None))

#: The JSON type of each record field that ``repro obs`` formats or
#: indexes; a file holding anything else is not a readable record.
_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "command": str,
    "argv": list,
    "run_id": str,
    "seq": int,
    "started_at": _NUMBER_OR_NONE,
    "duration_seconds": _NUMBER_OR_NONE,
    "metrics": dict,
    "spans": list,
    "slos": list,
    "extra": dict,
}


class LedgerRecordError(ValueError):
    """A ledger file whose content is not a readable run record."""


def wall_now() -> float:
    """Wall-clock seconds since the epoch (callable from any layer).

    Call sites outside :mod:`repro.obs` must not read the clock
    directly (the determinism lint enforces it); routing through this
    helper keeps the read inside the telemetry layer where it belongs.
    """
    return time.time()


def git_sha(cwd: str | Path | None = None) -> str | None:
    """The current git commit sha, or None outside a repo / without git."""
    import subprocess  # only a ledger record asks

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


@dataclass
class RunRecord:
    """One ledger entry: everything needed to compare this run to another."""

    command: str
    argv: list[str] = field(default_factory=list)
    schema_version: int = LEDGER_SCHEMA_VERSION
    run_id: str = ""
    seq: int = 0
    started_at: float | None = None
    duration_seconds: float | None = None
    git_sha: str | None = None
    dataset_fingerprint: str | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    slos: list[dict[str, Any]] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        command: str,
        *,
        argv: list[str] | None = None,
        registries: MetricsRegistry | list[MetricsRegistry] | None = None,
        tracer: Tracer | None = None,
        started_at: float | None = None,
        dataset_fingerprint: str | None = None,
        slo_results: list[Any] | None = None,
        extra: dict[str, Any] | None = None,
    ) -> "RunRecord":
        """Build a record from live run state (the CLI's single call)."""
        if isinstance(registries, MetricsRegistry):
            registries = [registries]
        now = wall_now()
        return cls(
            command=command,
            argv=list(argv or []),
            started_at=started_at if started_at is not None else now,
            duration_seconds=(
                now - started_at if started_at is not None else None
            ),
            git_sha=git_sha(),
            dataset_fingerprint=dataset_fingerprint,
            metrics=metrics_to_dict(*registries) if registries else {},
            spans=(
                [root.as_dict() for root in tracer.roots] if tracer else []
            ),
            slos=[result.as_dict() for result in slo_results or []],
            extra=dict(extra or {}),
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready encoding (exactly what the ledger file holds)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Any) -> "RunRecord":
        """Load a record, tolerating fields added by newer schemas.

        Fields this schema no longer has (older span digests, ``workers``)
        are dropped. Raises :class:`LedgerRecordError` when ``payload``
        is not an object, lacks ``command``, or holds a field of the
        wrong JSON type.
        """
        if not isinstance(payload, dict):
            raise LedgerRecordError(
                f"expected a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        fields = {k: v for k, v in payload.items() if k in known}
        if "command" not in fields:
            raise LedgerRecordError("record has no command")
        for name, types in _FIELD_TYPES.items():
            if name in fields and not isinstance(fields[name], types):
                raise LedgerRecordError(
                    f"field {name!r} is {type(fields[name]).__name__}"
                )
        return cls(**fields)

    @property
    def slo_failures(self) -> list[str]:
        """Names of objectives this run violated."""
        return [s["name"] for s in self.slos if s.get("status") == "fail"]


class RunLedger:
    """Append-only store of :class:`RunRecord` files in one directory.

    File names are ``run-<seq>-<id>.json``: ``seq`` gives a stable,
    human-orderable history; ``id`` is a content digest, so two
    processes racing on the same sequence number collide on the
    filesystem (hard link fails) and the loser just takes the next
    slot — no locks, no torn files.
    """

    def __init__(self, directory: str | Path = DEFAULT_LEDGER_DIR) -> None:
        self.directory = Path(directory)

    # -- writing -----------------------------------------------------------

    def append(self, record: RunRecord) -> Path:
        """Atomically add one record; returns the path written.

        The payload is written to a temp file in the same directory
        and *linked* into place — readers never observe a partial
        record, and a name collision (another writer took the same
        sequence number) atomically fails so the record retries under
        the next number.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        record.seq = self._next_seq()
        payload = sanitize_non_finite(record.as_dict())
        digest_src = json.dumps(
            {k: v for k, v in payload.items() if k not in ("run_id", "seq")},
            sort_keys=True,
            separators=(",", ":"),
        )
        record.run_id = hashlib.sha256(digest_src.encode()).hexdigest()[:12]
        payload["run_id"] = record.run_id
        for _ in range(64):
            prefix = f"{_RUN_FILE_PREFIX}{record.seq:06d}-"
            if any(self.directory.glob(prefix + "*")):
                # a rival writer claimed this seq since our scan
                record.seq += 1
                continue
            payload["seq"] = record.seq
            target = self.directory / f"{prefix}{record.run_id}.json"
            tmp = self.directory / f".tmp-{os.getpid()}-{record.run_id}"
            tmp.write_text(
                json.dumps(payload, indent=2, allow_nan=False) + "\n",
                encoding="utf-8",
            )
            try:
                os.link(tmp, target)
                return target
            except FileExistsError:
                record.seq += 1
            finally:
                tmp.unlink(missing_ok=True)
        raise OSError("could not claim a ledger sequence number")

    def _next_seq(self) -> int:
        last = 0
        for path in self._entry_paths():
            try:
                last = max(last, int(path.name.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return last + 1

    # -- reading -----------------------------------------------------------

    def _entry_paths(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(
            path
            for path in self.directory.iterdir()
            if path.name.startswith(_RUN_FILE_PREFIX)
            and path.suffix == ".json"
        )

    def records(self, limit: int | None = None) -> list[RunRecord]:
        """All records oldest-first (the newest ``limit`` files when given).

        ``limit=0`` selects no file; a negative ``limit`` raises
        :class:`ValueError`. A file that is not a readable record is
        skipped with a ``ledger.unreadable`` warning, so one torn or
        foreign file cannot hide the rest of the history.
        """
        paths = self._entry_paths()
        if limit is not None:
            if limit < 0:
                raise ValueError(f"limit must be >= 0, got {limit}")
            paths = paths[-limit:] if limit else []
        records = []
        for path in paths:
            try:
                records.append(self._read(path))
            except LedgerRecordError as exc:
                _log.warning(
                    "ledger.unreadable", path=str(path), error=str(exc.__cause__)
                )
        return records

    def _read(self, path: Path) -> RunRecord:
        """One file's record; :class:`LedgerRecordError` names the path."""
        try:
            return RunRecord.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except ValueError as exc:  # bad UTF-8, bad JSON, or a bad record
            raise LedgerRecordError(f"{path}: {exc}") from exc

    def load(self, ref: str) -> RunRecord:
        """Resolve one run reference to its record.

        Accepted forms: ``latest``, a negative index (``-1`` is the
        newest, ``-2`` the one before), a sequence number (``7``), a
        ``run_id`` prefix, or a ledger file path.
        """
        paths = self._entry_paths()
        if not paths:
            raise FileNotFoundError(f"no ledger entries in {self.directory}")
        if ref == "latest":
            return self._read(paths[-1])
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None and index < 0:
            if -index > len(paths):
                raise FileNotFoundError(f"ledger has only {len(paths)} runs")
            return self._read(paths[index])
        if index is not None:
            for path in paths:
                if path.name.startswith(f"{_RUN_FILE_PREFIX}{index:06d}-"):
                    return self._read(path)
            raise FileNotFoundError(f"no ledger run with seq {index}")
        candidate = Path(ref)
        if candidate.is_file():
            return self._read(candidate)
        matches = [
            path
            for path in paths
            if path.name.split("-", 2)[-1].startswith(ref)
        ]
        if len(matches) == 1:
            return self._read(matches[0])
        if matches:
            raise FileNotFoundError(f"run id prefix {ref!r} is ambiguous")
        raise FileNotFoundError(f"no ledger run matches {ref!r}")
