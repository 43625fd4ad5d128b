"""Durable crawl checkpoints: kill the crawl anywhere, resume losslessly.

A checkpoint directory holds immutable snapshots plus one commit
pointer::

    <dir>/LATEST              name of the last *complete* snapshot
    <dir>/ckpt-000012/
        state.json            stage, cursors, counter snapshot, fingerprint
        dataset/              partial ENSDataset (crawler.storage layout)

The commit protocol makes a torn write invisible: a snapshot directory
is fully written first, then ``LATEST`` is atomically replaced (write
to a temp file + ``os.replace``) to point at it, then older snapshots
are garbage-collected. A process killed mid-snapshot leaves ``LATEST``
on the previous complete snapshot; a process killed mid-*page* simply
resumes from the last committed cursor and re-fetches the partial page
(the dataset's hash-keyed dedup makes the overlap idempotent).

Resume refuses snapshots whose *fingerprint* (checkpoint format version
+ the crawl configuration that shapes cursor semantics) does not match
the resuming pipeline — a stale checkpoint falls back to a fresh crawl
rather than silently mixing incompatible cursors, surfacing as
``checkpoint_stale_total``.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..datasets.dataset import ENSDataset
from ..obs.log import get_logger

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointConfig",
    "CheckpointStore",
    "CrawlState",
    "STAGE_DOMAINS",
    "STAGE_TRANSACTIONS",
    "STAGE_MARKET_EVENTS",
    "STAGE_LABELS",
    "STAGE_DONE",
]

_log = get_logger("crawler.checkpoint")

CHECKPOINT_FORMAT_VERSION = 1

STAGE_DOMAINS = "domains"
STAGE_TRANSACTIONS = "transactions"
STAGE_MARKET_EVENTS = "market_events"
STAGE_LABELS = "labels"
STAGE_DONE = "done"

#: Stage progression of the Figure-1 pipeline, in crawl order.
STAGES = (
    STAGE_DOMAINS,
    STAGE_TRANSACTIONS,
    STAGE_MARKET_EVENTS,
    STAGE_LABELS,
    STAGE_DONE,
)

_LATEST_FILE = "LATEST"
_STATE_FILE = "state.json"
_DATASET_DIR = "dataset"

#: Cursor fields that count work done; each must be a non-negative int.
_COUNT_FIELDS = ("wallets_done", "tokens_done", "units_done")


@dataclass(frozen=True, slots=True)
class CheckpointConfig:
    """How (and whether) a pipeline run checkpoints and resumes.

    ``every`` counts *work units* — subgraph pages, wallet histories,
    token event feeds — between durable snapshots; ``resume`` asks the
    run to continue from the newest compatible snapshot when present.
    """

    directory: str | Path
    every: int = 25
    resume: bool = False
    keep_snapshots: int = 1

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("checkpoint cadence `every` must be >= 1")
        if self.keep_snapshots < 1:
            raise ValueError("keep_snapshots must be >= 1")


@dataclass
class CrawlState:
    """Resumable progress of one pipeline run (the checkpointed cursor).

    Stage 1 advances ``subgraph_cursor``, stages 3 and 4 advance
    ``wallets_done`` / ``tokens_done``; ``units_done`` counts every
    unit of work across stages and names the snapshot.
    """

    stage: str = STAGE_DOMAINS
    subgraph_cursor: str = ""
    wallets_done: int = 0
    tokens_done: int = 0
    units_done: int = 0
    dataset: ENSDataset = field(default_factory=ENSDataset)

    def cursor_dict(self) -> dict[str, Any]:
        """The JSON-ready cursor portion (everything but the dataset)."""
        return {
            "stage": self.stage,
            "subgraph_cursor": self.subgraph_cursor,
            "wallets_done": self.wallets_done,
            "tokens_done": self.tokens_done,
            "units_done": self.units_done,
        }


@dataclass
class CheckpointStore:
    """Reads and writes the snapshot directory described above."""

    directory: Path
    fingerprint: str
    keep_snapshots: int = 1

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)

    # -- writing -----------------------------------------------------------

    def write(self, state: CrawlState, counters: dict[str, Any]) -> Path:
        """Write one complete snapshot, then atomically commit it."""
        from .storage import save_dataset

        self.directory.mkdir(parents=True, exist_ok=True)
        name = f"ckpt-{state.units_done:06d}"
        snapshot_dir = self.directory / name
        if snapshot_dir.exists():
            # same unit count checkpointed twice (stage boundary): rewrite
            shutil.rmtree(snapshot_dir)
        snapshot_dir.mkdir()
        save_dataset(state.dataset, snapshot_dir / _DATASET_DIR)
        payload = {
            "fingerprint": self.fingerprint,
            "cursor": state.cursor_dict(),
            "counters": counters,
        }
        (snapshot_dir / _STATE_FILE).write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
        self._commit(name)
        self._garbage_collect(keep=name)
        return snapshot_dir

    def _commit(self, name: str) -> None:
        """Atomically point ``LATEST`` at a fully-written snapshot."""
        temp = self.directory / (_LATEST_FILE + ".tmp")
        temp.write_text(name + "\n", encoding="utf-8")
        os.replace(temp, self.directory / _LATEST_FILE)

    def _garbage_collect(self, keep: str) -> None:
        """Drop committed-over snapshots beyond ``keep_snapshots``."""
        snapshots = sorted(
            entry.name
            for entry in self.directory.iterdir()
            if entry.is_dir() and entry.name.startswith("ckpt-")
        )
        survivors = set(snapshots[-self.keep_snapshots :]) | {keep}
        for name in snapshots:
            if name not in survivors:
                shutil.rmtree(self.directory / name, ignore_errors=True)

    # -- reading -----------------------------------------------------------

    def load(self) -> tuple[CrawlState, dict[str, Any]] | None:
        """The newest committed snapshot, or None when resume must start fresh.

        Returns None (never raises) for: no checkpoint directory, no
        committed snapshot, a dangling/torn commit, an unreadable state
        file or malformed cursor, or a fingerprint mismatch — every one
        of those cases degrades to a fresh crawl.
        """
        latest_path = self.directory / _LATEST_FILE
        try:
            name = latest_path.read_text(encoding="utf-8").strip()
        except OSError:
            return None
        snapshot_dir = self.directory / name
        state_path = snapshot_dir / _STATE_FILE
        try:
            payload = json.loads(state_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            _log.warning(
                "checkpoint.unreadable", snapshot=name, error=str(exc)
            )
            return None
        cursor = payload.get("cursor", {}) if isinstance(payload, dict) else None
        if not _cursor_is_valid(cursor):
            _log.warning(
                "checkpoint.unreadable", snapshot=name, error="malformed cursor"
            )
            return None
        if payload.get("fingerprint") != self.fingerprint:
            _log.warning(
                "checkpoint.stale_fingerprint",
                snapshot=name,
                found=payload.get("fingerprint"),
                expected=self.fingerprint,
            )
            return None
        stage = cursor.get("stage", STAGE_DOMAINS)
        if stage not in STAGES:
            _log.warning("checkpoint.unknown_stage", snapshot=name, stage=stage)
            return None
        from .storage import load_dataset

        try:
            dataset = load_dataset(snapshot_dir / _DATASET_DIR)
        except (OSError, ValueError, KeyError, FileNotFoundError) as exc:
            _log.warning(
                "checkpoint.dataset_unreadable", snapshot=name, error=str(exc)
            )
            return None
        state = CrawlState(
            stage=stage,
            subgraph_cursor=str(cursor.get("subgraph_cursor", "")),
            wallets_done=cursor.get("wallets_done", 0),
            tokens_done=cursor.get("tokens_done", 0),
            units_done=cursor.get("units_done", 0),
            dataset=dataset,
        )
        return state, dict(payload.get("counters", {}))


def _cursor_is_valid(cursor: Any) -> bool:
    """A dict whose count fields, where present, are non-negative ints."""
    if not isinstance(cursor, dict):
        return False
    for name in _COUNT_FIELDS:
        value = cursor.get(name, 0)
        if type(value) is not int or value < 0:
            return False
    return True
