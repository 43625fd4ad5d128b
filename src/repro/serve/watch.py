"""Watch mode: feed on-disk delta appends into a running serve app.

:class:`DatasetWatcher` polls a dataset directory's ``deltas.jsonl``
(see :mod:`repro.crawler.storage`) and applies every newly completed
line through :meth:`~repro.serve.app.ReproApp.apply_deltas` — the
O(delta) ingestion path that refreshes the report incrementally and
migrates the response cache instead of dropping it.

The watcher reads the log through a
:class:`~repro.crawler.storage.DeltaLog`, the reader the loader uses:
it keeps a byte offset just past the last consumed complete line.
Only newline-terminated lines are consumed, so a producer killed
mid-append never feeds a torn record (the producer's next
:func:`~repro.crawler.storage.append_delta` truncates the tail; the
byte it truncates is always beyond our offset). The initial offset is
just past the dataset's ``delta_cursor``-th delta line — the loader
replayed exactly those, blank lines skipped — so lines appended
between load and the first poll are never skipped or double-applied.

A malformed terminated line stops the watch for good. The poll that
meets it applies the lines before it, leaves the offset at the bad
line, logs ``watch.malformed`` once and raises; later polls apply
nothing and stay silent. The line is not skipped: the loader rejects
the same file at restart, so a state built past it is one no reload
reproduces.

``poll_once`` is the synchronous unit (tests drive it directly);
:meth:`start`/:meth:`stop` run it on a background thread for the CLI's
``repro serve --watch``.
"""

from __future__ import annotations

import threading
from pathlib import Path

from ..crawler.storage import DELTAS_FILE, DatasetFormatError, DeltaLog
from ..datasets.delta import DatasetDelta
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from .app import ReproApp

__all__ = ["DatasetWatcher"]

#: Watch polls by outcome (``changed`` / ``unchanged`` / ``malformed``).
WATCH_POLLS_METRIC = "serve_watch_polls_total"

_log = get_logger("serve.watch")


class DatasetWatcher:
    """Applies new ``deltas.jsonl`` lines to a :class:`ReproApp`."""

    def __init__(
        self,
        app: ReproApp,
        directory: str | Path,
        *,
        poll_interval: float = 0.5,
        registry: MetricsRegistry | None = None,
    ) -> None:
        """Watch ``directory`` for delta appends feeding ``app``.

        The app's dataset must have been loaded from ``directory`` (the
        loader's replay count — ``delta_cursor`` — anchors the initial
        file offset).
        """
        self.app = app
        self.directory = Path(directory)
        self.poll_interval = poll_interval
        registry = registry if registry is not None else app.registry
        polls = registry.counter(
            WATCH_POLLS_METRIC,
            "Dataset watch polls by outcome",
            labels=("outcome",),
        )
        self._poll_changed = polls.labels(outcome="changed")
        self._poll_unchanged = polls.labels(outcome="unchanged")
        self._poll_malformed = polls.labels(outcome="malformed")
        self._halted = False
        self._log = DeltaLog(self.directory)
        if self._log.path.exists():
            cursor = getattr(app.dataset, "delta_cursor", 0)
            self._log.skip(self._log.path.read_bytes(), cursor)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def poll_once(self) -> int:
        """Apply every newly completed delta line; return how many.

        A file shorter than the consumed offset means the log was
        replaced underneath us (e.g. compacted by ``repro dataset
        pack``); the watcher cannot reconcile that against the live
        dataset, so it logs and fast-forwards without applying.

        A malformed line raises :class:`DatasetFormatError` once, after
        the lines before it are applied; every later poll returns 0.
        """
        if self._halted:
            return 0
        if not self._log.path.exists():
            self._poll_unchanged.inc()
            return 0
        raw = self._log.path.read_bytes()
        if len(raw) < self._log.offset:
            _log.error(
                "watch.log_replaced",
                path=str(self._log.path),
                consumed=self._log.offset,
                size=len(raw),
                hint="delta log shrank (compacted?); restart serve to"
                " pick up the rewritten dataset",
            )
            self._log = DeltaLog(self.directory)
            self._log.skip(raw)
            self._poll_unchanged.inc()
            return 0
        start = self._log.offset
        deltas: list[DatasetDelta] = []
        malformed: DatasetFormatError | None = None
        try:
            for delta in self._log.read(raw):
                deltas.append(delta)
        except DatasetFormatError as exc:
            malformed = exc
        if self._log.offset == start and malformed is None:
            self._poll_unchanged.inc()
            return 0
        if deltas:
            self.app.apply_deltas(deltas)
            _log.info(
                "watch.applied",
                deltas=len(deltas),
                records=sum(delta.record_count for delta in deltas),
                offset=self._log.offset,
            )
        if malformed is not None:
            self._halted = True
            self._poll_malformed.inc()
            _log.error(
                "watch.malformed",
                line=f"{DELTAS_FILE}:{self._log.line_number + 1}",
                error=str(malformed),
                hint="watching stopped; repair the line and restart serve",
            )
            raise malformed
        self._poll_changed.inc()
        return len(deltas)

    # -- background loop ---------------------------------------------------

    def start(self) -> "DatasetWatcher":
        """Poll on a daemon thread until :meth:`stop`; returns self."""
        if self._thread is not None:
            raise RuntimeError("watcher already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-watch", daemon=True
        )
        self._thread.start()
        _log.info(
            "watch.started",
            path=str(self._log.path),
            poll_interval=self.poll_interval,
        )
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.poll_once()
            except DatasetFormatError:
                return  # logged once by poll_once; the log cannot move on
            except Exception as exc:  # noqa: BLE001 - keep watching
                _log.error(
                    "watch.poll_failed",
                    error=f"{type(exc).__name__}: {exc}",
                )

    def stop(self) -> None:
        """Stop the background loop (no-op when never started)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        _log.info("watch.stopped", path=str(self._log.path))

    def __enter__(self) -> "DatasetWatcher":
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Stop on exit."""
        self.stop()
