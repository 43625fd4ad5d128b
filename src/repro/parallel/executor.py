"""Task executors: an in-process serial one and a process-pool one.

Both speak the same two-method protocol:

* :meth:`run` — execute ``fn(shared, item)`` for every item and return
  the results **in item order**, whatever order workers finish in.
* :meth:`run_stream` — yield ``(index, result)`` pairs in *completion*
  order, for callers that checkpoint incrementally. Consumers must key
  their accumulation by the index and canonicalize at the end — never
  append completion-order results into ordered output (the
  ``par-unordered-merge`` lint rule enforces this repository-wide).

``fn`` must be a module-level function and **pure** (deterministic,
no side effects beyond its return value): on a broken process pool the
executor transparently re-runs the remaining work in-process, so a
task may execute more than once.

The shared payload is delivered to workers through a module global set
before the pool is created: with the ``fork`` start method children
inherit it copy-on-write for free; on spawn-only platforms it is
pickled once per worker via the pool initializer (an mmap-backed
:class:`~repro.datasets.columnar.ColumnarDataset` pickles as its file
path and is re-mapped in the worker). Platforms that cannot run
subprocesses at all fall back to :class:`SerialExecutor`
(``parallel_fallbacks_total`` counts those downgrades).

**Worker telemetry.** Every task — in a pool worker, in the serial
executor, or on the in-process fallback path — runs against a fresh
:class:`~repro.obs.spanmerge.WorkerTelemetry` (a zeroed registry plus
a tracer rooted at a ``task[<index>]`` span). The captured payload
(full registry snapshot + finished spans) travels back alongside the
result, and when the executor's ``telemetry_sink`` attribute holds a
:class:`~repro.obs.spanmerge.TelemetrySink` it is merged into the
parent registry/tracer as each task completes — so a ``--trace`` from
a sharded run is one coherent tree, and worker-side gauges and
histograms survive, not just counters. Worker functions reach their
task's telemetry through :func:`worker_telemetry`.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

from ..obs.log import get_logger
from ..obs.metrics import global_registry
from ..obs.spanmerge import TelemetrySink, WorkerTelemetry

__all__ = [
    "ParallelExecutor",
    "ProcessExecutor",
    "SerialExecutor",
    "resolve_executor",
    "worker_telemetry",
]

_log = get_logger("parallel.executor")

#: Shared payload slot for forked/initialized workers (see module doc).
_SHARED: Any = None

#: Telemetry context of the task currently executing in this process.
_TASK_TELEMETRY: WorkerTelemetry | None = None

_UNSET = object()


def _init_worker(shared: Any = _UNSET) -> None:
    """Pool initializer: store the pickled payload (spawn) or keep the
    copy-on-write one inherited through fork."""
    global _SHARED
    if shared is not _UNSET:
        _SHARED = shared


def worker_telemetry() -> WorkerTelemetry:
    """The telemetry context of the currently executing task.

    Worker functions bind their clients and spans here; the executor
    captures the whole context when the task finishes and the parent
    merges it. Outside a managed task (e.g. a worker function called
    directly in a test) a fresh throwaway context is returned, so the
    function still runs — its telemetry is simply not collected.
    """
    return _TASK_TELEMETRY if _TASK_TELEMETRY is not None else WorkerTelemetry()


def _run_task(
    fn: Callable[[Any, Any], Any], shared: Any, index: int, item: Any
) -> tuple[Any, dict[str, Any]]:
    """Run one task under a fresh telemetry context; capture it."""
    global _TASK_TELEMETRY
    telemetry = WorkerTelemetry()
    _TASK_TELEMETRY = telemetry
    try:
        with telemetry.tracer.span(f"task[{index}]", index=index):
            result = fn(shared, item)
    finally:
        _TASK_TELEMETRY = None
    return result, telemetry.capture()


def _invoke(
    fn: Callable[[Any, Any], Any], index: int, item: Any
) -> tuple[int, Any, dict[str, Any]]:
    """Run one task in a worker, tagging the result with its index."""
    result, telemetry = _run_task(fn, _SHARED, index, item)
    return index, result, telemetry


@runtime_checkable
class ParallelExecutor(Protocol):
    """What the pipeline and the analyses need from an executor.

    ``telemetry_sink`` is part of the contract: callers attach a
    :class:`~repro.obs.spanmerge.TelemetrySink` before streaming and
    the executor delivers each completed task's captured telemetry to
    it (completion order) before yielding the result. Executors that
    ignore the sink still work — worker telemetry is then dropped, as
    it was before cross-process capture existed.
    """

    workers: int
    name: str
    telemetry_sink: TelemetrySink | None

    def run(
        self, fn: Callable[[Any, Any], Any], shared: Any, items: Sequence[Any]
    ) -> list[Any]:
        """Results of ``fn(shared, item)`` for every item, in item order."""
        ...

    def run_stream(
        self, fn: Callable[[Any, Any], Any], shared: Any, items: Sequence[Any]
    ) -> Iterator[tuple[int, Any]]:
        """``(index, result)`` pairs in completion order."""
        ...


class SerialExecutor:
    """The in-process fallback: one worker, strict item order."""

    workers = 1
    name = "serial"

    def __init__(self) -> None:
        self.telemetry_sink: TelemetrySink | None = None

    def run(
        self, fn: Callable[[Any, Any], Any], shared: Any, items: Sequence[Any]
    ) -> list[Any]:
        """Apply ``fn`` to every item in order, in this process."""
        return [result for _, result in self.run_stream(fn, shared, items)]

    def run_stream(
        self, fn: Callable[[Any, Any], Any], shared: Any, items: Sequence[Any]
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, result)`` pairs; completion order == item order."""
        for index, item in enumerate(items):
            result, telemetry = _run_task(fn, shared, index, item)
            if self.telemetry_sink is not None:
                self.telemetry_sink.on_task(index, telemetry)
            yield index, result


class ProcessExecutor:
    """Fan tasks out over a :class:`ProcessPoolExecutor`.

    A fresh pool is created per :meth:`run_stream` call so the shared
    payload snapshot is exactly the caller's — no stale state can leak
    between stages.
    """

    name = "process"

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        if workers < 2:
            raise ValueError("ProcessExecutor needs workers >= 2; use SerialExecutor")
        self.workers = workers
        self.telemetry_sink: TelemetrySink | None = None
        self._start_method = start_method
        self._fallbacks = global_registry().counter(
            "parallel_fallbacks_total",
            "Process-pool runs downgraded to the in-process executor",
        )

    def _context(self) -> multiprocessing.context.BaseContext:
        if self._start_method is not None:
            return multiprocessing.get_context(self._start_method)
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else None)

    def run_stream(
        self, fn: Callable[[Any, Any], Any], shared: Any, items: Sequence[Any]
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, result)`` pairs as workers complete shards.

        Task exceptions (a crawl kill, an exhausted retry budget)
        propagate to the caller. A pool that cannot start or dies
        abruptly is *not* a task failure: the remaining items re-run
        in-process, which is why ``fn`` must be pure.
        """
        items = list(items)
        if not items:
            return
        global _SHARED
        _SHARED = shared
        try:
            context = self._context()
            # Fork children inherit _SHARED copy-on-write; spawn
            # children receive it pickled through the initializer.
            initargs: tuple[Any, ...] = (
                () if context.get_start_method() == "fork" else (shared,)
            )
            done: set[int] = set()
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(items)),
                    mp_context=context,
                    initializer=_init_worker,
                    initargs=initargs,
                ) as pool:
                    futures = [
                        pool.submit(_invoke, fn, index, item)
                        for index, item in enumerate(items)
                    ]
                    for future in as_completed(futures):
                        index, result, telemetry = future.result()
                        done.add(index)
                        if self.telemetry_sink is not None:
                            self.telemetry_sink.on_task(index, telemetry)
                        yield index, result
            except (BrokenExecutor, OSError) as exc:
                self._fallbacks.inc()
                _log.warning(
                    "parallel.fallback_serial",
                    error=str(exc),
                    pending=len(items) - len(done),
                )
                for index, item in enumerate(items):
                    if index not in done:
                        result, telemetry = _run_task(fn, shared, index, item)
                        if self.telemetry_sink is not None:
                            self.telemetry_sink.on_task(index, telemetry)
                        yield index, result
        finally:
            _SHARED = None

    def run(
        self, fn: Callable[[Any, Any], Any], shared: Any, items: Sequence[Any]
    ) -> list[Any]:
        """Item-order results: collect keyed by index, emit canonically."""
        results: dict[int, Any] = {}
        for index, result in self.run_stream(fn, shared, items):
            results[index] = result
        return [results[index] for index in range(len(results))]


def resolve_executor(workers: int) -> ParallelExecutor:
    """The executor for a ``--workers N`` request.

    ``N <= 1`` (and platforms with no multiprocessing start method at
    all) get the in-process :class:`SerialExecutor`; anything else gets
    a :class:`ProcessExecutor`, which itself degrades to in-process
    execution if the pool cannot be started at runtime.
    """
    if workers <= 1:
        return SerialExecutor()
    if not multiprocessing.get_all_start_methods():  # pragma: no cover
        return SerialExecutor()
    return ProcessExecutor(workers)
