"""Deterministic sharded parallel execution.

The engine behind ``--workers N``: the domain/address universe is
partitioned into *stable hash-based shards* (:func:`shard_of` is a pure
function of the key and the shard count — never the worker count), the
shards fan out over a process pool, and per-shard results flow back
through *order-canonicalizing reducers* that merge in shard-index (or
sorted-key) order regardless of completion order. The invariant the CI
determinism gate enforces: the final :class:`~repro.datasets.dataset.ENSDataset`
and headline report are **byte-identical for any worker count**,
including the in-process serial executor.

Layering: this package is generic infrastructure (it imports only
``obs`` and its ``datasets`` peer). The crawl stages wire it up in
:mod:`repro.crawler.pipeline`, its only caller; analysis runs
serially. See ``docs/PARALLELISM.md``.
"""

from .executor import (
    ParallelExecutor,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
    worker_telemetry,
)
from .merge import (
    accumulate_registry,
    merge_keyed_lists,
    merge_staged_market_events,
    merge_staged_transactions,
)
from .sharding import DEFAULT_SHARD_COUNT, partition, shard_of

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "ParallelExecutor",
    "ProcessExecutor",
    "SerialExecutor",
    "accumulate_registry",
    "merge_keyed_lists",
    "merge_staged_market_events",
    "merge_staged_transactions",
    "partition",
    "resolve_executor",
    "shard_of",
    "worker_telemetry",
]
