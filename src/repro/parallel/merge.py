"""Order-canonicalizing reducers for per-shard results.

Workers finish in whatever order the scheduler likes; these reducers
erase that order. Every merge folds shard outputs in a *canonical*
order — sorted shard index, then sorted key within the shard payloads —
so the merged structure is byte-identical no matter which worker
finished first, and identical to what the serial code path produces.

The crawl-specific reducers (:func:`merge_staged_transactions`,
:func:`merge_staged_market_events`) deliberately replay the exact
insertion order of the legacy serial stages (sorted wallets / sorted
tokens, records in fetch order per key): :meth:`ENSDataset.incoming_of
<repro.datasets.dataset.ENSDataset.incoming_of>` sorts by timestamp
only, so ties fall back to insertion order and a *new* canonical order
would change analysis output relative to ``--workers 1``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence, TypeVar

from ..datasets.dataset import ENSDataset
from ..obs.metrics import MetricsRegistry

__all__ = [
    "accumulate_registry",
    "merge_keyed_lists",
    "merge_staged_market_events",
    "merge_staged_transactions",
]

V = TypeVar("V")


def merge_keyed_lists(
    staged: Mapping[int, Sequence[tuple[str, Sequence[V]]]],
) -> tuple[dict[str, list[V]], int]:
    """Fold per-shard ``(key, records)`` pairs into one key-indexed dict.

    Shards are folded in sorted shard-index order. Returns the merged
    mapping plus the number of *conflicts* — pairs whose key was already
    produced by an earlier shard (a correct partition never produces
    any; a non-zero count means the shard function and the stage
    disagree about key ownership). On conflict the earlier shard wins,
    mirroring the dataset's first-seen dedup.
    """
    merged: dict[str, list[V]] = {}
    conflicts = 0
    for shard_index in sorted(staged):
        for key, records in staged[shard_index]:
            if key in merged:
                conflicts += 1
                continue
            merged[key] = list(records)
    return merged, conflicts


def merge_staged_transactions(
    dataset: ENSDataset,
    staged: Mapping[int, Sequence[tuple[str, Sequence[Any]]]],
) -> int:
    """Apply per-shard wallet transaction batches to the dataset.

    Replays the serial stage exactly: one :meth:`ENSDataset.add_transactions
    <repro.datasets.dataset.ENSDataset.add_transactions>` call per wallet, in
    sorted wallet order, so cross-wallet duplicate hashes resolve to the
    same first-seen record the serial crawl keeps. Returns the partition
    conflict count from :func:`merge_keyed_lists`.
    """
    per_wallet, conflicts = merge_keyed_lists(staged)
    for wallet in sorted(per_wallet):
        dataset.add_transactions(per_wallet[wallet])
    return conflicts


def merge_staged_market_events(
    dataset: ENSDataset,
    staged: Mapping[int, Sequence[tuple[str, Sequence[Any]]]],
) -> int:
    """Apply per-shard market-event batches to the dataset.

    One :meth:`ENSDataset.add_market_events
    <repro.datasets.dataset.ENSDataset.add_market_events>` call per token in
    sorted token order — the serial stage's exact insertion order.
    Returns the partition conflict count.
    """
    per_token, conflicts = merge_keyed_lists(staged)
    for token in sorted(per_token):
        dataset.add_market_events(per_token[token])
    return conflicts


def accumulate_registry(
    registry: MetricsRegistry, snapshots: Iterable[Mapping[str, Any]]
) -> None:
    """Fold full worker registry snapshots into the parent registry.

    Counters add (worker registries start zeroed, so their values are
    deltas), histogram observations are replayed (bucket counts, sums,
    and exact percentiles stay correct) and gauges survive as
    last-write-wins. Snapshots are folded
    in the order given; callers that need order-independence for gauges
    should merge through a :class:`~repro.obs.spanmerge.TelemetrySink`,
    which resolves gauge writes by task index instead.
    """
    for source, snapshot in enumerate(snapshots):
        registry.merge_snapshot(dict(snapshot), source=source)
