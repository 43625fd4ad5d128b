"""Stable hash-based shard assignment.

Shard assignment must be a pure function of the *key* and the *shard
count* — never the worker count, the process, or the Python hash seed.
``hash()`` is salted per process (PYTHONHASHSEED), so shards computed
with it would differ between a worker and a resumed parent; we use the
first 8 bytes of SHA-256 instead, which is stable across processes,
platforms, and Python versions.

The shard count is a fixed property of the *work partition*, not of
the hardware: a 4-worker run and a 1-worker run of the same universe
produce the same shards, which is what lets checkpoints record
"shard 3 of stage wallets is done" and be resumed at any worker count
within the same sharded mode.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

__all__ = ["DEFAULT_SHARD_COUNT", "partition", "shard_of"]

#: Fixed partition width for sharded crawl stages. Independent of the
#: worker count so shard membership (and checkpoints) never depend on
#: how many processes happened to run.
DEFAULT_SHARD_COUNT = 8


def shard_of(key: str, shard_count: int) -> int:
    """The shard index of ``key``: pure in (key, shard_count).

    Uses SHA-256, not the builtin ``hash``, so the assignment is
    identical in every process regardless of hash randomization.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


def partition(keys: Iterable[str], shard_count: int) -> list[list[str]]:
    """Split ``keys`` into ``shard_count`` shards, preserving input order.

    Every key lands in exactly one shard; within a shard, keys keep the
    order they arrived in. Callers that need a canonical partition pass
    the keys pre-sorted (the crawl stages pass ``sorted(...)`` so the
    partition — and therefore each worker's output — is reproducible).
    """
    shards: list[list[str]] = [[] for _ in range(shard_count)]
    for key in keys:
        shards[shard_of(key, shard_count)].append(key)
    return shards
