"""ENS namehash and labelhash (EIP-137) over real Keccak-256.

This is the exact algorithm mainnet ENS uses — names are stored on
chain only as these hashes, which is why the paper needed the subgraph
to recover readable names (§3.1).

:func:`child_node` is the one node derivation: every
``keccak(parent ‖ labelhash)`` in the ENS contracts, the reverse
registrar and the indexer goes through it, so this is the only module
under ``repro.ens``/``repro.indexer`` that calls ``keccak_256`` or its
batch entry point ``keccak_256_many``. It, :func:`labelhash` and
:func:`namehash` are memoized because the simulation touches the same
nodes many times and pure-Python keccak is expensive; each distinct
digest is computed once per process. :func:`labelhashes` and
:func:`child_nodes` fill those same memos for many keys at once, with
one batched permutation per chunk of misses; the scenario calls them at
setup with its generated labels, never with outside input.
``normalize_name`` is deliberately not memoized: the serve layer feeds
it untrusted HTTP path segments, which must never fill a memo.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Iterable

from ..chain.crypto.keccak import keccak_256, keccak_256_many
from ..chain.types import Hash32
from .normalize import normalize_name

__all__ = [
    "child_node",
    "child_nodes",
    "labelhash",
    "labelhashes",
    "namehash",
    "ROOT_NODE",
    "ETH_NODE",
]

ROOT_NODE = Hash32(b"\x00" * 32)

_PENDING = object()


class _Handoff(threading.local):
    """One-shot hand-off from the batch calls to the memoized functions.

    ``digests`` maps a keccak input to its digest, or to ``_PENDING``
    while a batch probes for misses. Every batch call leaves it empty.
    It is per thread: a memo call in another thread never sees a running
    batch's entries and hashes serially, as it would without the batch.
    """

    def __init__(self) -> None:
        self.digests: dict[bytes, object] = {}


_handoff = _Handoff()


class _Pending(Exception):
    """A memo miss on a message the running batch will hash."""


def _digest(message: bytes) -> bytes:
    digest = _handoff.digests.pop(message, None)
    if digest is None:
        return keccak_256(message)
    if digest is _PENDING:
        raise _Pending  # lru_cache stores no result for a raise
    return digest  # type: ignore[return-value]


def _batched(memo: Callable, calls: list[tuple], messages: list[bytes]) -> list:
    """``[memo(*call) for call in calls]``, the misses hashed in one batch.

    Each call is first probed with its message marked pending: a memo
    hit returns, a miss raises :class:`_Pending`. The distinct missed
    messages are hashed by :func:`keccak_256_many` and handed to the
    memoized function through this thread's ``_handoff``, so each lands
    in its memo.
    """
    handoff = _handoff.digests
    missed: dict[bytes, None] = {}
    try:
        for call, message in zip(calls, messages):
            handoff[message] = _PENDING
            try:
                memo(*call)
            except _Pending:
                missed[message] = None
            handoff.pop(message, None)
        handoff.update(zip(missed, keccak_256_many(missed)))
        return [memo(*call) for call in calls]
    finally:
        handoff.clear()


@lru_cache(maxsize=1_000_000)
def labelhash(label: str) -> Hash32:
    """Keccak-256 of a single (already normalized) label's UTF-8 bytes."""
    return Hash32(_digest(label.encode("utf-8")))


@lru_cache(maxsize=1_000_000)
def child_node(parent: Hash32, label_hash: Hash32) -> Hash32:
    """The node of label ``label_hash`` under ``parent``: keccak(parent ‖ label)."""
    return Hash32(_digest(parent.raw + label_hash.raw))


def labelhashes(labels: Iterable[str]) -> list[Hash32]:
    """``[labelhash(label) for label in labels]``, uncached digests batched."""
    labels = list(labels)
    messages = [label.encode("utf-8") for label in labels]
    return _batched(labelhash, [(label,) for label in labels], messages)


def child_nodes(parent: Hash32, label_hashes: Iterable[Hash32]) -> list[Hash32]:
    """``[child_node(parent, h) for h in label_hashes]``, uncached digests batched."""
    calls = [(parent, label_hash) for label_hash in label_hashes]
    return _batched(
        child_node, calls, [parent.raw + label_hash.raw for _, label_hash in calls]
    )


@lru_cache(maxsize=1_000_000)
def _namehash_normalized(name: str) -> Hash32:
    if not name:
        return ROOT_NODE
    label, _, remainder = name.partition(".")
    return child_node(_namehash_normalized(remainder), labelhash(label))


@lru_cache(maxsize=1_000_000)
def namehash(name: str) -> Hash32:
    """EIP-137 namehash of a dotted ENS name ('' hashes to the root node)."""
    if name == "":
        return ROOT_NODE
    return _namehash_normalized(normalize_name(name))


ETH_NODE = namehash("eth")
