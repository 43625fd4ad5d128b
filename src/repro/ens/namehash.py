"""ENS namehash and labelhash (EIP-137) over real Keccak-256.

This is the exact algorithm mainnet ENS uses — names are stored on
chain only as these hashes, which is why the paper needed the subgraph
to recover readable names (§3.1).

:func:`child_node` is the one node derivation: every
``keccak(parent ‖ labelhash)`` in the ENS contracts, the reverse
registrar and the indexer goes through it, so this is the only module
under ``repro.ens``/``repro.indexer`` that calls ``keccak_256``. It,
:func:`labelhash` and :func:`namehash` are memoized because the
simulation touches the same nodes many times and pure-Python keccak is
expensive; each distinct digest is computed once per process.
``normalize_name`` is deliberately not memoized: the serve layer feeds
it untrusted HTTP path segments, which must never fill a memo.
"""

from __future__ import annotations

from functools import lru_cache

from ..chain.crypto.keccak import keccak_256
from ..chain.types import Hash32
from .normalize import normalize_name

__all__ = ["child_node", "labelhash", "namehash", "ROOT_NODE", "ETH_NODE"]

ROOT_NODE = Hash32(b"\x00" * 32)


@lru_cache(maxsize=1_000_000)
def labelhash(label: str) -> Hash32:
    """Keccak-256 of a single (already normalized) label's UTF-8 bytes."""
    return Hash32(keccak_256(label.encode("utf-8")))


@lru_cache(maxsize=1_000_000)
def child_node(parent: Hash32, label_hash: Hash32) -> Hash32:
    """The node of label ``label_hash`` under ``parent``: keccak(parent ‖ label)."""
    return Hash32(keccak_256(parent.raw + label_hash.raw))


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
