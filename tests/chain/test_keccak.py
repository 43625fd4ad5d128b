"""Keccak-256: published vectors, reference-vs-unrolled equivalence,
and the batched path against the serial one."""

from __future__ import annotations

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.crypto._f1600_unrolled import f1600_unrolled
from repro.chain.crypto.keccak import (
    _BATCH_CHUNK,
    Keccak256,
    _keccak_f1600,
    keccak_256,
    keccak_256_hex,
    keccak_256_many,
)
from repro.obs import global_registry

# Published Keccak-256 digests (the Ethereum variant, NOT SHA3-256).
KNOWN_VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
    b"eth": "4f5b812789fc606be1b3b16908db13fc7a9adf7ca72641f84d75b47069d3d7f0",
}


@pytest.mark.parametrize("message,expected", sorted(KNOWN_VECTORS.items()))
def test_known_vectors(message: bytes, expected: str) -> None:
    assert keccak_256_hex(message) == expected


def test_keccak_is_not_sha3() -> None:
    # Guard against someone "simplifying" to hashlib.sha3_256: the padding
    # differs, so digests must differ.
    assert keccak_256(b"abc") != hashlib.sha3_256(b"abc").digest()


def test_digest_length_and_type() -> None:
    digest = keccak_256(b"hello")
    assert isinstance(digest, bytes)
    assert len(digest) == 32


def test_exact_rate_block_boundary() -> None:
    # 136 bytes is exactly one rate block: padding must add a full block.
    for size in (135, 136, 137, 272):
        one_shot = keccak_256(b"a" * size)
        incremental = Keccak256()
        for offset in range(size):
            incremental.update(b"a")
        assert incremental.digest() == one_shot


def test_update_after_digest_rejected() -> None:
    hasher = Keccak256(b"abc")
    hasher.digest()
    with pytest.raises(ValueError):
        hasher.update(b"more")


def test_digest_idempotent() -> None:
    hasher = Keccak256(b"abc")
    assert hasher.digest() == hasher.digest()
    assert hasher.hexdigest() == KNOWN_VECTORS[b"abc"]


def test_copy_is_independent() -> None:
    hasher = Keccak256(b"The quick brown fox ")
    clone = hasher.copy()
    hasher.update(b"jumps over the lazy dog")
    clone.update(b"jumps over the lazy dog")
    assert hasher.digest() == clone.digest()
    clone2 = Keccak256(b"x").copy()
    clone2.update(b"y")
    assert clone2.digest() == keccak_256(b"xy")


@given(st.binary(min_size=0, max_size=600))
@settings(max_examples=60, deadline=None)
def test_incremental_matches_one_shot(message: bytes) -> None:
    chunked = Keccak256()
    for offset in range(0, len(message), 7):
        chunked.update(message[offset : offset + 7])
    assert chunked.digest() == keccak_256(message)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=25, max_size=25))
@settings(max_examples=30, deadline=None)
def test_unrolled_permutation_matches_reference(lanes: list[int]) -> None:
    reference = list(lanes)
    _keccak_f1600(reference)
    assert f1600_unrolled(list(lanes)) == reference


def test_committed_permutation_is_the_generator_output() -> None:
    # the unrolled module is committed source written by a tool script
    tool = Path(__file__).resolve().parents[2] / "tools" / "gen_keccak_permutation.py"
    spec = importlib.util.spec_from_file_location("gen_keccak_permutation", tool)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    committed = Path(sys.modules[f1600_unrolled.__module__].__file__).resolve()
    assert committed == generator.TARGET
    assert committed.read_bytes() == generator.generate().encode("utf-8")


@given(st.binary(max_size=64), st.binary(max_size=64))
@settings(max_examples=40, deadline=None)
def test_distinct_messages_distinct_digests(a: bytes, b: bytes) -> None:
    # Collision resistance sanity at property-test scale.
    if a != b:
        assert keccak_256(a) != keccak_256(b)


def test_known_vectors_through_the_batch() -> None:
    messages = sorted(KNOWN_VECTORS)
    assert [digest.hex() for digest in keccak_256_many(messages)] == [
        KNOWN_VECTORS[message] for message in messages
    ]


def _random_messages(rng: random.Random, count: int) -> list[bytes]:
    # lengths 0-200 straddle the 135-byte single-block limit
    return [rng.randbytes(rng.randrange(201)) for _ in range(count)]


@given(st.integers(min_value=0, max_value=2_000), st.integers(min_value=0))
@settings(max_examples=8, deadline=None)
def test_batch_matches_serial(count: int, seed: int) -> None:
    messages = _random_messages(random.Random(seed), count)
    assert keccak_256_many(messages) == [keccak_256(m) for m in messages]


def test_batch_crossing_a_chunk_boundary() -> None:
    # one full chunk of single-block messages and one more, then the first
    # length that takes the serial sponge
    rng = random.Random(7)
    messages = [rng.randbytes(rng.randrange(136)) for _ in range(_BATCH_CHUNK + 1)]
    messages[0] = b"a" * 135
    messages.append(b"a" * 136)
    assert keccak_256_many(messages) == [keccak_256(m) for m in messages]


def test_batch_moves_the_counters_like_serial_calls() -> None:
    names = (
        "keccak_digests_total",
        "keccak_bytes_total",
        "keccak_permutations_total",
    )
    messages = _random_messages(random.Random(3), 50) + [b"x" * 300]

    def deltas(hash_all) -> list[float]:
        before = [global_registry().value(name) for name in names]
        hash_all(messages)
        return [global_registry().value(name) - b for name, b in zip(names, before)]

    assert deltas(keccak_256_many) == deltas(lambda ms: [keccak_256(m) for m in ms])
