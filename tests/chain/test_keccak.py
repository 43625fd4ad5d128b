"""Keccak-256: published vectors, the lane-sliced permutation against
the reference loop, and the batched path against the serial one."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.crypto.keccak import (
    _BATCH_CHUNK,
    _f1600_sliced,
    _keccak_f1600,
    keccak_256,
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
    assert keccak_256(message).hex() == expected


def test_keccak_is_not_sha3() -> None:
    # Guard against someone "simplifying" to hashlib.sha3_256: the padding
    # differs, so digests must differ.
    assert keccak_256(b"abc") != hashlib.sha3_256(b"abc").digest()


def test_digest_length_and_type() -> None:
    digest = keccak_256(b"hello")
    assert isinstance(digest, bytes)
    assert len(digest) == 32


def _reference_keccak_256(message: bytes) -> bytes:
    """A plain sponge over the reference permutation, one block at a time."""
    padded = bytearray(message + b"\x01")
    padded.extend(bytes(-len(padded) % 136))
    padded[-1] ^= 0x80
    state = [0] * 25
    for offset in range(0, len(padded), 136):
        for lane in range(17):
            start = offset + 8 * lane
            state[lane] ^= int.from_bytes(padded[start : start + 8], "little")
        _keccak_f1600(state)
    return b"".join(lane.to_bytes(8, "little") for lane in state[:4])


def test_exact_rate_block_boundary() -> None:
    # 136 bytes is exactly one rate block: padding must add a full block
    for size in (0, 135, 136, 137, 271, 272, 273):
        message = bytes(i % 251 for i in range(size))
        assert keccak_256(message) == _reference_keccak_256(message)


@given(st.binary(min_size=0, max_size=600))
@settings(max_examples=60, deadline=None)
def test_incremental_matches_one_shot(message: bytes) -> None:
    # the reference sponge absorbs one rate block at a time
    assert keccak_256(message) == _reference_keccak_256(message)


_LANE = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(st.sampled_from((1, 3, 64)).flatmap(
    lambda n: st.lists(st.lists(_LANE, min_size=25, max_size=25), min_size=n, max_size=n)
))
@settings(max_examples=30, deadline=None)
def test_sliced_permutation_matches_reference(states: list[list[int]]) -> None:
    # pack lane i of every state into one int, 64 bits per state
    n = len(states)
    lanes = [
        sum(state[i] << (64 * s) for s, state in enumerate(states)) for i in range(25)
    ]
    permuted = _f1600_sliced(lanes, n)
    for s, state in enumerate(states):
        reference = list(state)
        _keccak_f1600(reference)
        assert [(lane >> (64 * s)) & ((1 << 64) - 1) for lane in permuted] == reference


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
    # length that pads to two blocks
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
