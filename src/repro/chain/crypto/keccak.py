"""Pure-Python Keccak-256 as used by Ethereum.

Ethereum uses the *original* Keccak submission (multi-rate padding byte
``0x01``), not the final NIST SHA-3 standard (padding byte ``0x06``), so
:func:`hashlib.sha3_256` produces different digests. Every piece of ENS —
labelhash, namehash, token ids — is defined over this function, so we
implement the full Keccak-f[1600] permutation here and verify it against
the published test vectors in the test suite.

One sponge serves both entry points. It runs a lane-sliced permutation:
lane *i* of up to ``_BATCH_CHUNK`` states is packed into one Python int,
so each permutation step acts on every state in a single big-int
operation. :func:`keccak_256` is the one-message case, where the packed
lanes are a plain 25-lane state. :func:`keccak_256_many` groups messages
by padded length and hashes each group a chunk at a time. The ENS memos
use it to hash a scenario's labels and ``.eth`` nodes at setup. The
measured costs are in ``docs/PERFORMANCE.md`` ("Substrate: batched
keccak", "Substrate: one permutation"). The reference loop
:func:`_keccak_f1600` is the readable form of the permutation that the
tests check the production one against.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Iterable

__all__ = ["keccak_256", "keccak_256_many"]

_RATE_BYTES = 136  # 1088-bit rate for a 256-bit capacity-512 sponge
_LANE_MASK = (1 << 64) - 1

# Round constants for the iota step (FIPS 202, Table 2).
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# Rotation offsets for the rho step, indexed [x][y].
_ROTATION = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)


def _rotl64(value: int, shift: int) -> int:
    """Rotate a 64-bit integer left by ``shift`` bits."""
    if shift == 0:
        return value
    return ((value << shift) | (value >> (64 - shift))) & _LANE_MASK


def _keccak_f1600(state: list[int]) -> None:
    """Apply the Keccak-f[1600] permutation to a 25-lane state in place.

    ``state`` is a flat list of 25 64-bit lanes in ``x + 5*y`` order.
    """
    for round_constant in _ROUND_CONSTANTS:
        # theta: column parities diffused across the state.
        parity = [
            state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20]
            for x in range(5)
        ]
        theta_effect = [
            parity[(x - 1) % 5] ^ _rotl64(parity[(x + 1) % 5], 1) for x in range(5)
        ]
        for x in range(5):
            effect = theta_effect[x]
            for y in range(0, 25, 5):
                state[x + y] ^= effect

        # rho + pi: rotate each lane and permute positions.
        rotated = [0] * 25
        for x in range(5):
            for y in range(5):
                lane = _rotl64(state[x + 5 * y], _ROTATION[x][y])
                rotated[y + 5 * ((2 * x + 3 * y) % 5)] = lane

        # chi: non-linear mixing within rows.
        for y in range(0, 25, 5):
            row = rotated[y : y + 5]
            for x in range(5):
                state[x + y] = row[x] ^ ((~row[(x + 1) % 5]) & row[(x + 2) % 5])

        # iota: break symmetry with the round constant.
        state[0] ^= round_constant


# Process-global hash-effort counters, bound once at import so the per-
# call overhead is a few float additions (the permutation itself is
# thousands of big-int operations).
from ...obs.metrics import global_registry as _global_registry

_M_DIGESTS = _global_registry().counter(
    "keccak_digests_total", "Keccak-256 digests finalized"
)
_M_BYTES = _global_registry().counter(
    "keccak_bytes_total", "Message bytes absorbed by Keccak-256"
)
_M_PERMUTATIONS = _global_registry().counter(
    "keccak_permutations_total", "Keccak-f[1600] permutation calls"
)

#: States per lane-sliced permutation; bounds each lane int to 8 KiB.
_BATCH_CHUNK = 1024

# theta's column partners, rho + pi as (source lane, target lane, rotation),
# and chi's row partners.
_THETA = tuple(((x - 1) % 5, (x + 1) % 5) for x in range(5))
_RHO_PI = tuple(
    (x + 5 * y, y + 5 * ((2 * x + 3 * y) % 5), _ROTATION[x][y])
    for x in range(5)
    for y in range(5)
)
_CHI = tuple(
    (x + y, (x + 1) % 5 + y, (x + 2) % 5 + y) for y in range(0, 25, 5) for x in range(5)
)


@lru_cache(maxsize=2)
def _sliced_constants(n: int) -> tuple:
    """What ``_f1600_sliced`` needs at width ``n``, each 64-bit word
    repeated ``n`` times: the all-ones mask, theta's rotation by one,
    rho + pi with each rotation's shifts and word masks, and the round
    constants. The last two widths are kept, so a run of one-message
    calls builds them once."""

    def repeated(word: int) -> int:
        return int.from_bytes(word.to_bytes(8, "little") * n, "little")

    def rotation(shift: int) -> tuple[int, int, int, int]:
        # rotation by 0 keeps every bit: all-ones high mask, empty low one
        low = (1 << shift) - 1
        return shift, 64 - shift, repeated(_LANE_MASK ^ low), repeated(low)

    rho_pi = tuple(
        (source, target, source % 5, *rotation(shift))
        for source, target, shift in _RHO_PI
    )
    round_constants = [repeated(constant) for constant in _ROUND_CONSTANTS]
    return repeated(_LANE_MASK), rotation(1)[2:], rho_pi, round_constants


def _f1600_sliced(lanes: list[int], n: int) -> list[int]:
    """Keccak-f[1600] on ``n`` states at once, lane-sliced.

    ``lanes[i]`` packs lane ``i`` of every state into one int: state
    ``s`` holds bits ``64*s`` to ``64*s + 63``. XOR and AND then act on
    all ``n`` states per operation. A rotation is two shifts, each
    masked to its own 64-bit words; NOT is an XOR with all ones; iota
    XORs the round constant repeated in every word. With ``n == 1``,
    ``lanes`` is a plain 25-lane state.
    """
    ones, (high1, low1), rho_pi, round_constants = _sliced_constants(n)
    a = lanes
    b = [0] * 25
    for round_constant in round_constants:
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [
            c[left] ^ (((c[right] << 1) & high1) | ((c[right] >> 63) & low1))
            for left, right in _THETA
        ]
        for source, target, column, shift, back, high, low in rho_pi:
            lane = a[source] ^ d[column]
            b[target] = ((lane << shift) & high) | ((lane >> back) & low)
        a = [b[i] ^ ((b[j] ^ ones) & b[k]) for i, j, k in _CHI]
        a[0] ^= round_constant
    return a


def _pad(message: bytes) -> bytearray:
    """Multi-rate padding to whole rate blocks: 0x01 ... 0x80 (Keccak, not
    SHA-3's 0x06). A message of exactly one block gains a full block."""
    padded = bytearray(message)
    padded.extend(bytes(_RATE_BYTES - len(message) % _RATE_BYTES))
    padded[len(message)] ^= 0x01
    padded[-1] ^= 0x80
    return padded


def _sponge(messages: list[bytes]) -> list[bytes]:
    """Digests of messages that pad to the same number of rate blocks.

    All states absorb block *k* together, so each block is one
    lane-sliced permutation over every message. The counters move as
    for one digest per message.
    """
    n = len(messages)
    padded = [_pad(message) for message in messages]
    blocks = len(padded[0]) // _RATE_BYTES
    rate_lanes = _RATE_BYTES // 8
    state = [0] * 25
    for block in range(blocks):
        start = block * _RATE_BYTES
        # array slicing moves whole 8-byte words, so the byte order of the
        # host never enters: words[i::17] is lane i of every state, in order
        words = array("Q", b"".join(p[start : start + _RATE_BYTES] for p in padded))
        for i in range(rate_lanes):
            state[i] ^= int.from_bytes(words[i::rate_lanes].tobytes(), "little")
        state = _f1600_sliced(state, n)
    squeezed = array("Q", bytes(32 * n))
    for i in range(4):
        squeezed[i::4] = array("Q", state[i].to_bytes(8 * n, "little"))
    raw = squeezed.tobytes()
    _M_BYTES.inc(sum(map(len, messages)))
    _M_PERMUTATIONS.inc(blocks * n)
    _M_DIGESTS.inc(n)
    return [raw[offset : offset + 32] for offset in range(0, len(raw), 32)]


def keccak_256(data: bytes | bytearray | memoryview) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``."""
    return _sponge([bytes(data)])[0]


def keccak_256_many(messages: Iterable[bytes]) -> list[bytes]:
    """Return ``[keccak_256(m) for m in messages]``, many digests per permutation.

    Messages that pad to the same number of rate blocks (every message
    of at most 135 bytes, such as a generated label or a 64-byte
    ``parent ‖ labelhash``, pads to one) are hashed ``_BATCH_CHUNK`` at a
    time. The counters move exactly as for one call per message.
    """
    messages = [bytes(message) for message in messages]
    groups: dict[int, list[int]] = {}
    for index, message in enumerate(messages):
        groups.setdefault(len(message) // _RATE_BYTES, []).append(index)
    digests: list[bytes] = [b""] * len(messages)
    for indices in groups.values():
        for start in range(0, len(indices), _BATCH_CHUNK):
            chunk = indices[start : start + _BATCH_CHUNK]
            for index, digest in zip(chunk, _sponge([messages[i] for i in chunk])):
                digests[index] = digest
    return digests
