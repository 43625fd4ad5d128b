"""Pure-Python Keccak-256 as used by Ethereum.

Ethereum uses the *original* Keccak submission (multi-rate padding byte
``0x01``), not the final NIST SHA-3 standard (padding byte ``0x06``), so
:func:`hashlib.sha3_256` produces different digests. Every piece of ENS —
labelhash, namehash, token ids — is defined over this function, so we
implement the full Keccak-f[1600] permutation here and verify it against
the published test vectors in the test suite.

Two paths compute the same digests. The serial sponge
(:func:`keccak_256`, :class:`Keccak256`) runs one code-generated,
unrolled permutation per 136-byte rate block. :func:`keccak_256_many`
hashes many single-block messages at once: lane *i* of up to
``_BATCH_CHUNK`` states is packed into one Python int, so each
permutation step acts on every state in a single big-int operation.
The measured cost of each path is in ``docs/PERFORMANCE.md``
("Substrate: batched keccak"). The ENS memos use the batch to hash a
scenario's labels and ``.eth`` nodes at setup. The keccak counters
count digests, absorbed bytes and permutation calls identically on
both paths.
"""

from __future__ import annotations

from array import array
from typing import Iterable

__all__ = ["keccak_256", "keccak_256_hex", "keccak_256_many", "Keccak256"]

_KECCAK_ROUNDS = 24
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


# The production permutation: a committed straight-line version of the
# reference loop above, written by tools/gen_keccak_permutation.py (its
# docstring has the rationale). Tests pin both implementations to each
# other and to published digests, and the committed file to the generator.
from ._f1600_unrolled import f1600_unrolled as _f1600_fast

# Process-global hash-effort counters, bound once at import so the per-
# digest overhead is a single float addition (the permutation itself is
# thousands of integer operations).
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


class Keccak256:
    """Incremental Keccak-256 hasher with a hashlib-like interface.

    >>> h = Keccak256()
    >>> h.update(b"abc")
    >>> h.hexdigest()
    '4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45'
    """

    digest_size = 32
    block_size = _RATE_BYTES

    def __init__(self, data: bytes = b"") -> None:
        self._state = [0] * 25
        self._buffer = bytearray()
        self._finalized: bytes | None = None
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb more message bytes. Raises if the digest was already read."""
        if self._finalized is not None:
            raise ValueError("cannot update a finalized Keccak256 hasher")
        _M_BYTES.inc(len(data))
        self._buffer.extend(data)
        while len(self._buffer) >= _RATE_BYTES:
            self._absorb_block(bytes(self._buffer[:_RATE_BYTES]))
            del self._buffer[:_RATE_BYTES]

    def _absorb_block(self, block: bytes) -> None:
        for lane_index in range(_RATE_BYTES // 8):
            lane = int.from_bytes(block[lane_index * 8 : lane_index * 8 + 8], "little")
            self._state[lane_index] ^= lane
        self._state = _f1600_fast(self._state)
        _M_PERMUTATIONS.inc()

    def digest(self) -> bytes:
        """Return the 32-byte digest; the hasher may not be updated afterwards."""
        if self._finalized is None:
            # Multi-rate padding: 0x01 ... 0x80 (Keccak, not SHA-3's 0x06).
            padded = bytearray(self._buffer)
            pad_length = _RATE_BYTES - (len(padded) % _RATE_BYTES)
            padded.extend(b"\x00" * pad_length)
            padded[len(self._buffer)] ^= 0x01
            padded[-1] ^= 0x80
            state = list(self._state)
            for offset in range(0, len(padded), _RATE_BYTES):
                block = padded[offset : offset + _RATE_BYTES]
                for lane_index in range(_RATE_BYTES // 8):
                    lane = int.from_bytes(
                        block[lane_index * 8 : lane_index * 8 + 8], "little"
                    )
                    state[lane_index] ^= lane
                state = _f1600_fast(state)
                _M_PERMUTATIONS.inc()
            squeezed = b"".join(
                state[lane_index].to_bytes(8, "little") for lane_index in range(4)
            )
            self._finalized = squeezed
            _M_DIGESTS.inc()
        return self._finalized

    def hexdigest(self) -> str:
        """Return the digest as a 64-character lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "Keccak256":
        """Return an independent copy of the current hasher state."""
        clone = Keccak256()
        clone._state = list(self._state)
        clone._buffer = bytearray(self._buffer)
        clone._finalized = self._finalized
        return clone


def keccak_256(data: bytes | bytearray | memoryview) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``."""
    return Keccak256(bytes(data)).digest()


def keccak_256_hex(data: bytes | bytearray | memoryview) -> str:
    """Return the Keccak-256 digest of ``data`` as lowercase hex."""
    return keccak_256(data).hex()


# -- batched hashing ---------------------------------------------------------

#: States per lane-sliced permutation; bounds each lane int to 8 KiB.
_BATCH_CHUNK = 1024

# rho + pi as (source lane, target lane, rotation), and chi's row partners.
_RHO_PI = tuple(
    (x + 5 * y, y + 5 * ((2 * x + 3 * y) % 5), _ROTATION[x][y])
    for x in range(5)
    for y in range(5)
)
_CHI = tuple(
    (x + y, (x + 1) % 5 + y, (x + 2) % 5 + y) for y in range(0, 25, 5) for x in range(5)
)


def _f1600_sliced(lanes: list[int], n: int) -> list[int]:
    """Keccak-f[1600] on ``n`` states at once, lane-sliced.

    ``lanes[i]`` packs lane ``i`` of every state into one int: state
    ``s`` holds bits ``64*s`` to ``64*s + 63``. XOR and AND then act on
    all ``n`` states per operation. A rotation is two shifts, each
    masked to its own 64-bit words; NOT is an XOR with all ones; iota
    XORs the round constant repeated in every word.
    """

    def repeated(word: int) -> int:
        return int.from_bytes(word.to_bytes(8, "little") * n, "little")

    ones = repeated(_LANE_MASK)
    masks = {
        shift: (repeated(_LANE_MASK ^ ((1 << shift) - 1)), repeated((1 << shift) - 1))
        for shift in sorted({1, *(shift for _, _, shift in _RHO_PI)} - {0})
    }
    high1, low1 = masks[1]
    a = lanes
    b = [0] * 25
    for round_constant in map(repeated, _ROUND_CONSTANTS):
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = []
        for x in range(5):
            right = c[(x + 1) % 5]
            d.append(c[(x - 1) % 5] ^ (((right << 1) & high1) | ((right >> 63) & low1)))
        for source, target, shift in _RHO_PI:
            lane = a[source] ^ d[source % 5]
            if shift:
                high, low = masks[shift]
                lane = ((lane << shift) & high) | ((lane >> (64 - shift)) & low)
            b[target] = lane
        a = [b[i] ^ ((b[j] ^ ones) & b[k]) for i, j, k in _CHI]
        a[0] ^= round_constant
    return a


def _keccak_256_blocks(messages: list[bytes]) -> list[bytes]:
    """Digests of messages shorter than one rate block, in one permutation."""
    n = len(messages)
    padded = bytearray(_RATE_BYTES * n)
    for offset, message in zip(range(0, len(padded), _RATE_BYTES), messages):
        padded[offset : offset + len(message)] = message
        padded[offset + len(message)] ^= 0x01
        padded[offset + _RATE_BYTES - 1] ^= 0x80
    # array slicing moves whole 8-byte words, so the byte order of the host
    # never enters: words[i::17] is lane i of every state, in state order
    words = array("Q", padded)
    rate_lanes = _RATE_BYTES // 8
    lanes = [
        int.from_bytes(words[i::rate_lanes].tobytes(), "little")
        for i in range(rate_lanes)
    ]
    state = _f1600_sliced(lanes + [0] * (25 - rate_lanes), n)
    squeezed = array("Q", bytes(32 * n))
    for i in range(4):
        squeezed[i::4] = array("Q", state[i].to_bytes(8 * n, "little"))
    raw = squeezed.tobytes()
    return [raw[offset : offset + 32] for offset in range(0, len(raw), 32)]


def keccak_256_many(messages: Iterable[bytes]) -> list[bytes]:
    """Return ``[keccak_256(m) for m in messages]``, many digests per permutation.

    Messages shorter than one rate block (at most 135 bytes, such as a
    generated label or a 64-byte ``parent ‖ labelhash``) are hashed
    ``_BATCH_CHUNK`` at a time by the lane-sliced permutation. Longer
    messages take the serial sponge. The counters move exactly as for
    one serial call per message.
    """
    messages = [bytes(message) for message in messages]
    digests: list[bytes | None] = [None] * len(messages)
    short = [i for i, message in enumerate(messages) if len(message) < _RATE_BYTES]
    for start in range(0, len(short), _BATCH_CHUNK):
        chunk = short[start : start + _BATCH_CHUNK]
        batch = [messages[i] for i in chunk]
        for i, digest in zip(chunk, _keccak_256_blocks(batch)):
            digests[i] = digest
        _M_BYTES.inc(sum(map(len, batch)))
        _M_PERMUTATIONS.inc(len(batch))
        _M_DIGESTS.inc(len(batch))
    return [
        Keccak256(message).digest() if digest is None else digest
        for digest, message in zip(digests, messages)
    ]
