"""Core value types for the simulated Ethereum ledger.

These model exactly the fields the paper's analyses consume: 20-byte
addresses, 32-byte hashes, wei amounts, and unix timestamps. Amounts are
plain ``int`` wei under the hood (Ethereum semantics: no floats on
chain); the :func:`ether` / :func:`from_wei` helpers convert at the
boundary.
"""

from __future__ import annotations

from hashlib import blake2b
from operator import itemgetter
from typing import ClassVar, NoReturn, Self

from .crypto.keccak import keccak_256

__all__ = [
    "Address",
    "Hash32",
    "Wei",
    "WEI_PER_ETHER",
    "ZERO_ADDRESS",
    "ether",
    "from_wei",
    "SECONDS_PER_DAY",
    "SECONDS_PER_YEAR",
]

Wei = int
WEI_PER_ETHER: int = 10**18
SECONDS_PER_DAY: int = 86_400
SECONDS_PER_YEAR: int = 365 * SECONDS_PER_DAY


def ether(amount: float | int | str) -> Wei:
    """Convert an ether amount to wei.

    Accepts ints, floats, and decimal strings; the result is exact for
    values with up to 18 fractional digits when given as int/str.
    """
    if isinstance(amount, int):
        return amount * WEI_PER_ETHER
    if isinstance(amount, str):
        whole, _, frac = amount.partition(".")
        frac = (frac + "0" * 18)[:18]
        sign = -1 if whole.startswith("-") else 1
        whole_wei = int(whole or "0") * WEI_PER_ETHER
        return whole_wei + sign * int(frac or "0")
    return int(round(amount * WEI_PER_ETHER))


def from_wei(amount: Wei) -> float:
    """Convert wei to a float ether amount (for reporting only)."""
    return amount / WEI_PER_ETHER


class _FixedBytes(tuple):
    """A fixed-length byte string, held as the one-item tuple ``(raw,)``.

    Hashing, equality and ordering are tuple's own, run in C, and
    ``hash(x) == hash((x.raw,))``: set and dict iteration orders, and
    with them the report goldens, rest on that value. A value is not
    iterable, so ``json.dumps`` raises on it instead of emitting an
    array.
    """

    __slots__ = ()

    LENGTH: ClassVar[int]
    _KIND: ClassVar[str]

    def __new__(cls, raw: bytes) -> Self:
        if not isinstance(raw, bytes) or len(raw) != cls.LENGTH:
            raise ValueError(f"{cls._KIND} must be exactly {cls.LENGTH} bytes")
        return tuple.__new__(cls, (raw,))

    raw = property(itemgetter(0), doc="The value's bytes.")

    def __getnewargs__(self) -> tuple[bytes]:
        # tuple's own would hand ``(raw,)`` to __new__; pickle and copy
        # rebuild the value from ``raw``
        return (self[0],)

    def __iter__(self) -> NoReturn:
        raise TypeError(f"{type(self).__name__!r} object is not iterable")

    @classmethod
    def from_hex(cls, text: str) -> Self:
        """Parse a ``0x``-prefixed (or bare) hex string of ``LENGTH`` bytes."""
        cleaned = text[2:] if text.startswith(("0x", "0X")) else text
        if len(cleaned) != cls.LENGTH * 2:
            raise ValueError(
                f"{cls._KIND} hex must be {cls.LENGTH * 2} digits: {text!r}"
            )
        return cls(bytes.fromhex(cleaned))

    @property
    def hex(self) -> str:
        """Lowercase ``0x``-prefixed hex form."""
        return "0x" + self[0].hex()

    def __str__(self) -> str:
        return self.hex

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.hex})"


class Address(_FixedBytes):
    """A 20-byte Ethereum address.

    Instances are immutable, hashable, and ordered by raw bytes, so they
    can key dictionaries and sort deterministically in reports.
    """

    __slots__ = ()

    LENGTH: ClassVar[int] = 20
    _KIND: ClassVar[str] = "address"

    @classmethod
    def derive(cls, seed: str | bytes) -> "Address":
        """Deterministically derive an address from a seed string.

        Used throughout the simulation so the same actor always gets the
        same address regardless of creation order. This is a simulation
        convenience (real addresses come from secp256k1 keys), so it uses
        fast blake2b rather than keccak.
        """
        data = seed.encode("utf-8") if isinstance(seed, str) else seed
        return cls(blake2b(b"addr:" + data, digest_size=cls.LENGTH).digest())

    @property
    def checksum(self) -> str:
        """EIP-55 mixed-case checksum form."""
        plain = self[0].hex()
        digest = keccak_256(plain.encode("ascii")).hex()
        chars = [
            ch.upper() if ch.isalpha() and int(digest[i], 16) >= 8 else ch
            for i, ch in enumerate(plain)
        ]
        return "0x" + "".join(chars)


ZERO_ADDRESS = Address(b"\x00" * Address.LENGTH)


class Hash32(_FixedBytes):
    """A 32-byte hash value (transaction ids, namehash nodes, ...)."""

    __slots__ = ()

    LENGTH: ClassVar[int] = 32
    _KIND: ClassVar[str] = "hash"

    @classmethod
    def of(cls, data: bytes) -> "Hash32":
        """Keccak-256 of ``data`` as a :class:`Hash32`."""
        return cls(keccak_256(data))
