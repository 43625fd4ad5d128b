"""Typed error hierarchy for the simulated chain and the ENS contracts.

Contract code signals failure by raising :class:`Revert` (or a subclass);
the chain catches it, marks the transaction as failed, and rolls back
value transfer — mirroring EVM revert semantics closely enough for the
paper's analyses, which only care about success/failure and balances.
"""

from __future__ import annotations

__all__ = [
    "InsufficientFunds",
    "InvalidTransaction",
    "UnknownAccount",
    "Revert",
    "NameUnavailable",
    "NameNotRegistered",
    "NotOwner",
    "InvalidName",
    "PaymentTooLow",
]


class ChainError(Exception):
    """Base class for all simulated-chain errors."""


class InvalidTransaction(ChainError):
    """The transaction is malformed (bad nonce, negative value, ...)."""


class InsufficientFunds(InvalidTransaction):
    """Sender balance cannot cover value + fee."""


class UnknownAccount(ChainError):
    """An address was queried that the chain has never seen."""


class Revert(ChainError):
    """A contract call reverted; state changes of the call are dropped."""


class InvalidName(Revert):
    """The ENS name failed normalization/validation."""


class NameUnavailable(Revert):
    """Registration attempted on a name that is not available."""


class NameNotRegistered(Revert):
    """Operation on a name with no active registration."""


class NotOwner(Revert):
    """Caller does not own the name/token it tried to act on."""


class PaymentTooLow(Revert):
    """Value sent does not cover base price plus current premium."""
