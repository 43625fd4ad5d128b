"""Simulated Ethereum ledger substrate.

Public surface:

* :class:`Blockchain` — the ledger: clock, accounts, contracts, receipts.
* :class:`Address`, :class:`Hash32`, ``Wei`` helpers — value types.
* :class:`Contract`, :class:`CallContext` — contract runtime.
* :func:`keccak_256` — Ethereum's keccak (the ENS hash function).
"""

from .account import AccountState
from .chain import Blockchain
from .contract import CallContext, Contract
from .crypto.keccak import keccak_256
from .errors import (
    InsufficientFunds,
    InvalidName,
    InvalidTransaction,
    NameNotRegistered,
    NameUnavailable,
    NotOwner,
    PaymentTooLow,
    Revert,
    UnknownAccount,
)
from .transaction import CallPayload, Log, Receipt, Transaction
from .types import (
    SECONDS_PER_DAY,
    SECONDS_PER_YEAR,
    WEI_PER_ETHER,
    ZERO_ADDRESS,
    Address,
    Hash32,
    Wei,
    ether,
)

__all__ = [
    "AccountState",
    "Address",
    "Blockchain",
    "CallContext",
    "CallPayload",
    "Contract",
    "Hash32",
    "InsufficientFunds",
    "InvalidName",
    "InvalidTransaction",
    "Log",
    "NameNotRegistered",
    "NameUnavailable",
    "NotOwner",
    "PaymentTooLow",
    "Receipt",
    "Revert",
    "SECONDS_PER_DAY",
    "SECONDS_PER_YEAR",
    "Transaction",
    "UnknownAccount",
    "WEI_PER_ETHER",
    "Wei",
    "ZERO_ADDRESS",
    "ether",
    "keccak_256",
]
