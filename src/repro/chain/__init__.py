"""Simulated Ethereum ledger substrate.

Public surface:

* :class:`Blockchain` — the ledger: clock, accounts, contracts, blocks.
* :class:`Address`, :class:`Hash32`, ``Wei`` helpers — value types.
* :class:`Contract`, :class:`CallContext` — contract runtime.
* :func:`keccak_256` — Ethereum's keccak (the ENS hash function).
"""

from .account import AccountState
from .block import Block
from .chain import Blockchain
from .contract import CallContext, Contract
from .crypto.keccak import Keccak256, keccak_256, keccak_256_hex
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
from .transaction import CallPayload, InternalTransfer, Log, Receipt, Transaction
from .types import (
    SECONDS_PER_DAY,
    SECONDS_PER_YEAR,
    WEI_PER_ETHER,
    ZERO_ADDRESS,
    Address,
    Hash32,
    Wei,
    ether,
    from_wei,
)

__all__ = [
    "AccountState",
    "Address",
    "Block",
    "Blockchain",
    "CallContext",
    "CallPayload",
    "Contract",
    "Hash32",
    "InsufficientFunds",
    "InternalTransfer",
    "InvalidName",
    "InvalidTransaction",
    "Keccak256",
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
    "from_wei",
    "keccak_256",
    "keccak_256_hex",
]
