"""Account model: externally-owned accounts and contract accounts."""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import Address, Wei

__all__ = ["AccountState"]


@dataclass(slots=True)
class Account:
    """Mutable per-address state: balance, nonce, contract flag."""

    address: Address
    balance: Wei = 0
    nonce: int = 0
    is_contract: bool = False

    def credit(self, amount: Wei) -> None:
        """Add ``amount`` wei to the balance (rejects negatives)."""
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        self.balance += amount

    def debit(self, amount: Wei) -> None:
        """Remove ``amount`` wei; rejects negatives and overdrafts."""
        if amount < 0:
            raise ValueError("debit amount must be non-negative")
        if amount > self.balance:
            from .errors import InsufficientFunds

            raise InsufficientFunds(
                f"{self.address} holds {self.balance} wei, needs {amount}"
            )
        self.balance -= amount


@dataclass(slots=True)
class AccountState:
    """The full account trie: lazily-created accounts keyed by address."""

    accounts: dict[Address, Account] = field(default_factory=dict)

    def get(self, address: Address) -> Account:
        """Return the account, creating an empty one on first touch."""
        account = self.accounts.get(address)
        if account is None:
            account = Account(address=address)
            self.accounts[address] = account
        return account

    def exists(self, address: Address) -> bool:
        """Whether an account record exists for ``address``."""
        return address in self.accounts

    def balance_of(self, address: Address) -> Wei:
        """Balance of ``address`` in wei (0 for unknown accounts)."""
        account = self.accounts.get(address)
        return account.balance if account is not None else 0

    def __len__(self) -> int:
        return len(self.accounts)

    def __iter__(self):
        return iter(self.accounts.values())
