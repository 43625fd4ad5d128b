"""The simulated Ethereum ledger.

The chain executes transactions synchronously, one block per submitted
transaction, with an explicitly-controlled clock (the simulation drives
time forward day by day). It records everything the downstream
substrates need:

* blocks + receipts (crawled by :mod:`repro.explorer`),
* contract event logs (indexed by :mod:`repro.indexer`),
* balances/nonces (asserted on by tests).

Hashing note: ENS-protocol hashes (namehash, labelhash, token ids) use
the bit-exact Keccak-256 from :mod:`repro.chain.crypto.keccak`.
Transaction and block *ids*, however, only need to be deterministic and
unique, so they come from :class:`Transaction.hash` which this module
feeds with positional data — pure-Python keccak there would dominate
simulation runtime for no analytical benefit.
"""

from __future__ import annotations

from typing import Any, Callable

from ..obs.metrics import MetricsRegistry, global_registry
from .account import AccountState
from .block import GENESIS_PARENT, Block
from .contract import CallContext, Contract
from .errors import InsufficientFunds, InvalidTransaction, Revert, UnknownAccount
from .transaction import CallPayload, InternalTransfer, Log, Receipt, Transaction
from .types import ZERO_ADDRESS, Address, Hash32, Wei

__all__ = ["Blockchain"]

# 2020-01-01T00:00:00Z — the simulation's epoch, just before the ENS
# migration deadline the paper's Figure 2 spike revolves around.
DEFAULT_GENESIS_TIMESTAMP = 1_577_836_800


class Blockchain:
    """An in-process Ethereum-like ledger with contract support."""

    def __init__(
        self,
        genesis_timestamp: int = DEFAULT_GENESIS_TIMESTAMP,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.state = AccountState()
        self.blocks: list[Block] = []
        self.logs: list[Log] = []
        self.contracts: dict[Address, Contract] = {}
        # ids of blocks 0..len-1, extended on read (see block_hash)
        self._block_ids: list[Hash32] = []
        self._timestamp = genesis_timestamp
        self._view_ctx: CallContext | None = None
        self._executing: Receipt | None = None
        self._log_subscribers: list[Callable[[Log], None]] = []
        # Hot-path instrumentation: samples are bound once here so each
        # transaction costs a handful of float additions.
        self.metrics = registry if registry is not None else global_registry()
        self._m_blocks = self.metrics.counter(
            "chain_blocks_total", "Blocks sealed"
        )
        tx_family = self.metrics.counter(
            "chain_transactions_total", "Transactions executed", labels=("status",)
        )
        self._m_tx_ok = tx_family.labels(status="success")
        self._m_tx_reverted = tx_family.labels(status="reverted")
        self._m_logs = self.metrics.counter(
            "chain_logs_total", "Event logs emitted (net of reverts)"
        )
        self._g_height = self.metrics.gauge("chain_height", "Latest block number")
        self.blocks.append(Block(number=0, timestamp=genesis_timestamp))

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current chain time (unix seconds)."""
        return self._timestamp

    def advance_time(self, seconds: int) -> None:
        """Move the clock forward; the next block gets the new timestamp."""
        if seconds < 0:
            raise ValueError("time can only move forward")
        self._timestamp += seconds
        self._view_ctx = None

    def set_time(self, timestamp: int) -> None:
        """Jump the clock to an absolute time (must not go backwards)."""
        if timestamp < self._timestamp:
            raise ValueError(
                f"cannot rewind chain time from {self._timestamp} to {timestamp}"
            )
        self._timestamp = timestamp
        self._view_ctx = None

    @property
    def height(self) -> int:
        """Number of the latest block."""
        return self.blocks[-1].number

    # -- setup helpers ------------------------------------------------------

    def fund(self, address: Address, amount: Wei) -> None:
        """Faucet: mint ``amount`` wei to ``address`` (test/sim setup only)."""
        if amount < 0:
            raise ValueError("cannot fund a negative amount")
        self.state.get(address).credit(amount)

    def deploy(self, contract: Contract) -> Contract:
        """Register a contract instance at its address."""
        if contract.address in self.contracts:
            raise ValueError(f"contract already deployed at {contract.address}")
        account = self.state.get(contract.address)
        account.is_contract = True
        self.contracts[contract.address] = contract
        return contract

    def subscribe_logs(self, callback: Callable[[Log], None]) -> None:
        """Stream every future event log to ``callback`` (indexer hook)."""
        self._log_subscribers.append(callback)

    # -- transaction execution ----------------------------------------------

    def transfer(
        self, sender: Address, to: Address, value: Wei, fee: Wei = 0
    ) -> Receipt:
        """Submit a plain value transfer and mine it into a block."""
        return self._execute(Transaction(sender, to, value, self._next_nonce(sender), None, fee))

    def call(
        self,
        sender: Address,
        contract_address: Address,
        method: str,
        value: Wei = 0,
        fee: Wei = 0,
        **kwargs: Any,
    ) -> Receipt:
        """Submit a contract call transaction and mine it into a block."""
        payload = CallPayload.of(method, **kwargs)
        tx = Transaction(sender, contract_address, value, self._next_nonce(sender), payload, fee)
        return self._execute(tx)

    def view_context(self) -> CallContext:
        """The read-only call context at the current block and time.

        Built once per (height, clock) pair and shared by every view in
        between: sealing a block or moving the clock drops it.
        """
        ctx = self._view_ctx
        if ctx is None:
            ctx = self._view_ctx = CallContext(
                sender=ZERO_ADDRESS,
                value=0,
                timestamp=self._timestamp,
                block_number=self.height,
            )
        return ctx

    def view(self, contract_address: Address, method: str, **kwargs: Any) -> Any:
        """Read-only contract call: no transaction, no state mutation expected."""
        contract = self.contracts.get(contract_address)
        if contract is None:
            raise UnknownAccount(f"no contract at {contract_address}")
        return contract.invoke(self.view_context(), method, kwargs)

    def _next_nonce(self, sender: Address) -> int:
        return self.state.get(sender).nonce

    def _execute(self, tx: Transaction) -> Receipt:
        """Execute one transaction and seal it into a fresh block."""
        if tx.value < 0 or tx.fee < 0:
            raise InvalidTransaction("value and fee must be non-negative")
        sender_account = self.state.get(tx.from_address)
        if sender_account.balance < tx.value + tx.fee:
            raise InsufficientFunds(
                f"{tx.from_address} holds {sender_account.balance} wei, "
                f"needs {tx.value + tx.fee}"
            )

        block_number = self.height + 1
        tx_hash = tx.hash(block_number, 0)
        receipt = Receipt(
            tx_hash=tx_hash,
            transaction=tx,
            block_number=block_number,
            timestamp=self._timestamp,
            success=True,
        )

        # Debit value + fee up front; the fee is burned (no miner model).
        sender_account.debit(tx.value + tx.fee)
        self.state.get(tx.to_address).credit(tx.value)
        sender_account.nonce += 1

        contract = self.contracts.get(tx.to_address)
        if contract is not None and tx.payload is not None:
            ctx = CallContext(
                sender=tx.from_address,
                value=tx.value,
                timestamp=self._timestamp,
                block_number=block_number,
            )
            previous = self._executing
            self._executing = receipt
            try:
                receipt.return_value = contract.invoke(
                    ctx, tx.payload.method, tx.payload.kwargs()
                )
            except Revert as exc:
                # Roll back the value transfer (fee stays burned), undo
                # any internal transfers in reverse order, and drop the
                # logs the failed call emitted.
                receipt.success = False
                receipt.error = str(exc)
                # undo internal transfers first — the contract may have
                # paid the call value onward and cannot return it until
                # those moves are reversed
                for internal in reversed(receipt.internal_transfers):
                    self.state.get(internal.recipient).debit(internal.value)
                    self.state.get(internal.source).credit(internal.value)
                receipt.internal_transfers.clear()
                self.state.get(tx.to_address).debit(tx.value)
                sender_account.credit(tx.value)
                for log in receipt.logs:
                    self.logs.remove(log)
                receipt.logs.clear()
            finally:
                self._executing = previous

        # Stream logs to subscribers only after the transaction is final,
        # so indexers never see events from reverted calls.
        if receipt.logs and self._log_subscribers:
            for log in receipt.logs:
                for callback in self._log_subscribers:
                    callback(log)

        self.blocks.append(
            Block(number=block_number, timestamp=self._timestamp, receipts=[receipt])
        )
        self._view_ctx = None
        self._m_blocks.inc()
        (self._m_tx_ok if receipt.success else self._m_tx_reverted).inc()
        if receipt.logs:
            self._m_logs.inc(len(receipt.logs))
        self._g_height.set(block_number)
        return receipt

    # -- hooks used by executing contracts -----------------------------------

    def emit_log(self, contract: Address, event: str, params: dict[str, Any]) -> None:
        """Record an event log against the currently-executing transaction."""
        if self._executing is None:
            raise ChainMisuse("emit_log called outside transaction execution")
        receipt = self._executing
        log = Log(
            contract=contract,
            event=event,
            params=tuple(params.items()),
            block_number=receipt.block_number,
            timestamp=receipt.timestamp,
            tx_hash=receipt.tx_hash,
            log_index=len(self.logs),
        )
        self.logs.append(log)
        receipt.logs.append(log)

    def transfer_internal(self, source: Address, recipient: Address, amount: Wei) -> None:
        """Contract-initiated value move (refunds, payouts).

        Recorded against the executing transaction as an internal
        transfer (the explorer serves these via ``txlistinternal``), and
        rolled back if the transaction ultimately reverts.
        """
        if self._executing is None:
            raise ChainMisuse("transfer_internal called outside execution")
        self.state.get(source).debit(amount)
        self.state.get(recipient).credit(amount)
        receipt = self._executing
        receipt.internal_transfers.append(
            InternalTransfer(
                source=source,
                recipient=recipient,
                value=amount,
                tx_hash=receipt.tx_hash,
                block_number=receipt.block_number,
                timestamp=receipt.timestamp,
                index=len(receipt.internal_transfers),
            )
        )

    # -- queries -------------------------------------------------------------

    def balance_of(self, address: Address) -> Wei:
        """Current balance of ``address`` in wei."""
        return self.state.balance_of(address)

    def get_block(self, number: int) -> Block:
        """Block by number; raises for out-of-range numbers."""
        if not 0 <= number < len(self.blocks):
            raise UnknownAccount(f"no block number {number}")
        return self.blocks[number]

    def block_hash(self, number: int) -> Hash32:
        """Id of block ``number``; raises for out-of-range numbers.

        Each id chains over its parent's, and only explorer block
        lookups read them, so sealing a block computes none. The first
        read computes every missing id up to ``number``, oldest first
        in a loop, and keeps them: a sealed block never changes.
        """
        self.get_block(number)
        ids = self._block_ids
        blocks = self.blocks
        while len(ids) <= number:
            parent = ids[-1] if ids else GENESIS_PARENT
            ids.append(blocks[len(ids)].hash(parent))
        return ids[number]

    def logs_of(self, contract: Address, event: str | None = None) -> list[Log]:
        """Event logs filtered by emitting contract (and optionally name)."""
        return [
            log
            for log in self.logs
            if log.contract == contract and (event is None or log.event == event)
        ]


class ChainMisuse(RuntimeError):
    """Internal invariant violation — indicates a bug in calling code."""
