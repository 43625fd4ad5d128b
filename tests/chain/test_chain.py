"""Blockchain semantics: transfers, nonces, clock, reverts, logs."""

from __future__ import annotations

import gc

import pytest

from repro.chain import (
    Address,
    Blockchain,
    CallContext,
    Contract,
    InsufficientFunds,
    Revert,
    ZERO_ADDRESS,
    ether,
)
from repro.chain.block import GENESIS_PARENT
from repro.chain.errors import UnknownAccount


@pytest.fixture()
def funded(chain: Blockchain) -> tuple[Address, Address]:
    a, b = Address.derive("chain:a"), Address.derive("chain:b")
    chain.fund(a, ether(10))
    return a, b


class TestTransfers:
    def test_value_moves(self, chain: Blockchain, funded) -> None:
        a, b = funded
        receipt = chain.transfer(a, b, ether(4))
        assert receipt.success
        assert chain.balance_of(a) == ether(6)
        assert chain.balance_of(b) == ether(4)

    def test_fee_is_burned(self, chain: Blockchain, funded) -> None:
        a, b = funded
        chain.transfer(a, b, ether(1), fee=ether(2))
        assert chain.balance_of(a) == ether(7)
        assert chain.balance_of(b) == ether(1)

    def test_insufficient_funds_rejected(self, chain: Blockchain, funded) -> None:
        a, b = funded
        with pytest.raises(InsufficientFunds):
            chain.transfer(a, b, ether(11))

    def test_nonce_increments(self, chain: Blockchain, funded) -> None:
        a, b = funded
        chain.transfer(a, b, 1)
        chain.transfer(a, b, 1)
        assert chain.state.get(a).nonce == 2

    def test_each_transaction_gets_a_block(self, chain: Blockchain, funded) -> None:
        a, b = funded
        start = chain.height
        chain.transfer(a, b, 1)
        chain.transfer(a, b, 1)
        assert chain.height == start + 2

    def test_tx_hashes_unique(self, chain: Blockchain, funded) -> None:
        a, b = funded
        r1 = chain.transfer(a, b, 1)
        r2 = chain.transfer(a, b, 1)
        assert r1.tx_hash != r2.tx_hash


class TestClock:
    def test_advance(self, chain: Blockchain) -> None:
        start = chain.now
        chain.advance_time(100)
        assert chain.now == start + 100

    def test_no_rewind(self, chain: Blockchain) -> None:
        with pytest.raises(ValueError):
            chain.advance_time(-1)
        with pytest.raises(ValueError):
            chain.set_time(chain.now - 1)

    def test_block_timestamps_track_clock(self, chain: Blockchain, funded) -> None:
        a, b = funded
        chain.advance_time(500)
        receipt = chain.transfer(a, b, 1)
        assert receipt.timestamp == chain.now
        assert chain.get_block(receipt.block_number).timestamp == chain.now


class TestBlockIds:
    def test_ids_chain_over_parents(self, chain: Blockchain, funded) -> None:
        a, b = funded
        for _ in range(3):
            chain.transfer(a, b, 1)
        parent = GENESIS_PARENT
        for number in range(chain.height + 1):
            expected = chain.get_block(number).hash(parent)
            assert chain.block_hash(number) == expected
            parent = expected

    def test_out_of_range(self, chain: Blockchain) -> None:
        with pytest.raises(UnknownAccount):
            chain.block_hash(chain.height + 1)
        with pytest.raises(UnknownAccount):
            chain.block_hash(-1)

    def test_deep_chain_tip_first_then_delete(self) -> None:
        """The first read at the tip of a long chain computes every id
        below it without recursing, and the chain frees without
        recursing either."""
        chain = Blockchain()
        a, b = Address.derive("deep:a"), Address.derive("deep:b")
        chain.fund(a, ether(1))
        for _ in range(20_000):
            chain.transfer(a, b, 1)
        assert chain.height == 20_000
        tip = chain.block_hash(chain.height)
        assert tip == chain.get_block(20_000).hash(chain.block_hash(19_999))
        del chain
        gc.collect()


class TestViewContext:
    @staticmethod
    def assert_current(chain: Blockchain) -> None:
        ctx = chain.view_context()
        assert (ctx.timestamp, ctx.block_number) == (chain.now, chain.height)
        assert (ctx.sender, ctx.value) == (ZERO_ADDRESS, 0)

    def test_shared_until_block_or_clock_moves(self, chain: Blockchain, funded) -> None:
        a, b = funded
        ctx = chain.view_context()
        assert chain.view_context() is ctx
        chain.transfer(a, b, 1)
        assert chain.view_context() is not ctx

    def test_tracks_every_move(self, chain: Blockchain, funded, vault) -> None:
        a, b = funded
        self.assert_current(chain)
        chain.transfer(a, b, 1)
        self.assert_current(chain)
        chain.call(a, vault.address, "deposit", value=ether(1))
        self.assert_current(chain)
        chain.advance_time(30)
        self.assert_current(chain)
        chain.set_time(chain.now + 86_400)
        self.assert_current(chain)

    def test_views_read_it(self, chain: Blockchain, funded, vault) -> None:
        a, _ = funded
        seen = []
        vault.stamp = lambda ctx: seen.append(ctx)
        chain.advance_time(7)
        chain.view(vault.address, "stamp")
        assert seen == [chain.view_context()]


class _Vault(Contract):
    """Test contract: stores deposits, can revert, emits events."""

    def __init__(self, address, chain):
        super().__init__(address, chain)
        self.deposits: dict[Address, int] = {}

    def deposit(self, ctx: CallContext) -> int:
        self.require(ctx.value > 0, "deposit must be positive")
        self.deposits[ctx.sender] = self.deposits.get(ctx.sender, 0) + ctx.value
        self.emit("Deposited", who=ctx.sender, amount=ctx.value)
        return self.deposits[ctx.sender]

    def withdraw(self, ctx: CallContext, amount: int) -> None:
        held = self.deposits.get(ctx.sender, 0)
        self.require(held >= amount, "not enough deposited")
        self.deposits[ctx.sender] = held - amount
        self.pay(ctx.sender, amount)
        self.emit("Withdrawn", who=ctx.sender, amount=amount)

    def balance(self, ctx: CallContext, who: Address) -> int:
        return self.deposits.get(who, 0)


@pytest.fixture()
def vault(chain: Blockchain) -> _Vault:
    contract = _Vault(Address.derive("vault"), chain)
    chain.deploy(contract)
    return contract


class TestContracts:
    def test_call_and_view(self, chain: Blockchain, funded, vault: _Vault) -> None:
        a, _ = funded
        receipt = chain.call(a, vault.address, "deposit", value=ether(2))
        assert receipt.success
        assert receipt.return_value == ether(2)
        assert chain.view(vault.address, "balance", who=a) == ether(2)
        assert chain.balance_of(vault.address) == ether(2)

    def test_revert_rolls_back_value(self, chain: Blockchain, funded, vault) -> None:
        a, _ = funded
        receipt = chain.call(a, vault.address, "deposit", value=0)
        assert not receipt.success
        assert "positive" in receipt.error
        assert chain.balance_of(a) == ether(10)

    def test_revert_drops_logs(self, chain: Blockchain, funded, vault) -> None:
        a, _ = funded

        class _Bomb(Contract):
            def boom(self, ctx: CallContext) -> None:
                self.emit("BeforeBoom")
                raise Revert("boom")

        bomb = _Bomb(Address.derive("bomb"), chain)
        chain.deploy(bomb)
        receipt = chain.call(a, bomb.address, "boom")
        assert not receipt.success
        assert receipt.logs == []
        assert chain.logs_of(bomb.address) == []

    def test_events_recorded(self, chain: Blockchain, funded, vault) -> None:
        a, _ = funded
        chain.call(a, vault.address, "deposit", value=ether(1))
        logs = chain.logs_of(vault.address, "Deposited")
        assert len(logs) == 1
        assert logs[0].param("who") == a
        assert logs[0].param("amount") == ether(1)

    def test_contract_payout(self, chain: Blockchain, funded, vault) -> None:
        a, _ = funded
        chain.call(a, vault.address, "deposit", value=ether(3))
        receipt = chain.call(a, vault.address, "withdraw", amount=ether(1))
        assert receipt.success
        assert chain.balance_of(a) == ether(8)
        assert chain.balance_of(vault.address) == ether(2)

    def test_unknown_method_reverts(self, chain: Blockchain, funded, vault) -> None:
        a, _ = funded
        receipt = chain.call(a, vault.address, "no_such_method")
        assert not receipt.success

    def test_view_on_missing_contract_raises(self, chain: Blockchain) -> None:
        from repro.chain import UnknownAccount

        with pytest.raises(UnknownAccount):
            chain.view(Address.derive("nothing-here"), "balance", who=None)

    def test_double_deploy_rejected(self, chain: Blockchain, vault) -> None:
        with pytest.raises(ValueError):
            chain.deploy(_Vault(vault.address, chain))

    def test_log_subscription_stream(self, chain: Blockchain, funded, vault) -> None:
        a, _ = funded
        seen = []
        chain.subscribe_logs(seen.append)
        chain.call(a, vault.address, "deposit", value=ether(1))
        assert [log.event for log in seen] == ["Deposited"]
