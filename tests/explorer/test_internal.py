"""Internal transfers: value moves, rollback, and their absence from txlist."""

from __future__ import annotations

import pytest

from repro.chain import (
    Address,
    Blockchain,
    CallContext,
    Contract,
    Revert,
    SECONDS_PER_YEAR,
    ether,
)
from repro.explorer import EtherscanAPI, ExplorerDatabase, LabelRegistry, VirtualClock


class _Splitter(Contract):
    """Receives value, forwards half to a beneficiary; can revert after."""

    def __init__(self, address, chain, beneficiary: Address) -> None:
        super().__init__(address, chain)
        self._beneficiary = beneficiary

    def split(self, ctx: CallContext, and_fail: bool = False) -> None:
        self.pay(self._beneficiary, ctx.value // 2)
        self.require(not and_fail, "failure requested after payout")


@pytest.fixture()
def splitter_world(chain: Blockchain):
    payer = Address.derive("int:payer")
    beneficiary = Address.derive("int:beneficiary")
    chain.fund(payer, ether(100))
    splitter = _Splitter(Address.derive("int:splitter"), chain, beneficiary)
    chain.deploy(splitter)
    return payer, beneficiary, splitter


class TestRecording:
    def test_internal_transfer_moves_value(self, chain, splitter_world) -> None:
        payer, beneficiary, splitter = splitter_world
        receipt = chain.call(payer, splitter.address, "split", value=ether(10))
        assert receipt.success
        assert chain.balance_of(payer) == ether(90)
        assert chain.balance_of(splitter.address) == ether(5)
        assert chain.balance_of(beneficiary) == ether(5)

    def test_revert_rolls_back_internal_transfers(self, chain, splitter_world) -> None:
        payer, beneficiary, splitter = splitter_world
        receipt = chain.call(
            payer, splitter.address, "split", value=ether(10), and_fail=True
        )
        assert not receipt.success
        assert chain.balance_of(beneficiary) == 0
        assert chain.balance_of(splitter.address) == 0
        assert chain.balance_of(payer) == ether(100)

    def test_registrar_refund_is_internal(self, chain, ens, alice) -> None:
        before = chain.balance_of(alice)
        price = ens.rent_price("refundme", SECONDS_PER_YEAR)
        receipt = ens.register(
            alice, "refundme", SECONDS_PER_YEAR, value=price + ether(2)
        )
        assert receipt.success
        # the 2 ether overpayment came back to the payer
        assert chain.balance_of(alice) == before - price
        assert chain.balance_of(ens.controller.address) == price


class TestExplorerView:
    def _api(self, chain) -> EtherscanAPI:
        return EtherscanAPI(
            database=ExplorerDatabase(chain),
            labels=LabelRegistry(),
            clock=VirtualClock(),
            rate_limit_per_second=10_000,
        )

    def test_refund_absent_from_txlist(self, chain, ens, alice) -> None:
        # The crucial separation: income analyses over txlist never see
        # contract refunds.
        price = ens.rent_price("refundme", SECONDS_PER_YEAR)
        ens.register(alice, "refundme", SECONDS_PER_YEAR, value=price + ether(2))
        api = self._api(chain)
        incoming = [
            row for row in api.txlist(alice) if row["to"] == alice.hex
        ]
        assert incoming == []
