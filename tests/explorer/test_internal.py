"""Internal transactions: recording, rollback, explorer indexing."""

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
    def test_internal_transfer_recorded_on_receipt(self, chain, splitter_world) -> None:
        payer, beneficiary, splitter = splitter_world
        receipt = chain.call(payer, splitter.address, "split", value=ether(10))
        assert receipt.success
        assert len(receipt.internal_transfers) == 1
        internal = receipt.internal_transfers[0]
        assert internal.source == splitter.address
        assert internal.recipient == beneficiary
        assert internal.value == ether(5)
        assert internal.tx_hash == receipt.tx_hash

    def test_revert_rolls_back_internal_transfers(self, chain, splitter_world) -> None:
        payer, beneficiary, splitter = splitter_world
        receipt = chain.call(
            payer, splitter.address, "split", value=ether(10), and_fail=True
        )
        assert not receipt.success
        assert receipt.internal_transfers == []
        assert chain.balance_of(beneficiary) == 0
        assert chain.balance_of(payer) == ether(100)

    def test_registrar_refund_is_internal(self, chain, ens, alice) -> None:
        price = ens.rent_price("refundme", SECONDS_PER_YEAR)
        receipt = ens.register(
            alice, "refundme", SECONDS_PER_YEAR, value=price + ether(2)
        )
        assert receipt.success
        refunds = [
            i for i in receipt.internal_transfers if i.recipient == alice
        ]
        assert len(refunds) == 1
        assert refunds[0].value == ether(2)


class TestExplorerView:
    def _api(self, chain) -> EtherscanAPI:
        return EtherscanAPI(
            database=ExplorerDatabase(chain),
            labels=LabelRegistry(),
            clock=VirtualClock(),
            rate_limit_per_second=10_000,
        )

    def test_txlistinternal_serves_refund(self, chain, ens, alice) -> None:
        price = ens.rent_price("refundme", SECONDS_PER_YEAR)
        ens.register(alice, "refundme", SECONDS_PER_YEAR, value=price + ether(2))
        api = self._api(chain)
        rows = api.txlistinternal(alice)
        assert any(row["value"] == str(ether(2)) for row in rows)

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

    def test_window_cap_applies(self, chain, splitter_world) -> None:
        from repro.explorer.api import ApiError

        payer, _, splitter = splitter_world
        chain.call(payer, splitter.address, "split", value=ether(2))
        api = self._api(chain)
        with pytest.raises(ApiError, match="window"):
            api.txlistinternal(payer, page=11, offset=1000)

    def test_both_parties_indexed(self, chain, splitter_world) -> None:
        payer, beneficiary, splitter = splitter_world
        chain.call(payer, splitter.address, "split", value=ether(10))
        api = self._api(chain)
        assert len(api.txlistinternal(splitter.address)) == 1
        assert len(api.txlistinternal(beneficiary)) == 1
