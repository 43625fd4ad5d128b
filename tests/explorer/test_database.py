"""Explorer database: ingestion and per-address receipt indexes."""

from __future__ import annotations

import pytest

from repro.chain import Address, Blockchain, ether
from repro.explorer import EtherscanAPI, ExplorerDatabase, LabelRegistry


@pytest.fixture()
def actors(chain: Blockchain):
    a, b, c = (Address.derive(f"xdb:{i}") for i in "abc")
    chain.fund(a, ether(100))
    chain.fund(b, ether(100))
    return a, b, c


class TestSync:
    def test_indexes_all_blocks(self, chain, actors) -> None:
        a, b, _ = actors
        chain.transfer(a, b, ether(1))
        chain.transfer(b, a, ether(2))
        db = ExplorerDatabase(chain)
        assert db.sync() == chain.height >= 2

    def test_incremental_sync(self, chain, actors) -> None:
        a, b, _ = actors
        db = ExplorerDatabase(chain)
        assert db.sync() == chain.height
        receipt = chain.transfer(a, b, 1)
        assert db.sync() == 1
        assert db.transactions_of(b)[-1] is receipt

    def test_sync_idempotent(self, chain, actors) -> None:
        a, b, _ = actors
        chain.transfer(a, b, 1)
        db = ExplorerDatabase(chain)
        db.sync()
        history = db.transactions_of(a)
        assert db.sync() == 0
        assert db.transactions_of(a) == history


class TestIndexes:
    def test_directional_queries(self, chain, actors) -> None:
        a, b, c = actors
        chain.transfer(a, b, ether(1))
        chain.transfer(b, a, ether(2))
        chain.transfer(a, c, ether(3))
        db = ExplorerDatabase(chain)
        db.sync()

        def sent(address):
            return [r for r in db.transactions_of(address) if r.from_address == address]

        def received(address):
            return [r for r in db.transactions_of(address) if r.to_address == address]

        assert len(sent(a)) == 2
        assert len(received(a)) == 1
        assert len(received(c)) == 1
        assert sent(c) == []

    def test_both_parties_see_transaction(self, chain, actors) -> None:
        a, b, _ = actors
        receipt = chain.transfer(a, b, ether(1))
        db = ExplorerDatabase(chain)
        db.sync()
        assert receipt in db.transactions_of(a)
        assert receipt in db.transactions_of(b)

    def test_index_shares_the_chain_receipts(self, chain, actors) -> None:
        a, b, _ = actors
        receipt = chain.transfer(a, b, ether(1))
        db = ExplorerDatabase(chain)
        db.sync()
        (indexed,) = db.transactions_of(b)
        assert indexed is receipt

    def test_self_transfer_indexed_once(self, chain, actors) -> None:
        a, _, _ = actors
        chain.transfer(a, a, ether(1))
        db = ExplorerDatabase(chain)
        db.sync()
        assert len(db.transactions_of(a)) == 1

    def test_failed_tx_flagged(self, chain, actors, ens) -> None:
        a, _, _ = actors
        receipt = ens.register(a, "vault", 10)  # below min duration → revert
        assert not receipt.success
        api = EtherscanAPI(database=ExplorerDatabase(chain), labels=LabelRegistry())
        row = next(r for r in api.txlist(a) if r["hash"] == receipt.tx_hash.hex)
        assert row["isError"] == "1"
        assert row["functionName"] == "register"

    def test_unknown_address_empty(self, chain) -> None:
        db = ExplorerDatabase(chain)
        db.sync()
        assert db.transactions_of(Address.derive("never-seen")) == []

    def test_api_dict_is_stringly_typed(self, chain, actors) -> None:
        a, b, _ = actors
        chain.transfer(a, b, ether(1))
        api = EtherscanAPI(database=ExplorerDatabase(chain), labels=LabelRegistry())
        (row,) = api.txlist(a)
        assert all(isinstance(value, str) for value in row.values())
        assert row["value"] == str(ether(1))
        assert row["isError"] == "0"
        assert row["from"] == a.hex
        assert row["functionName"] == ""
