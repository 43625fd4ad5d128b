"""A built world keeps only what its readers need, with unchanged values.

The chain keeps receipts, not blocks: block n is ``receipts[n - 1]``; a
receipt with no logs holds no list; a sender keeps no payment plan; the
resolution log is built from payment receipts on read; and a crawl
shares one string per address across its transaction records. The
literals below were computed when the world still sealed a block object
per transaction and stored ready-made resolution records; equal values
prove the block numbering, the timestamps and the log did not change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import pytest

from repro.core.authoritative import authoritative_losses
from repro.datasets.schema import ResolutionRecord
from repro.simulation import ScenarioConfig, run_scenario
from repro.simulation.agents import SenderProfile

#: SHA-256 of ``repr`` of every block's (number, timestamp, receipt tx
#: hashes) of a 40-domain, seed-3 world, blocks 0..2170.
BLOCKS_DIGEST_40_3 = (
    "f7593326881ce9783b46a013f1fc52a9907d3a618f29a3d2246b2ab970e762b7"
)
#: The 40/3 scenario's genesis timestamp: block 0's, which has no receipt.
GENESIS_TIMESTAMP_40_3 = 1_577_059_200

#: SHA-256 of the sorted-key JSON of every ``as_dict`` of a 120/5 log.
RESOLUTION_LOG_DIGEST_120_5 = (
    "6f42f7fd33df4b4192b168d4034ac805bc2d64edbcad554d5cf3af986d0d3645"
)
#: SHA-256 of ``repr(authoritative_losses(log).losses)`` at 120/5.
AUTHORITATIVE_LOSSES_DIGEST_120_5 = (
    "81b6882bdd9a5063b4505e4fe1ab540f239aea1dbe5ad49b01ff7955f566e399"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def counted():
    """A 120/5 world and its crawl, built while resolution records are
    counted."""
    counts = {"resolution_records": 0}

    def counting(key, method):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            ResolutionRecord,
            "__init__",
            counting("resolution_records", ResolutionRecord.__init__),
        )
        world = run_scenario(ScenarioConfig(n_domains=120, seed=5))
        dataset, _ = world.run_crawl()
    return world, dataset, counts


class TestBlocksOnRead:
    def test_get_block_unchanged(self) -> None:
        world = run_scenario(ScenarioConfig(n_domains=40, seed=3))
        chain = world.chain
        assert chain.height == len(chain.receipts) == 2170
        rows = [(0, GENESIS_TIMESTAMP_40_3, [])] + [
            (receipt.block_number, receipt.timestamp, [receipt.tx_hash.hex])
            for receipt in chain.receipts
        ]
        assert _sha256(repr(rows)) == BLOCKS_DIGEST_40_3


class TestEmptyReceipts:
    def test_no_list_without_entries(self, counted) -> None:
        world, _, _ = counted
        receipts = world.chain.receipts
        empty = [r for r in receipts if not r.logs]
        assert 0 < len(empty) < len(receipts)
        assert not [r for r in empty if isinstance(r.logs, list)]


class TestSenderProfiles:
    def test_no_per_payment_list(self, counted) -> None:
        world, _, _ = counted
        senders = [sender for script in world.scripts for sender in script.senders]
        assert senders
        assert not [
            (sender, field.name)
            for sender in senders
            for field in fields(SenderProfile)
            if isinstance(getattr(sender, field.name), list)
        ]


class TestResolutionLog:
    def test_log_unchanged(self, counted) -> None:
        world, _, _ = counted
        log = world.resolution_log
        assert len(log) == 1364
        payload = json.dumps([record.as_dict() for record in log], sort_keys=True)
        assert _sha256(payload) == RESOLUTION_LOG_DIGEST_120_5

    def test_authoritative_losses_unchanged(self, counted) -> None:
        world, _, _ = counted
        report = authoritative_losses(world.resolution_log)
        assert report.resolutions_examined == 1364
        assert (len(report.losses), report.affected_names, report.unique_senders) == (
            76, 11, 56,
        )
        assert _sha256(repr(report.losses)) == AUTHORITATIVE_LOSSES_DIGEST_120_5

    def test_scenario_and_crawl_build_no_record(self, counted) -> None:
        _, _, counts = counted
        assert counts["resolution_records"] == 0


class TestSharedAddressStrings:
    def test_one_string_per_crawled_address(self, counted) -> None:
        _, dataset, _ = counted
        strings = [
            text
            for tx in dataset.transactions
            for text in (tx.from_address, tx.to_address)
        ]
        assert len(strings) == 2 * dataset.transaction_count > 0
        assert len({id(text) for text in strings}) == len(set(strings))

    def test_rows_share_the_wallet_strings(self, counted) -> None:
        _, dataset, _ = counted
        wallets = {id(wallet) for wallet in dataset.wallet_addresses()}
        assert any(id(tx.from_address) in wallets for tx in dataset.transactions)
