"""Delta semantics: apply, chain validation, and the on-disk append log."""

from __future__ import annotations

import json

import pytest

from repro.crawler.storage import (
    DELTAS_FILE,
    append_delta,
    load_dataset,
    load_deltas,
    pack_dataset,
    save_dataset,
)
from repro.datasets import ENSDataset
from repro.datasets.delta import DatasetDelta

from ..core.helpers import (
    make_dataset,
    make_domain,
    make_registration,
    make_sale_event,
    make_tx,
)


def _delta(domains=(), txs=(), events=(), label="t"):
    return DatasetDelta(
        domains=tuple(domains),
        transactions=tuple(txs),
        market_events=tuple(events),
        label=label,
    )


class TestApplyDelta:
    def test_routes_through_ordinary_mutators(self) -> None:
        dataset = ENSDataset()
        domain = make_domain("gold", [make_registration("0xa", 10, 400)])
        applied = dataset.apply_delta(
            _delta(
                domains=[domain],
                txs=[make_tx("0xa", "0xb", 50)],
                events=[make_sale_event("gold", "sale", 60, "0xa")],
            )
        )
        assert dataset.domain_count == 1
        assert dataset.transaction_count == 1
        assert len(dataset.market_events) == 1
        assert dataset.delta_cursor == 1
        assert applied.cursor == 1
        assert applied.replaced_domains == ()

    def test_duplicate_transactions_stripped_from_effective_delta(self) -> None:
        tx = make_tx("0xa", "0xb", 50)
        dataset = make_dataset([], [tx])
        applied = dataset.apply_delta(
            _delta(txs=[tx, make_tx("0xa", "0xb", 51)])
        )
        assert dataset.transaction_count == 2
        assert len(applied.delta.transactions) == 1
        assert applied.delta.transactions[0].timestamp == 51 * 86_400

    def test_domain_replacement_keeps_insertion_position(self) -> None:
        first = make_domain("gold", [make_registration("0xa", 10, 400)])
        second = make_domain("silver", [make_registration("0xb", 10, 400)])
        dataset = make_dataset([first, second])
        extended = make_domain(
            "gold",
            [
                make_registration("0xa", 10, 400),
                make_registration("0xc", 500, 900, ordinal=1),
            ],
        )
        applied = dataset.apply_delta(_delta(domains=[extended]))
        assert applied.replaced_domains == (extended.domain_id,)
        assert [d.label_name for d in dataset.iter_domains()] == [
            "gold",
            "silver",
        ]
        assert len(dataset.domains[extended.domain_id].registrations) == 2

    def test_cursor_and_version_chain(self) -> None:
        dataset = ENSDataset()
        first = dataset.apply_delta(_delta(txs=[make_tx("0xa", "0xb", 1)]))
        second = dataset.apply_delta(_delta(txs=[make_tx("0xa", "0xb", 2)]))
        assert (first.cursor, second.cursor) == (1, 2)
        assert second.version_before == first.version_after
        assert dataset.version == second.version_after


class TestDeltasSince:
    def test_current_consumer_gets_empty_chain(self) -> None:
        dataset = ENSDataset()
        dataset.apply_delta(_delta(txs=[make_tx("0xa", "0xb", 1)]))
        assert dataset.deltas_since(dataset.delta_cursor, dataset.version) == ()

    def test_chain_covers_missed_deltas(self) -> None:
        dataset = ENSDataset()
        dataset.apply_delta(_delta(txs=[make_tx("0xa", "0xb", 1)]))
        cursor, version = dataset.delta_cursor, dataset.version
        dataset.apply_delta(_delta(txs=[make_tx("0xa", "0xb", 2)]))
        dataset.apply_delta(_delta(txs=[make_tx("0xa", "0xb", 3)]))
        chain = dataset.deltas_since(cursor, version)
        assert chain is not None
        assert [entry.cursor for entry in chain] == [2, 3]

    def test_out_of_band_mutation_breaks_chain(self) -> None:
        dataset = ENSDataset()
        cursor, version = dataset.delta_cursor, dataset.version
        dataset.apply_delta(_delta(txs=[make_tx("0xa", "0xb", 1)]))
        dataset.add_transactions([make_tx("0xa", "0xb", 2)])  # unlogged
        assert dataset.deltas_since(cursor, version) is None

    def test_consumer_behind_truncated_log_rebuilds(self) -> None:
        from repro.datasets.dataset import DELTA_LOG_LIMIT

        dataset = ENSDataset()
        for day in range(DELTA_LOG_LIMIT + 2):
            dataset.apply_delta(_delta(txs=[make_tx("0xa", "0xb", day + 1)]))
        assert dataset.deltas_since(0, 0) is None


class TestSerialization:
    def test_round_trip(self) -> None:
        delta = _delta(
            domains=[make_domain("gold", [make_registration("0xa", 10, 400)])],
            txs=[make_tx("0xa", "0xb", 50)],
            events=[make_sale_event("gold", "listing", 60, "0xa")],
            label="batch-1/4@123",
        )
        again = DatasetDelta.from_dict(
            json.loads(json.dumps(delta.as_dict(), sort_keys=True))
        )
        assert again == delta

    def test_empty_delta_encodes_empty_object(self) -> None:
        assert DatasetDelta().as_dict() == {}
        assert DatasetDelta().record_count == 0


class TestDeltaLog:
    def _base(self, tmp_path):
        dataset = make_dataset(
            [make_domain("gold", [make_registration("0xa", 10, 400)])],
            [make_tx("0xa", "0xb", 50)],
        )
        save_dataset(dataset, tmp_path)
        return dataset

    def test_append_then_load_replays(self, tmp_path) -> None:
        self._base(tmp_path)
        cursor = append_delta(
            tmp_path, _delta(txs=[make_tx("0xa", "0xb", 60)], label="one")
        )
        assert cursor == 1
        cursor = append_delta(
            tmp_path,
            _delta(
                domains=[
                    make_domain("silver", [make_registration("0xc", 20, 500)])
                ],
                label="two",
            ),
        )
        assert cursor == 2
        loaded = load_dataset(tmp_path)
        assert loaded.delta_cursor == 2
        assert loaded.transaction_count == 2
        assert loaded.domain_count == 2

    def test_torn_trailing_line_skipped_and_truncated(self, tmp_path) -> None:
        self._base(tmp_path)
        append_delta(tmp_path, _delta(txs=[make_tx("0xa", "0xb", 60)]))
        path = tmp_path / DELTAS_FILE
        with path.open("ab") as handle:
            handle.write(b'{"transactions": [{"txHash"')  # killed mid-write
        assert len(load_deltas(tmp_path)) == 1  # reader skips the torn tail
        loaded = load_dataset(tmp_path)
        assert loaded.delta_cursor == 1
        # the next append truncates the torn tail before writing
        cursor = append_delta(
            tmp_path, _delta(txs=[make_tx("0xa", "0xb", 61)])
        )
        assert cursor == 2
        assert load_dataset(tmp_path).delta_cursor == 2

    def test_malformed_terminated_line_raises(self, tmp_path) -> None:
        self._base(tmp_path)
        (tmp_path / DELTAS_FILE).write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_deltas(tmp_path)

    def test_in_place_pack_compacts_the_log(self, tmp_path) -> None:
        self._base(tmp_path)
        append_delta(tmp_path, _delta(txs=[make_tx("0xa", "0xb", 60)]))
        pack_dataset(tmp_path)
        assert not (tmp_path / DELTAS_FILE).exists()
        # the base JSONL was rewritten: a plain object load sees the
        # delta's records with an empty log (cursor resets)
        loaded = load_dataset(tmp_path)
        assert loaded.delta_cursor == 0
        assert loaded.transaction_count == 2

    def test_columnar_load_ignores_stale_pack(self, tmp_path) -> None:
        from repro.core import build_report, report_json
        from repro.oracle import EthUsdOracle

        self._base(tmp_path)
        pack_dataset(tmp_path)
        append_delta(
            tmp_path,
            _delta(
                domains=[
                    make_domain("silver", [make_registration("0xc", 20, 500)])
                ],
                txs=[make_tx("0xc", "0xd", 70)],
            ),
        )
        # dataset.rcol predates the append; the columnar load must not
        # serve it
        columnar = load_dataset(tmp_path, store="columnar")
        assert columnar.domain_count == 2
        objected = load_dataset(tmp_path)
        oracle = EthUsdOracle()
        assert report_json(build_report(columnar, oracle)) == report_json(
            build_report(objected, oracle)
        )
