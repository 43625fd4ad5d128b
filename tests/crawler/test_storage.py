"""Dataset persistence: JSONL round trips and error handling."""

from __future__ import annotations

import json

import pytest

from repro.crawler import load_dataset, save_dataset
from repro.crawler.storage import DELTAS_FILE, DeltaLog, append_delta
from repro.datasets import MarketEventRecord
from repro.datasets.delta import DatasetDelta

from ..core.helpers import make_dataset, make_domain, make_registration, make_tx


def _sample_dataset():
    dataset = make_dataset(
        [make_domain("d", [make_registration("0xa", 100, 465)])],
        [make_tx("0xs", "0xa", 200)],
    )
    dataset.coinbase_addresses = {"0xcb"}
    dataset.custodial_addresses = {"0xex"}
    dataset.add_market_events([
        MarketEventRecord(token_id="0xt", event_type="listing", timestamp=1,
                          maker="0xm", taker=None, price_wei=5),
    ])
    return dataset


class TestRoundTrip:
    def test_save_and_load(self, tmp_path) -> None:
        dataset = _sample_dataset()
        save_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.domain_count == 1
        assert loaded.transaction_count == 1
        assert loaded.coinbase_addresses == {"0xcb"}
        assert loaded.custodial_addresses == {"0xex"}
        assert loaded.crawl_timestamp == dataset.crawl_timestamp
        assert len(loaded.market_events) == 1
        loaded.validate()

    def test_files_created(self, tmp_path) -> None:
        save_dataset(_sample_dataset(), tmp_path / "ds")
        names = {p.name for p in (tmp_path / "ds").iterdir()}
        assert names == {
            "meta.json", "domains.jsonl", "transactions.jsonl",
            "market_events.jsonl",
        }

    def test_jsonl_one_record_per_line(self, tmp_path) -> None:
        save_dataset(_sample_dataset(), tmp_path / "ds")
        lines = (tmp_path / "ds" / "domains.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["labelName"] == "d"


class TestErrors:
    def test_missing_directory(self, tmp_path) -> None:
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_malformed_line(self, tmp_path) -> None:
        save_dataset(_sample_dataset(), tmp_path / "ds")
        path = tmp_path / "ds" / "transactions.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(ValueError, match="transactions.jsonl:1"):
            load_dataset(tmp_path / "ds")

    def test_missing_key(self, tmp_path) -> None:
        save_dataset(_sample_dataset(), tmp_path / "ds")
        path = tmp_path / "ds" / "domains.jsonl"
        path.write_text('{"unexpected": true}\n')
        with pytest.raises(ValueError, match="domains.jsonl:1"):
            load_dataset(tmp_path / "ds")

    def test_blank_lines_ignored(self, tmp_path) -> None:
        save_dataset(_sample_dataset(), tmp_path / "ds")
        path = tmp_path / "ds" / "market_events.jsonl"
        path.write_text("\n" + path.read_text() + "\n\n")
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded.market_events) == 1


class TestDeltaLog:
    def test_append_delta_counts_delta_lines_not_newlines(self, tmp_path) -> None:
        save_dataset(_sample_dataset(), tmp_path / "ds")
        (tmp_path / "ds" / DELTAS_FILE).write_text("\n \n")
        delta = DatasetDelta(transactions=(make_tx("0xs", "0xa", 300),))
        assert append_delta(tmp_path / "ds", delta) == 1
        assert load_dataset(tmp_path / "ds").delta_cursor == 1
        assert append_delta(tmp_path / "ds", delta) == 2

    def test_a_read_resumes_after_its_position(self, tmp_path) -> None:
        save_dataset(_sample_dataset(), tmp_path / "ds")
        delta = DatasetDelta(transactions=(make_tx("0xs", "0xa", 300),))
        append_delta(tmp_path / "ds", delta)
        log = DeltaLog(tmp_path / "ds")
        raw = log.path.read_bytes()
        assert log.skip(raw) == 1
        assert (log.offset, log.line_number) == (len(raw), 1)
        torn = raw + b"\n" + raw + raw[:5]
        assert list(log.read(torn)) == [delta]
        assert (log.offset, log.line_number) == (len(torn) - 5, 3)
