"""Exact counts of the transaction records the columnar read path builds.

Re-analysis of a saved crawl (``validate`` then ``build_report``) reads
the transaction columns directly wherever it can. These gates count
:meth:`ColumnarDataset.tx_at` calls, so they hold on any machine:
``validate`` builds no :class:`TxRecord`, and a report builds at most
one per transaction row.
"""

from __future__ import annotations

import pytest

from repro.core import build_report, report_json
from repro.datasets import ColumnarDataset
from repro.simulation import ScenarioConfig, run_scenario


@pytest.fixture(scope="module")
def crawl():
    world = run_scenario(ScenarioConfig(n_domains=120, seed=5))
    dataset, _ = world.run_crawl()
    return dataset, world.oracle


@pytest.fixture()
def tx_at_calls(monkeypatch) -> list[int]:
    """Every row ``ColumnarDataset.tx_at`` is asked for, in call order."""
    calls: list[int] = []
    original = ColumnarDataset.tx_at

    def counted(self, row):
        calls.append(row)
        return original(self, row)

    monkeypatch.setattr(ColumnarDataset, "tx_at", counted)
    return calls


def test_validate_builds_no_transaction_record(crawl, tx_at_calls) -> None:
    dataset, _ = crawl
    ColumnarDataset.from_dataset(dataset).validate()
    assert tx_at_calls == []


def test_report_builds_each_transaction_at_most_once(crawl, tx_at_calls) -> None:
    dataset, oracle = crawl
    store = ColumnarDataset.from_dataset(dataset)
    store.validate()
    columnar = report_json(build_report(store, oracle))
    assert tx_at_calls
    assert len(set(tx_at_calls)) == len(tx_at_calls)  # no row built twice
    assert columnar == report_json(build_report(dataset, oracle))
