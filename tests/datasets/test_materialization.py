"""Exact counts of the transaction records the columnar read path builds.

Re-analysis of a saved crawl (``validate`` then ``build_report``) reads
the transaction columns directly wherever it can. These gates count
:meth:`ColumnarDataset.tx_at` calls, so they hold on any machine:
``validate`` builds no :class:`TxRecord`, and a report builds one only
where a result keeps it (a loss flow's payments, a hijackable window's
transfers), never the same row twice.
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
    report = build_report(store, oracle)
    columnar = report_json(report)
    kept = {
        tx.tx_hash
        for losses in (report.losses_with_coinbase, report.losses_noncustodial)
        for flow in losses.flows
        for tx in flow.txs_to_new
    } | {tx.tx_hash for window in report.hijackable.windows for tx in window.txs}
    # the income windows, sender sets and payment checks read the
    # columns: 92 of the 2,392 rows end up in a result, and only those
    # are built
    assert len(dataset.transactions) == 2392
    assert len(tx_at_calls) == len(kept) == 92
    assert len(set(tx_at_calls)) == len(tx_at_calls)  # no row built twice
    assert columnar == report_json(build_report(dataset, oracle))
