"""AnalysisContext: query equivalence, invalidation, golden report."""

from __future__ import annotations

import pytest

from repro.core import AnalysisContext, ScanAccess, build_report
from repro.obs import MetricsRegistry
from repro.oracle import EthUsdOracle
from repro.simulation import ScenarioConfig, run_scenario

from .helpers import DAY, make_domain, make_dataset, make_registration, make_tx


def _fixture_dataset():
    """Two domains (one dropcatched), cross-address payment traffic."""
    caught = make_domain(
        "alpha",
        [
            make_registration("0xa1", 100, 500, ordinal=0),
            make_registration("0xa2", 620, 1200, ordinal=1),
        ],
    )
    keeper = make_domain(
        "beta",
        [make_registration("0xb1", 150, 1900, ordinal=0)],
    )
    txs = [
        make_tx("0xc", "0xa1", 200),
        make_tx("0xc", "0xa1", 300),
        make_tx("0xc", "0xa2", 700),
        make_tx("0xd", "0xa2", 650, value_wei=0),   # zero-value: not a payment
        make_tx("0xd", "0xa2", 800),
        make_tx("0xe", "0xb1", 400),
        make_tx("0xe", "0xa1", 450, is_error=True),  # errored: invisible
    ]
    return make_dataset([caught, keeper], txs=txs)


def _lists(transfers):
    """The parallel lists and the records of an answer, for comparison."""
    return transfers.stamps, transfers.values, transfers.senders, transfers.txs()


QUERIES = (
    lambda access: _lists(access.incoming_window("0xa2", 620 * DAY, 1200 * DAY)),
    lambda access: _lists(access.incoming_window("0xa1", None, 400 * DAY)),
    lambda access: _lists(access.incoming_window("0xa1", 250 * DAY, None)),
    lambda access: _lists(access.incoming_window("0xnobody", None, None)),
    lambda access: access.senders_in_window("0xa2", 620 * DAY, 1200 * DAY),
    lambda access: access.senders_in_window(
        "0xa1", None, 500 * DAY, positive_only=False
    ),
    lambda access: _lists(access.payments("0xc", "0xa2")),
    lambda access: _lists(access.payments("0xd", "0xa2")),
    lambda access: _lists(access.payments("0xmissing", "0xa2")),
    lambda access: access.reregistrations(),
    lambda access: access.ownership_intervals("0xdomain-alpha"),
    lambda access: access.ownership_intervals("0xdomain-missing"),
    lambda access: access.transactions_until(500 * DAY),
    lambda access: access.market_events_until(500 * DAY),
    lambda access: set(access.payers("0xa2")),
    lambda access: set(access.payers("0xnobody")),
    lambda access: _lists(access.incoming_window("0xa2", None, None)),
)


def _delta():
    """Appends that land inside and at the ends of existing histories."""
    from repro.datasets.delta import DatasetDelta

    return DatasetDelta(
        transactions=(
            make_tx("0xf", "0xa2", 700),   # ties an existing stamp
            make_tx("0xc", "0xa2", 1300),  # after every existing stamp
            make_tx("0xd", "0xa1", 100),   # before every existing stamp
            make_tx("0xf", "0xnobody", 10, value_wei=0),
        )
    )


class TestQueryEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_scan_access(self, query) -> None:
        dataset = _fixture_dataset()
        assert query(AnalysisContext(dataset)) == query(ScanAccess(dataset))

    @pytest.mark.parametrize("query", QUERIES)
    def test_columnar_store_matches_object_store(self, query) -> None:
        """Every context query answers identically off column slices."""
        from repro.datasets import ColumnarDataset

        dataset = _fixture_dataset()
        columnar = ColumnarDataset.from_dataset(dataset)
        assert query(AnalysisContext(columnar)) == query(
            AnalysisContext(dataset)
        )

    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_scan_access_after_delta(self, query) -> None:
        """A warm context patched in place by a delta answers like a scan."""
        dataset = _fixture_dataset()
        context = AnalysisContext(dataset)
        before = [query(context) for query in QUERIES]
        assert before == [query(ScanAccess(dataset)) for query in QUERIES]
        dataset.apply_delta(_delta())
        assert context.sync() is not None  # patched, not rebuilt
        assert query(context) == query(ScanAccess(dataset))

    def test_window_is_time_sorted_slice(self) -> None:
        dataset = _fixture_dataset()
        context = AnalysisContext(dataset)
        window = context.incoming_window("0xa1", None, None)
        assert window.stamps == sorted(window.stamps)
        assert all(
            not window.tx(position).is_error for position in range(len(window))
        )

    def test_payments_exclude_zero_value(self) -> None:
        dataset = _fixture_dataset()
        context = AnalysisContext(dataset)
        assert context.payments("0xd", "0xa2").values == [10**18]

    def test_transactions_until_preserves_insertion_order(self) -> None:
        # insertion order deliberately differs from timestamp order
        domain = make_domain("x", [make_registration("0xa", 1, 900)])
        txs = [
            make_tx("0xs", "0xa", 300),
            make_tx("0xs", "0xa", 100),
            make_tx("0xs", "0xa", 200),
            make_tx("0xs", "0xa", 400),
        ]
        dataset = make_dataset([domain], txs=txs)
        context = AnalysisContext(dataset)
        until = context.transactions_until(300 * DAY)
        assert until == [txs[0], txs[1], txs[2]]  # original order, not sorted


class TestInvalidation:
    def test_add_domain_refreshes_events(self) -> None:
        dataset = _fixture_dataset()
        context = AnalysisContext(dataset)
        assert len(context.reregistrations()) == 1
        dataset.add_domain(
            make_domain(
                "gamma",
                [
                    make_registration("0xg1", 100, 400, ordinal=0),
                    make_registration("0xg2", 500, 900, ordinal=1),
                ],
            )
        )
        assert len(context.reregistrations()) == 2

    def test_add_transactions_refreshes_windows(self) -> None:
        dataset = _fixture_dataset()
        context = AnalysisContext(dataset)
        before = context.incoming_window("0xa2", None, None)
        dataset.add_transactions([make_tx("0xf", "0xa2", 900)])
        after = context.incoming_window("0xa2", None, None)
        assert len(after) == len(before) + 1
        assert context.payments("0xf", "0xa2")

    def test_add_market_events_refreshes_until(self) -> None:
        from .helpers import make_sale_event

        dataset = _fixture_dataset()
        context = AnalysisContext(dataset)
        assert context.market_events_until(2000 * DAY) == []
        dataset.add_market_events(
            [make_sale_event("alpha", "listing", 700, maker="0xa2")]
        )
        assert len(context.market_events_until(2000 * DAY)) == 1

    def test_invalidation_counter_increments(self) -> None:
        registry = MetricsRegistry()
        dataset = _fixture_dataset()
        context = AnalysisContext(dataset, registry=registry)
        context.reregistrations()
        assert registry.value("analysis_cache_invalidations_total") == 0
        dataset.add_transactions([make_tx("0xf", "0xa2", 900)])
        context.reregistrations()
        assert registry.value("analysis_cache_invalidations_total") == 1

    def test_version_counter_is_monotonic(self) -> None:
        dataset = _fixture_dataset()
        v0 = dataset.version
        dataset.add_domain(make_domain("z", [make_registration("0xz", 1, 900)]))
        dataset.add_transactions([])
        dataset.add_market_events([])
        assert dataset.version == v0 + 3


class TestCacheMetrics:
    def test_hit_and_miss_counters(self) -> None:
        registry = MetricsRegistry()
        dataset = _fixture_dataset()
        context = AnalysisContext(dataset, registry=registry)
        context.incoming_window("0xa2", None, None)
        context.incoming_window("0xa2", 0, DAY)

        def value(outcome: str) -> float:
            return registry.value(
                "analysis_cache_requests_total", cache="incoming", outcome=outcome
            )

        assert value("miss") == 1
        assert value("hit") == 1

    def test_cache_stats_snapshot(self) -> None:
        registry = MetricsRegistry()
        context = AnalysisContext(_fixture_dataset(), registry=registry)
        context.reregistrations()
        context.reregistrations()
        for outcome in ("hit", "miss"):
            assert registry.value(
                "analysis_cache_requests_total", cache="events", outcome=outcome
            ) == 1


class TestGoldenEquivalence:
    def test_build_report_identical_with_and_without_index(self) -> None:
        world = run_scenario(ScenarioConfig(n_domains=160, seed=11))
        dataset, _ = world.run_crawl()
        indexed = build_report(dataset, world.oracle)
        reference = build_report(
            dataset, world.oracle,
            context=ScanAccess(dataset, world.oracle),
        )
        assert indexed.lines() == reference.lines()
        # beyond the rendered lines: the loss flows themselves agree
        assert (
            indexed.losses_with_coinbase.flows
            == reference.losses_with_coinbase.flows
        )
        assert indexed.typosquat == reference.typosquat

    def test_report_metrics_include_cache_counters(self) -> None:
        world = run_scenario(ScenarioConfig(n_domains=120, seed=5))
        dataset, _ = world.run_crawl()
        registry = MetricsRegistry()
        build_report(dataset, world.oracle, registry=registry)
        snapshot = registry.as_dict()
        assert "analysis_cache_requests_total" in snapshot
        hits = sum(
            sample["value"]
            for sample in snapshot["analysis_cache_requests_total"]["samples"]
            if sample["labels"]["outcome"] == "hit"
        )
        assert hits > 0


class TestOracleDayCache:
    def test_memoized_close_matches_fresh_oracle(self) -> None:
        warm = EthUsdOracle()
        days = [18_000, 18_500, 19_000, 18_000, 18_500]
        first = [warm.close_on_day(day) for day in days]
        second = [warm.close_on_day(day) for day in days]
        assert first == second
        cold = EthUsdOracle()
        assert [cold.close_on_day(day) for day in days] == first
