"""Ecosystem scenario: end-to-end properties against ground truth.

One small world is built per module (the scenario is deterministic), and
every test asserts a different invariant on it.
"""

from __future__ import annotations

import pytest

from repro.core import (
    build_report,
    detect_losses,
    find_reregistrations,
    monthly_timeline,
    summarize,
)
from repro.simulation import PAPER, ScenarioConfig, run_scenario


@pytest.fixture(scope="module")
def world():
    return run_scenario(ScenarioConfig(n_domains=500, seed=42))


@pytest.fixture(scope="module")
def crawl(world):
    return world.run_crawl()


class TestScenarioMechanics:
    def test_deterministic(self) -> None:
        a = run_scenario(ScenarioConfig(n_domains=60, seed=9))
        b = run_scenario(ScenarioConfig(n_domains=60, seed=9))
        assert [c.label for c in a.truth.catches] == [c.label for c in b.truth.catches]
        assert a.chain.height == b.chain.height

    def test_every_domain_registered(self, world) -> None:
        assert len(world.subgraph.domains) == 500

    def test_migration_cohort_exists(self, world) -> None:
        migrated = [s for s in world.scripts if s.is_migrated]
        assert len(migrated) > 30
        # migrated-name entities exist with unknown labels initially
        unknown = [
            d for d in world.subgraph.domains.values() if d.label_name is None
        ]
        # some may have been healed by renewals; most recently-lapsed stay dark
        assert len(unknown) <= len(migrated)

    def test_subdomains_created(self, world) -> None:
        total = sum(
            domain.subdomain_count for domain in world.subgraph.domains.values()
        )
        assert total > 0
        # at roughly the paper's 0.27/domain rate
        assert 0.05 <= total / len(world.subgraph.domains) <= 1.0

    def test_catches_went_to_catcher_wallets(self, world) -> None:
        catcher_addresses = {c.address.hex for c in world.dropcatchers}
        for catch in world.truth.catches:
            assert catch.new_owner in catcher_addresses
            assert catch.new_owner != catch.previous_owner

    def test_catch_timestamps_after_grace(self, world) -> None:
        for catch in world.truth.catches:
            delay_days = (catch.catch_timestamp - catch.expiry_timestamp) / 86_400
            assert delay_days >= 90 + 12 - 1  # grace plus earliest whale buy

    def test_premium_payments_recorded(self, world) -> None:
        premium_catches = [c for c in world.truth.catches if c.premium_wei > 0]
        for catch in premium_catches:
            assert catch.cost_wei > catch.premium_wei  # base price added


class TestCrawlFidelity:
    def test_recovery_rate_matches_gap(self, crawl) -> None:
        _, report = crawl
        assert report.recovery_rate > 0.99

    def test_dataset_validates(self, crawl) -> None:
        dataset, _ = crawl
        dataset.validate()

    def test_label_lists_crawled(self, crawl) -> None:
        dataset, _ = crawl
        assert len(dataset.custodial_addresses) == 558
        assert len(dataset.coinbase_addresses) == 25


class TestDetectionAgainstTruth:
    def test_rereg_detection_matches_truth(self, world, crawl) -> None:
        dataset, _ = crawl
        events = find_reregistrations(dataset)
        detected_labels = {
            event.name.removesuffix(".eth") for event in events if event.name
        }
        truth_labels = {catch.label for catch in world.truth.catches}
        # sold/flipped names register as additional events; every true catch
        # of a *crawled* domain must be detected
        crawled_names = {
            d.label_name for d in dataset.iter_domains() if d.label_name
        }
        missed = (truth_labels & crawled_names) - detected_labels
        assert not missed

    def test_owner_recoveries_not_flagged(self, world, crawl) -> None:
        dataset, _ = crawl
        events = find_reregistrations(dataset)
        detected = {e.name.removesuffix(".eth") for e in events if e.name}
        pure_recoveries = (
            set(world.truth.owner_recoveries)
            - {catch.label for catch in world.truth.catches}
        )
        assert detected.isdisjoint(pure_recoveries)

    def test_misdirected_detection_is_conservative(self, world, crawl) -> None:
        dataset, _ = crawl
        report = detect_losses(dataset, world.oracle, include_coinbase=True)
        detected_hashes = {
            tx.tx_hash for flow in report.flows for tx in flow.txs_to_new
        }
        # conservative: no false positives against ground truth
        false_positives = detected_hashes - world.truth.misdirected_tx_hashes
        assert len(false_positives) <= 0.05 * max(1, len(detected_hashes))
        # and it recovers a substantial share of the real misdirections
        assert len(detected_hashes) >= 0.3 * len(world.truth.misdirected_tx_hashes)

    def test_noncustodial_variant_is_subset(self, world, crawl) -> None:
        dataset, _ = crawl
        every = detect_losses(dataset, world.oracle, include_coinbase=True)
        noncust = detect_losses(dataset, world.oracle, include_coinbase=False)
        assert noncust.misdirected_tx_count <= every.misdirected_tx_count
        assert not any(flow.sender_is_coinbase for flow in noncust.flows)


class TestPaperShapes:
    """The headline shape checks (tolerances are wide: 500 domains)."""

    def test_rereg_rate_among_expired(self, crawl) -> None:
        dataset, _ = crawl
        summary = summarize(dataset)
        assert 0.08 <= summary.rereg_rate_among_expired <= 0.40
        # paper: 241K / (241K + 1.17M) ≈ 0.17

    def test_income_separation(self, world, crawl) -> None:
        dataset, _ = crawl
        report = build_report(dataset, world.oracle)
        income = report.comparison.row("income_usd")
        ratio = income.reregistered_value / max(1.0, income.control_value)
        assert ratio > 1.5  # paper: ≈3.3x
        # significance of the raw t-test needs larger samples than this
        # 500-domain world gives (income is heavy-tailed); the bench-scale
        # run asserts it. Here the cheaper unique-senders feature suffices.
        senders = report.comparison.row("num_unique_senders")
        assert senders.reregistered_value > senders.control_value

    def test_timeline_has_migration_spike(self, crawl) -> None:
        dataset, _ = crawl
        timeline = monthly_timeline(dataset)
        by_month = dict(zip(timeline.months, timeline.expirations))
        spike = by_month.get("2020-05", 0)
        typical = sorted(timeline.expirations)[len(timeline.expirations) // 2]
        assert spike > typical  # the forced-renewal deadline wave
