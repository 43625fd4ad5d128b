"""The headline chaos suite: faulted crawls equal the clean crawl.

Every test builds the same deterministic ecosystem (fresh world per
run — worlds are cheap at this scale and identical by seed), runs the
Figure-1 pipeline under an injected fault plan, and asserts golden
equivalence with the fault-free baseline:

* *coverage* (domains, wallets, transactions, market events, dataset
  digest) must be identical — faults may cost retries, never data;
* *effort* fields may legitimately grow under faults, but are exactly
  reproducible for a fixed plan, and exactly equal to the clean run
  for the kill+resume case (restored counters cover the whole crawl).
"""

from __future__ import annotations

import pytest

from repro.crawler import CheckpointConfig, CrawlReport, dataset_digest
from repro.faults import CrawlKilled, FaultPlan
from repro.faults.plan import FAULT_KINDS, EndpointFaultSpec, OutageBurst
from repro.obs.metrics import MetricsRegistry
from repro.simulation import ScenarioConfig, run_scenario

N_DOMAINS = 80
WORLD_SEED = 21
ENDPOINTS = ("subgraph", "explorer", "opensea")
ALL_KINDS = FAULT_KINDS + ("outage", "kill")

#: CrawlReport fields determined purely by the *data* the crawl covers.
#: These are invariant under fault injection and resume, so the golden
#: equality is asserted over exactly this set. The remaining fields
#: measure *effort* (requests, retries, pages), which injected faults
#: legitimately inflate.
COVERAGE_FIELDS = (
    "domains_crawled",
    "domains_missing",
    "subdomains_total",
    "wallet_addresses",
    "transactions_crawled",
    "market_events_crawled",
)


def coverage_fields(report: CrawlReport) -> dict[str, int]:
    return {name: getattr(report, name) for name in COVERAGE_FIELDS}


def _world():
    """A fresh, deterministic ecosystem (identical on every call)."""
    return run_scenario(ScenarioConfig(n_domains=N_DOMAINS, seed=WORLD_SEED))


def _crawl(fault_plan=None, checkpoint=None):
    """Crawl a fresh world; returns (dataset, report, registry)."""
    registry = MetricsRegistry()
    dataset, report = _world().run_crawl(
        registry=registry, fault_plan=fault_plan, checkpoint=checkpoint
    )
    return dataset, report, registry


def _faults_injected(registry: MetricsRegistry) -> int:
    return int(
        sum(
            registry.value("fault_injected_total", endpoint=endpoint, kind=kind)
            for endpoint in ENDPOINTS
            for kind in ALL_KINDS
        )
    )


@pytest.fixture(scope="module")
def baseline():
    """The fault-free golden run every chaos run is compared against."""
    dataset, report, _ = _crawl()
    return dataset_digest(dataset), report


class TestErrorRates:
    def test_zero_rate_plan_is_a_no_op(self, baseline) -> None:
        """A 0% plan must not even perturb the effort accounting."""
        digest, report, registry = None, None, None
        dataset, report, registry = _crawl(FaultPlan.uniform(0.0, seed=7))
        digest = dataset_digest(dataset)
        golden_digest, golden_report = baseline
        assert digest == golden_digest
        assert report == golden_report
        assert _faults_injected(registry) == 0

    @pytest.mark.parametrize("rate", [0.05, 0.25])
    def test_surviving_plans_lose_no_data(self, baseline, rate) -> None:
        dataset, report, registry = _crawl(FaultPlan.uniform(rate, seed=7))
        golden_digest, golden_report = baseline
        assert dataset_digest(dataset) == golden_digest
        assert coverage_fields(report) == coverage_fields(golden_report)
        assert _faults_injected(registry) > 0
        # the faults were absorbed as visible retry effort
        assert report.explorer_retries > golden_report.explorer_retries

    def test_same_plan_replays_identically(self) -> None:
        """Chaos runs are experiments: same plan -> same run, exactly."""
        plan = FaultPlan.uniform(0.05, seed=7)
        first_dataset, first_report, first_registry = _crawl(plan)
        second_dataset, second_report, second_registry = _crawl(plan)
        assert dataset_digest(first_dataset) == dataset_digest(second_dataset)
        assert first_report == second_report
        assert _faults_injected(first_registry) == _faults_injected(
            second_registry
        )


class TestBurstOutage:
    #: Six consecutive explorer calls fail: enough to trip the breaker
    #: (threshold 5) but within the nine attempts the client will make.
    _PLAN = FaultPlan(
        seed=0,
        endpoints={
            "explorer": EndpointFaultSpec(
                bursts=(OutageBurst(from_call=10, until_call=16),)
            )
        },
    )

    def test_total_outage_burst_is_survived(self, baseline) -> None:
        dataset, report, registry = _crawl(self._PLAN)
        golden_digest, golden_report = baseline
        assert dataset_digest(dataset) == golden_digest
        assert coverage_fields(report) == coverage_fields(golden_report)
        assert (
            registry.value("fault_injected_total", endpoint="explorer", kind="outage")
            == 6
        )

    def test_breaker_opened_and_recovered(self) -> None:
        _, _, registry = _crawl(self._PLAN)
        opened = registry.value(
            "circuit_transitions_total", client="explorer", state="open"
        )
        probed = registry.value(
            "circuit_transitions_total", client="explorer", state="half_open"
        )
        closed = registry.value(
            "circuit_transitions_total", client="explorer", state="closed"
        )
        # a probe that fails mid-burst re-opens the circuit, so opens can
        # outnumber closes; the final probe must have closed it for good
        assert opened >= 1
        assert probed >= opened  # every open window was eventually probed
        assert closed >= 1
        assert registry.value("circuit_state", client="explorer") == 0  # closed


class TestKillAndResume:
    _KILL_PLAN = FaultPlan(
        seed=0,
        endpoints={"explorer": EndpointFaultSpec(kill_at_call=20)},
    )

    def test_killed_run_resumes_to_identical_results(
        self, baseline, tmp_path
    ) -> None:
        """The tentpole guarantee: kill mid-crawl, resume, get the same
        dataset *and the same full report* as an uninterrupted run."""
        golden_digest, golden_report = baseline
        checkpoint_dir = tmp_path / "ckpt"

        first = MetricsRegistry()
        with pytest.raises(CrawlKilled):
            _world().run_crawl(
                registry=first,
                fault_plan=self._KILL_PLAN,
                checkpoint=CheckpointConfig(directory=checkpoint_dir, every=7),
            )
        assert first.value("checkpoint_writes_total") >= 1

        dataset, report, registry = _crawl(
            checkpoint=CheckpointConfig(
                directory=checkpoint_dir, every=7, resume=True
            )
        )
        assert registry.value("checkpoint_resumes_total") == 1
        assert registry.value("checkpoint_stale_total") == 0
        assert dataset_digest(dataset) == golden_digest
        assert report == golden_report

    def test_resume_without_snapshot_starts_fresh(
        self, baseline, tmp_path
    ) -> None:
        golden_digest, golden_report = baseline
        dataset, report, registry = _crawl(
            checkpoint=CheckpointConfig(
                directory=tmp_path / "empty", every=7, resume=True
            )
        )
        assert registry.value("checkpoint_stale_total") == 1
        assert registry.value("checkpoint_resumes_total") == 0
        assert dataset_digest(dataset) == golden_digest
        assert report == golden_report
