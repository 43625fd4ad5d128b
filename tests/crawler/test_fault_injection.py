"""Crawler resilience under injected endpoint failures."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.crawler import CrawlError, SubgraphClient
from repro.faults import FaultPlan
from repro.indexer import ENSSubgraph, SubgraphEndpoint
from repro.obs.metrics import MetricsRegistry
from repro.simulation import ScenarioConfig, run_scenario

from .helpers import all_domains


@dataclass
class _FlakyEndpoint:
    """Wraps a real endpoint; fails the first N queries of each burst."""

    inner: SubgraphEndpoint
    failures_per_burst: int
    queries_seen: int = 0
    _burst_position: int = field(default=0, repr=False)

    def query(self, text: str) -> dict:
        self.queries_seen += 1
        if self._burst_position < self.failures_per_burst:
            self._burst_position += 1
            return {"errors": [{"message": "indexer temporarily unavailable"}]}
        self._burst_position = 0
        return self.inner.query(text)

    def missing_domain_ids(self):
        return self.inner.missing_domain_ids()


@pytest.fixture()
def populated_endpoint(chain, ens, alice) -> SubgraphEndpoint:
    subgraph = ENSSubgraph(ens)
    for i in range(5):
        ens.register(alice, f"flaky{i}", 365 * 86_400)
    return SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)


class TestTransientFailures:
    def test_retries_through_transient_errors(self, populated_endpoint) -> None:
        flaky = _FlakyEndpoint(populated_endpoint, failures_per_burst=2)
        client = SubgraphClient(flaky, page_size=2)
        records = all_domains(client)
        assert len(records) == 5
        # every page cost the failed attempts plus the success
        assert flaky.queries_seen > client.pages_fetched

    def test_persistent_failure_raises_with_message(self, populated_endpoint) -> None:
        flaky = _FlakyEndpoint(populated_endpoint, failures_per_burst=10**9)
        client = SubgraphClient(flaky)
        with pytest.raises(CrawlError, match="^subgraph: .*temporarily unavailable"):
            all_domains(client)
        assert flaky.queries_seen == 3  # exactly the retry budget

    def test_exact_retry_budget_boundary(self, populated_endpoint) -> None:
        # fails 2 of the 3 allowed attempts, then succeeds: must still work
        flaky = _FlakyEndpoint(populated_endpoint, failures_per_burst=2)
        client = SubgraphClient(flaky)
        assert len(all_domains(client)) == 5
        # fails all 3 attempts per burst: must give up
        flaky_fatal = _FlakyEndpoint(populated_endpoint, failures_per_burst=3)
        fatal_client = SubgraphClient(flaky_fatal)
        with pytest.raises(CrawlError):
            all_domains(fatal_client)


def test_requests_counter_equals_calls_reaching_each_endpoint() -> None:
    """Under a seeded uniform fault plan every attempt is one counted request."""
    world = run_scenario(ScenarioConfig(n_domains=40, seed=3))
    registry = MetricsRegistry()
    # plan seed 3 faults at least one call of each client, so every
    # client retries and its requests exceed its successful calls
    pipeline = world.build_pipeline(
        registry=registry, fault_plan=FaultPlan.uniform(0.2, seed=3)
    )
    pipeline.run(crawl_timestamp=world.end_timestamp)
    wrappers = {
        "subgraph": pipeline.subgraph_client.endpoint,
        "explorer": pipeline.etherscan_client.api,
        "opensea": pipeline.opensea_client.api,
    }
    for label, wrapper in wrappers.items():
        assert wrapper.calls_seen > 0
        assert registry.value("crawler_retries_total", client=label) > 0
        assert (
            registry.value("crawler_requests_total", client=label)
            == wrapper.calls_seen
        )
