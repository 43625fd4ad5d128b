"""Crawler clients: pagination, backoff, gap accounting."""

from __future__ import annotations

import pytest

from repro.chain import Address, ether
from repro.crawler import (
    CrawlError,
    EtherscanClient,
    OpenSeaClient,
    SubgraphClient,
)
from repro.ens import labelhash
from repro.explorer import (
    EtherscanAPI,
    ExplorerDatabase,
    LabelRegistry,
    VirtualClock,
)
from repro.explorer.api import RateLimitError
from repro.indexer import ENSSubgraph, SubgraphEndpoint
from repro.marketplace import OpenSeaAPI, OpenSeaMarket
from repro.obs.metrics import MetricsRegistry

from .helpers import all_domains


class TestSubgraphClient:
    @pytest.fixture()
    def endpoint(self, chain, ens, alice):
        subgraph = ENSSubgraph(ens)
        for i in range(7):
            ens.register(alice, f"crawlme{i}", 365 * 86_400, set_addr_to=alice)
        return SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)

    def test_fetch_all_with_tiny_pages(self, endpoint) -> None:
        client = SubgraphClient(endpoint, page_size=2)
        records = all_domains(client)
        assert len(records) == 7
        assert client.pages_fetched >= 4
        # ids strictly increasing proves cursor pagination worked
        ids = [record.domain_id for record in records]
        assert ids == sorted(ids)

    def test_records_carry_registrations(self, endpoint, alice) -> None:
        client = SubgraphClient(endpoint)
        record = all_domains(client)[0]
        assert record.registrations[0].registrant == alice.hex
        assert record.resolved_address == alice.hex

    def test_page_size_validation(self, endpoint) -> None:
        with pytest.raises(ValueError):
            SubgraphClient(endpoint, page_size=0)
        with pytest.raises(ValueError):
            SubgraphClient(endpoint, page_size=5000)

    def test_gap_is_invisible_but_counted(self, chain, ens, alice) -> None:
        subgraph = ENSSubgraph(ens)
        for i in range(10):
            ens.register(alice, f"gapname{i}", 365 * 86_400)
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.3)
        client = SubgraphClient(endpoint)
        crawled = all_domains(client)
        missing = endpoint.missing_domain_ids()
        assert len(crawled) + len(missing) == 10
        assert {r.domain_id for r in crawled}.isdisjoint(missing)


class TestEtherscanClient:
    @pytest.fixture()
    def api(self, chain):
        a, b = Address.derive("ec:a"), Address.derive("ec:b")
        chain.fund(a, ether(10_000))
        for _ in range(35):
            chain.transfer(a, b, ether(1))
        return EtherscanAPI(
            database=ExplorerDatabase(chain),
            labels=LabelRegistry(),
            clock=VirtualClock(),
            rate_limit_per_second=5,
        ), a

    def test_fetch_pages_through_history(self, api) -> None:
        etherscan, a = api
        client = EtherscanClient(etherscan, page_size=10)
        records = client.fetch_transactions(a.hex)
        assert len(records) == 35
        timestamps = [record.timestamp for record in records]
        assert timestamps == sorted(timestamps)

    def test_backoff_on_rate_limit(self, api) -> None:
        etherscan, a = api
        client = EtherscanClient(etherscan, page_size=10)
        client.fetch_transactions(a.hex)
        client.fetch_transactions(a.hex)  # exceeds 5 calls/s, must back off
        assert client.retries_performed > 0
        assert etherscan.clock.slept_total > 0

    def test_retry_budget_exhausted(self, api) -> None:
        etherscan, a = api
        client = EtherscanClient(etherscan, page_size=10)
        client.api.rate_limit_per_second = 0  # every call is throttled
        assert client.failures == 0
        with pytest.raises(CrawlError, match="^explorer: gave up after 9 attempts"):
            client.fetch_transactions(a.hex)
        # the terminal failure is recorded, not silently dropped
        assert client.failures == 1
        assert client.requests_made == 9
        assert client.retries_performed == 8

    def test_label_fetch_failure_recorded(self, api) -> None:
        etherscan, _ = api
        client = EtherscanClient(etherscan)
        client.api.rate_limit_per_second = 0
        with pytest.raises(CrawlError):
            client.fetch_label_category("custodial-exchange")
        assert client.failures == 1

    def test_deep_history_block_cursoring(self, chain) -> None:
        # an address with more rows than the 10K result window
        a, b = Address.derive("deep:a"), Address.derive("deep:b")
        chain.fund(a, ether(100_000))
        for _ in range(130):
            chain.transfer(a, b, ether(1))
        api = EtherscanAPI(
            database=ExplorerDatabase(chain),
            labels=LabelRegistry(),
            clock=VirtualClock(),
            rate_limit_per_second=10_000,
        )
        # shrink the window by using tiny pages: page*offset <= 10_000
        # still holds, so force the window path with page_size=25 and
        # a monkeypatched cap
        import repro.crawler.etherscan_client as module

        original = module.MAX_TXLIST_WINDOW
        module.MAX_TXLIST_WINDOW = 50
        try:
            client = EtherscanClient(api, page_size=25)
            records = client.fetch_transactions(a.hex)
        finally:
            module.MAX_TXLIST_WINDOW = original
        assert len(records) == 130


class TestOpenSeaClient:
    @pytest.fixture()
    def market(self, chain, ens, alice):
        contract = OpenSeaMarket(
            Address.derive("crawl:opensea"), chain, ens.base
        )
        chain.deploy(contract)
        return contract

    def _list(self, chain, ens, market, owner, label, times=1) -> None:
        ens.register(owner, label, 365 * 86_400)
        token = labelhash(label)
        chain.call(owner, ens.base.address, "approve",
                   to=market.address, label_hash=token)
        for i in range(times):
            receipt = chain.call(owner, market.address, "list_token",
                                 token_id=token, price_wei=ether(1) + i)
            assert receipt.success, receipt.error
            chain.advance_time(10)

    def test_fetch_token_events_paginates(self, chain, ens, market, alice) -> None:
        self._list(chain, ens, market, alice, "relist", times=60)
        client = OpenSeaClient(OpenSeaAPI(market))
        events = client.fetch_token_events(labelhash("relist").hex)
        assert len(events) == 60
        assert client.requests_made >= 2
        timestamps = [event.timestamp for event in events]
        assert timestamps == sorted(timestamps)

    def test_fetch_for_many_tokens(self, chain, ens, market, alice) -> None:
        self._list(chain, ens, market, alice, "aaa")
        self._list(chain, ens, market, alice, "bbb")
        client = OpenSeaClient(OpenSeaAPI(market))
        counts = [
            len(client.fetch_token_events(labelhash(label).hex))
            for label in ("aaa", "bbb", "none")
        ]
        assert counts == [1, 1, 0]


class _DownEndpoint:
    """An endpoint of every kind whose every call fails; counts the calls."""

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self.calls = 0

    def query(self, text: str) -> dict:
        self.calls += 1
        return {"errors": [{"message": "indexer down"}]}

    def _throttled(self, **kwargs: object) -> None:
        self.calls += 1
        raise RateLimitError("Max rate limit reached")

    txlist = labels_in_category = asset_events = _throttled


@pytest.mark.parametrize(
    ("make_client", "fetch", "label", "attempts"),
    [
        (SubgraphClient, lambda c: c.fetch_domains_page(""), "subgraph", 3),
        (EtherscanClient, lambda c: c.fetch_transactions("0xa"), "explorer", 9),
        (EtherscanClient, lambda c: c.fetch_label_category("x"), "explorer", 9),
        (OpenSeaClient, lambda c: c.fetch_token_events("0x1"), "opensea", 9),
    ],
)
def test_down_endpoint_gives_up_after_the_policy(
    make_client, fetch, label, attempts
) -> None:
    endpoint = _DownEndpoint()
    registry = MetricsRegistry()
    client = make_client(endpoint, registry=registry)
    with pytest.raises(CrawlError, match=f"^{label}: gave up after {attempts} "):
        fetch(client)
    assert endpoint.calls == attempts
    assert registry.value("crawler_requests_total", client=label) == attempts
    assert registry.value("crawler_retries_total", client=label) == attempts - 1
    assert registry.value("crawler_failures_total", client=label) == 1
