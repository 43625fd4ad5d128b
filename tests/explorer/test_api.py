"""Etherscan API facade: pagination limits, rate limiting, labels."""

from __future__ import annotations

import pytest

from repro.chain import Address, Blockchain, ether
from repro.explorer import (
    CATEGORY_COINBASE,
    CATEGORY_CUSTODIAL_EXCHANGE,
    EtherscanAPI,
    ExplorerDatabase,
    LabelRegistry,
    RateLimitError,
    VirtualClock,
)
from repro.explorer.api import ApiError


@pytest.fixture()
def api(chain: Blockchain) -> EtherscanAPI:
    return EtherscanAPI(
        database=ExplorerDatabase(chain),
        labels=LabelRegistry(),
        clock=VirtualClock(),
        rate_limit_per_second=1000,  # effectively off unless a test lowers it
    )


@pytest.fixture()
def busy_pair(chain: Blockchain):
    a, b = Address.derive("api:a"), Address.derive("api:b")
    chain.fund(a, ether(1000))
    for _ in range(25):
        chain.transfer(a, b, ether(1))
    return a, b


class TestTxList:
    def test_returns_rows(self, chain, api, busy_pair) -> None:
        a, _ = busy_pair
        rows = api.txlist(a)
        assert len(rows) == 25
        assert rows[0]["from"] == a.hex

    def test_pagination(self, chain, api, busy_pair) -> None:
        a, _ = busy_pair
        page1 = api.txlist(a, page=1, offset=10)
        page2 = api.txlist(a, page=2, offset=10)
        page3 = api.txlist(a, page=3, offset=10)
        assert len(page1) == 10 and len(page2) == 10 and len(page3) == 5
        assert {r["hash"] for r in page1}.isdisjoint({r["hash"] for r in page2})

    def test_sort_desc(self, chain, api, busy_pair) -> None:
        a, _ = busy_pair
        rows = api.txlist(a, sort="desc")
        blocks = [int(r["blockNumber"]) for r in rows]
        assert blocks == sorted(blocks, reverse=True)

    def test_block_range_filter(self, chain, api, busy_pair) -> None:
        a, _ = busy_pair
        all_rows = api.txlist(a)
        mid = int(all_rows[12]["blockNumber"])
        rows = api.txlist(a, startblock=mid, endblock=mid)
        assert len(rows) == 1

    def test_window_cap(self, chain, api, busy_pair) -> None:
        a, _ = busy_pair
        with pytest.raises(ApiError, match="window"):
            api.txlist(a, page=11, offset=1000)

    def test_bad_params(self, chain, api, busy_pair) -> None:
        a, _ = busy_pair
        with pytest.raises(ApiError):
            api.txlist(a, page=0)
        with pytest.raises(ApiError):
            api.txlist(a, sort="sideways")

    def test_string_address_is_parsed(self, chain, api, busy_pair) -> None:
        a, _ = busy_pair
        rows = api.txlist(a)
        assert api.txlist(a.hex) == rows
        assert api.txlist(a.hex.upper().replace("0X", "0x")) == rows
        assert api.txlist(a.checksum) == rows

    @pytest.mark.parametrize("bad", ["garbage", "0x1234", "0x" + "zz" * 20, ""])
    def test_malformed_address_is_an_api_error(self, chain, api, bad) -> None:
        with pytest.raises(ApiError, match="invalid address"):
            api.txlist(bad)

    def test_auto_syncs_new_blocks(self, chain, api, busy_pair) -> None:
        a, b = busy_pair
        before = len(api.txlist(a))
        chain.transfer(a, b, 1)
        assert len(api.txlist(a)) == before + 1


class TestRateLimit:
    def test_limit_enforced_and_recovers(self, chain, busy_pair) -> None:
        a, _ = busy_pair
        clock = VirtualClock()
        api = EtherscanAPI(
            database=ExplorerDatabase(chain),
            labels=LabelRegistry(),
            clock=clock,
            rate_limit_per_second=5,
        )
        for _ in range(5):
            api.txlist(a)
        with pytest.raises(RateLimitError):
            api.txlist(a)
        assert api.calls_rejected == 1
        clock.sleep(1.0)
        assert len(api.txlist(a)) == 25  # window reset


class TestLabels:
    def test_string_forms_find_the_same_label(self, chain, api) -> None:
        addr = Address.derive("exchange-hot-wallet")
        assert addr.checksum != addr.hex
        for form in (addr.checksum, addr.hex, addr):
            api.labels.tag(form, CATEGORY_CUSTODIAL_EXCHANGE)
        assert api.labels_in_category(CATEGORY_CUSTODIAL_EXCHANGE) == [addr.hex]

    def test_malformed_address_is_an_api_error(self, chain, api) -> None:
        with pytest.raises(ApiError, match="invalid address"):
            api.txlist("garbage")

    def test_category_lists(self, chain, api) -> None:
        registry = api.labels
        for i in range(3):
            registry.tag(Address.derive(f"cb:{i}"), CATEGORY_COINBASE)
        for i in range(4):
            registry.tag(Address.derive(f"ex:{i}"), CATEGORY_CUSTODIAL_EXCHANGE)
        coinbase = registry.addresses_in_category(CATEGORY_COINBASE)
        exchanges = registry.addresses_in_category(CATEGORY_CUSTODIAL_EXCHANGE)
        assert len(coinbase) == 3
        assert len(exchanges) == 4
        assert set(coinbase).isdisjoint(exchanges)
