"""The Faulty* endpoint wrappers: protocol-native, metered, invisible."""

from __future__ import annotations

import pytest

from repro.explorer.api import RateLimitError, VirtualClock
from repro.faults import (
    CorruptPayload,
    CrawlKilled,
    EndpointOutage,
    EndpointTimeout,
    FaultPlan,
    FaultyEtherscanAPI,
    FaultyOpenSeaAPI,
    FaultySubgraphEndpoint,
    TransientInjectedError,
)
from repro.faults.plan import EndpointFaultSpec, OutageBurst, RateStep
from repro.obs.metrics import MetricsRegistry


def _plan_of_kind(kind: str, endpoint: str) -> FaultPlan:
    return FaultPlan(
        seed=0,
        endpoints={
            endpoint: EndpointFaultSpec(
                error_rate=(RateStep(from_call=1, rate=1.0),),
                kinds={kind: 1.0},
            )
        },
    )


class _FakeSubgraphInner:
    """Minimal endpoint double: fixed rows, query log, gap list."""

    def __init__(self, rows=None) -> None:
        self.rows = rows if rows is not None else [{"id": "0x1"}, {"id": "0x2"}]
        self.queries: list[str] = []
        self.subgraph = object()

    def query(self, text: str) -> dict:
        self.queries.append(text)
        return {"data": {"domains": list(self.rows)}}

    def missing_domain_ids(self) -> list[str]:
        return ["0xgone"]


class TestFaultySubgraphEndpoint:
    def test_clean_plan_is_invisible(self) -> None:
        inner = _FakeSubgraphInner()
        wrapper = FaultySubgraphEndpoint(inner, FaultPlan.uniform(0.0))
        response = wrapper.query("{ domains }")
        assert response == {"data": {"domains": inner.rows}}
        assert inner.queries == ["{ domains }"]
        assert wrapper.missing_domain_ids() == ["0xgone"]
        assert wrapper.subgraph is inner.subgraph

    @pytest.mark.parametrize(
        ("kind", "message"),
        [
            ("error", "injected: service unavailable"),
            ("rate_limit", "injected: too many requests"),
            ("timeout", "injected: gateway timeout"),
            ("corrupt", "injected: corrupt page"),
        ],
    )
    def test_faults_arrive_as_error_envelopes(self, kind, message) -> None:
        inner = _FakeSubgraphInner()
        wrapper = FaultySubgraphEndpoint(inner, _plan_of_kind(kind, "subgraph"))
        response = wrapper.query("{ domains }")
        assert response == {"errors": [{"message": message}]}
        assert inner.queries == []  # the endpoint was never reached

    def test_truncation_keeps_at_least_one_row(self) -> None:
        for n_rows in range(1, 9):
            inner = _FakeSubgraphInner(rows=[{"id": f"0x{i}"} for i in range(n_rows)])
            wrapper = FaultySubgraphEndpoint(
                inner, _plan_of_kind("truncated", "subgraph")
            )
            rows = wrapper.query("{ domains }")["data"]["domains"]
            assert 1 <= len(rows) <= max(1, n_rows)
            # the kept prefix is exact — cursoring resumes after it
            assert rows == inner.rows[: len(rows)]

    def test_burst_outage_window(self) -> None:
        plan = FaultPlan(
            seed=0,
            endpoints={
                "subgraph": EndpointFaultSpec(
                    bursts=(OutageBurst(from_call=2, until_call=4),)
                )
            },
        )
        wrapper = FaultySubgraphEndpoint(_FakeSubgraphInner(), plan)
        assert "data" in wrapper.query("q1")
        assert "errors" in wrapper.query("q2")
        assert "errors" in wrapper.query("q3")
        assert "data" in wrapper.query("q4")

    def test_kill_raises_crawl_killed(self) -> None:
        plan = FaultPlan(
            seed=0,
            endpoints={"subgraph": EndpointFaultSpec(kill_at_call=2)},
        )
        wrapper = FaultySubgraphEndpoint(_FakeSubgraphInner(), plan)
        wrapper.query("q1")
        with pytest.raises(CrawlKilled):
            wrapper.query("q2")

    def test_metrics_account_every_call_and_fault(self) -> None:
        registry = MetricsRegistry()
        wrapper = FaultySubgraphEndpoint(
            _FakeSubgraphInner(),
            _plan_of_kind("error", "subgraph"),
            registry=registry,
        )
        for n in range(3):
            wrapper.query(f"q{n}")
        assert registry.value("endpoint_calls_total", endpoint="subgraph") == 3
        assert (
            registry.value(
                "fault_injected_total", endpoint="subgraph", kind="error"
            )
            == 3
        )
        assert wrapper.calls_seen == 3


class _FakeEtherscanInner:
    def __init__(self) -> None:
        self.clock = VirtualClock()
        self.calls: list[tuple] = []

    def txlist(self, **kwargs):
        self.calls.append(("txlist", kwargs))
        return [{"hash": "0xt"}]

    def txlistinternal(self, **kwargs):
        self.calls.append(("txlistinternal", kwargs))
        return []

    def labels_in_category(self, category):
        self.calls.append(("labels", category))
        return ["0xaddr"]

    def unrelated(self) -> str:
        return "delegated"


class TestFaultyEtherscanAPI:
    @pytest.mark.parametrize(
        ("kind", "exc_type"),
        [
            ("error", TransientInjectedError),
            ("timeout", EndpointTimeout),
            ("truncated", TransientInjectedError),
            ("corrupt", CorruptPayload),
        ],
    )
    def test_faults_arrive_as_exceptions(self, kind, exc_type) -> None:
        wrapper = FaultyEtherscanAPI(
            _FakeEtherscanInner(), _plan_of_kind(kind, "explorer")
        )
        with pytest.raises(exc_type):
            wrapper.txlist(address="0xa")

    def test_rate_limit_storm_reuses_real_error(self) -> None:
        """Injected throttling is indistinguishable from organic
        throttling — same exception type the real API raises."""
        wrapper = FaultyEtherscanAPI(
            _FakeEtherscanInner(), _plan_of_kind("rate_limit", "explorer")
        )
        with pytest.raises(RateLimitError):
            wrapper.labels_in_category("exchange")

    def test_burst_is_endpoint_outage(self) -> None:
        plan = FaultPlan(
            seed=0,
            endpoints={
                "explorer": EndpointFaultSpec(
                    bursts=(OutageBurst(from_call=1, until_call=2),)
                )
            },
        )
        wrapper = FaultyEtherscanAPI(_FakeEtherscanInner(), plan)
        with pytest.raises(EndpointOutage):
            wrapper.txlist(address="0xa")
        assert wrapper.txlist(address="0xa") == [{"hash": "0xt"}]

    def test_clean_calls_delegate_with_kwargs(self) -> None:
        inner = _FakeEtherscanInner()
        wrapper = FaultyEtherscanAPI(inner, FaultPlan.uniform(0.0))
        wrapper.txlist(address="0xa", page=2)
        wrapper.txlistinternal(address="0xa")
        wrapper.labels_in_category("exchange")
        assert [name for name, _ in inner.calls] == [
            "txlist", "txlistinternal", "labels",
        ]
        assert inner.calls[0][1] == {"address": "0xa", "page": 2}

    def test_clock_and_getattr_passthrough(self) -> None:
        inner = _FakeEtherscanInner()
        wrapper = FaultyEtherscanAPI(inner, FaultPlan.uniform(0.0))
        assert wrapper.clock is inner.clock
        assert wrapper.unrelated() == "delegated"

    def test_kill_at_call(self) -> None:
        plan = FaultPlan(
            seed=0, endpoints={"explorer": EndpointFaultSpec(kill_at_call=3)}
        )
        wrapper = FaultyEtherscanAPI(_FakeEtherscanInner(), plan)
        wrapper.txlist(address="0xa")
        wrapper.txlist(address="0xb")
        with pytest.raises(CrawlKilled):
            wrapper.txlist(address="0xc")


class _FakeOpenSeaInner:
    def __init__(self) -> None:
        self.calls: list[dict] = []

    def asset_events(self, **kwargs):
        self.calls.append(kwargs)
        return {"asset_events": [], "next": None}

    def listed(self) -> bool:
        return True


class TestFaultyOpenSeaAPI:
    def test_clean_delegation(self) -> None:
        inner = _FakeOpenSeaInner()
        wrapper = FaultyOpenSeaAPI(inner, FaultPlan.uniform(0.0))
        page = wrapper.asset_events(token_id="0xt", cursor=0)
        assert page == {"asset_events": [], "next": None}
        assert inner.calls == [{"token_id": "0xt", "cursor": 0}]
        assert wrapper.listed() is True

    def test_injected_exception(self) -> None:
        wrapper = FaultyOpenSeaAPI(
            _FakeOpenSeaInner(), _plan_of_kind("timeout", "opensea")
        )
        with pytest.raises(EndpointTimeout):
            wrapper.asset_events(token_id="0xt", cursor=0)

    def test_rate_limit_kind(self) -> None:
        wrapper = FaultyOpenSeaAPI(
            _FakeOpenSeaInner(), _plan_of_kind("rate_limit", "opensea")
        )
        with pytest.raises(RateLimitError):
            wrapper.asset_events(token_id="0xt", cursor=0)


class TestDeterminism:
    def test_identical_wrappers_fault_identically(self) -> None:
        """Two wrappers over equal plans inject the same fault sequence —
        the replayability contract of the chaos suite."""
        plan = FaultPlan.uniform(0.4, seed=99, endpoints=("explorer",))

        def fault_signature() -> list[str]:
            wrapper = FaultyEtherscanAPI(_FakeEtherscanInner(), plan)
            signature = []
            for n in range(60):
                try:
                    wrapper.txlist(address=f"0x{n}")
                    signature.append("ok")
                except Exception as exc:  # noqa: BLE001 - recording kinds
                    signature.append(type(exc).__name__)
            return signature

        first = fault_signature()
        assert any(entry != "ok" for entry in first)
        assert first == fault_signature()
