"""FaultPlan: pure-function decisions, schedules, (de)serialization."""

from __future__ import annotations

import random

import pytest

from repro.faults import Fault, FaultPlan, deterministic_uniform, load_plan
from repro.faults.plan import FAULT_KINDS, EndpointFaultSpec, OutageBurst, RateStep


class TestDeterministicUniform:
    def test_in_unit_interval(self) -> None:
        rng = random.Random(1)
        for _ in range(500):
            seed = rng.randrange(2**32)
            draw = deterministic_uniform(seed, "ep", rng.randrange(10_000))
            assert 0.0 <= draw < 1.0

    def test_pure_function_of_inputs(self) -> None:
        assert deterministic_uniform(7, "explorer", 3) == deterministic_uniform(
            7, "explorer", 3
        )

    def test_sensitive_to_every_component(self) -> None:
        base = deterministic_uniform(7, "explorer", 3)
        assert deterministic_uniform(8, "explorer", 3) != base
        assert deterministic_uniform(7, "subgraph", 3) != base
        assert deterministic_uniform(7, "explorer", 4) != base

    def test_roughly_uniform(self) -> None:
        draws = [deterministic_uniform(0, "u", n) for n in range(1, 4001)]
        mean = sum(draws) / len(draws)
        assert 0.47 < mean < 0.53


class TestRateSchedule:
    def test_step_schedule_takes_latest_applicable(self) -> None:
        spec = EndpointFaultSpec(
            error_rate=(
                RateStep(from_call=1, rate=0.0),
                RateStep(from_call=10, rate=0.5),
                RateStep(from_call=20, rate=0.1),
            )
        )
        assert spec.rate_at(1) == 0.0
        assert spec.rate_at(9) == 0.0
        assert spec.rate_at(10) == 0.5
        assert spec.rate_at(19) == 0.5
        assert spec.rate_at(20) == 0.1
        assert spec.rate_at(10_000) == 0.1

    def test_steps_sorted_regardless_of_input_order(self) -> None:
        spec = EndpointFaultSpec(
            error_rate=(
                RateStep(from_call=20, rate=0.9),
                RateStep(from_call=1, rate=0.1),
            )
        )
        assert spec.rate_at(5) == 0.1
        assert spec.rate_at(25) == 0.9

    def test_default_rate_is_zero(self) -> None:
        assert EndpointFaultSpec().rate_at(1) == 0.0


class TestValidation:
    def test_rate_bounds(self) -> None:
        with pytest.raises(ValueError):
            RateStep(from_call=1, rate=1.5)
        with pytest.raises(ValueError):
            RateStep(from_call=0, rate=0.5)

    def test_burst_window(self) -> None:
        with pytest.raises(ValueError):
            OutageBurst(from_call=5, until_call=5)
        with pytest.raises(ValueError):
            OutageBurst(from_call=0, until_call=3)

    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown fault kind"):
            EndpointFaultSpec(kinds={"meteor": 1.0})

    def test_negative_weight_rejected(self) -> None:
        with pytest.raises(ValueError):
            EndpointFaultSpec(kinds={"error": -1.0})

    def test_kill_index_is_one_based(self) -> None:
        with pytest.raises(ValueError):
            EndpointFaultSpec(kill_at_call=0)

    def test_decide_rejects_zero_call_index(self) -> None:
        with pytest.raises(ValueError):
            FaultPlan().decide("explorer", 0)


class TestDecide:
    def test_unknown_endpoint_never_faults(self) -> None:
        plan = FaultPlan.uniform(1.0, endpoints=("explorer",))
        assert plan.decide("subgraph", 1) is None

    def test_rate_one_always_faults(self) -> None:
        plan = FaultPlan.uniform(1.0, seed=3, endpoints=("explorer",))
        for call in range(1, 50):
            fault = plan.decide("explorer", call)
            assert isinstance(fault, Fault)
            assert fault.kind in FAULT_KINDS

    def test_rate_zero_never_faults(self) -> None:
        plan = FaultPlan.uniform(0.0, seed=3)
        assert all(
            plan.decide(ep, call) is None
            for ep in ("subgraph", "explorer", "opensea")
            for call in range(1, 200)
        )

    def test_decisions_are_pure(self) -> None:
        """Same (seed, endpoint, call) -> same decision, on any instance,
        in any consultation order."""
        plan_a = FaultPlan.uniform(0.3, seed=11)
        plan_b = FaultPlan.uniform(0.3, seed=11)
        forward = [plan_a.decide("explorer", n) for n in range(1, 301)]
        backward = [plan_b.decide("explorer", n) for n in reversed(range(1, 301))]
        assert forward == list(reversed(backward))

    def test_interleaving_does_not_shift_decisions(self) -> None:
        """Consulting another endpoint between calls changes nothing —
        the property random.Random streams do NOT have."""
        plan = FaultPlan.uniform(0.3, seed=5)
        alone = [plan.decide("explorer", n) for n in range(1, 101)]
        interleaved = []
        for n in range(1, 101):
            plan.decide("subgraph", n)
            interleaved.append(plan.decide("explorer", n))
            plan.decide("opensea", n)
        assert alone == interleaved

    def test_empirical_rate_close_to_configured(self) -> None:
        plan = FaultPlan.uniform(0.25, seed=9, endpoints=("explorer",))
        hits = sum(
            plan.decide("explorer", n) is not None for n in range(1, 8001)
        )
        assert 0.22 < hits / 8000 < 0.28

    def test_burst_overrides_rate(self) -> None:
        spec = EndpointFaultSpec(
            error_rate=(RateStep(from_call=1, rate=0.0),),
            bursts=(OutageBurst(from_call=10, until_call=15),),
        )
        plan = FaultPlan(seed=0, endpoints={"explorer": spec})
        assert plan.decide("explorer", 9) is None
        for call in range(10, 15):
            fault = plan.decide("explorer", call)
            assert fault is not None and fault.kind == "outage"
        assert plan.decide("explorer", 15) is None

    def test_kill_has_highest_precedence(self) -> None:
        spec = EndpointFaultSpec(
            bursts=(OutageBurst(from_call=1, until_call=100),),
            kill_at_call=50,
        )
        plan = FaultPlan(seed=0, endpoints={"explorer": spec})
        assert plan.decide("explorer", 49).kind == "outage"
        assert plan.decide("explorer", 50).kind == "kill"
        assert plan.decide("explorer", 51).kind == "outage"

    def test_zero_weight_kind_never_chosen(self) -> None:
        plan = FaultPlan.uniform(
            1.0,
            seed=2,
            endpoints=("explorer",),
            kinds={"error": 0.0, "timeout": 1.0},
        )
        kinds = {plan.decide("explorer", n).kind for n in range(1, 500)}
        assert kinds == {"timeout"}

    def test_kind_mix_follows_weights(self) -> None:
        plan = FaultPlan.uniform(
            1.0,
            seed=4,
            endpoints=("explorer",),
            kinds={"error": 3.0, "rate_limit": 1.0},
        )
        drawn = [plan.decide("explorer", n).kind for n in range(1, 4001)]
        share = drawn.count("error") / len(drawn)
        assert 0.70 < share < 0.80


class TestSerialization:
    def _rich_plan(self) -> FaultPlan:
        return FaultPlan(
            seed=42,
            endpoints={
                "explorer": EndpointFaultSpec(
                    error_rate=(
                        RateStep(from_call=1, rate=0.05),
                        RateStep(from_call=100, rate=0.5),
                    ),
                    kinds={"error": 2.0, "rate_limit": 1.0, "timeout": 1.0},
                    bursts=(OutageBurst(from_call=40, until_call=55),),
                    kill_at_call=200,
                ),
                "subgraph": EndpointFaultSpec(
                    error_rate=(RateStep(from_call=1, rate=0.1),)
                ),
            },
        )

    def test_round_trip_preserves_decisions(self) -> None:
        plan = self._rich_plan()
        clone = FaultPlan.from_dict(plan.to_dict())
        for endpoint in ("explorer", "subgraph", "opensea"):
            for call in range(1, 300):
                assert plan.decide(endpoint, call) == clone.decide(endpoint, call)

    def test_json_is_stable(self) -> None:
        plan = self._rich_plan()
        assert plan.to_json() == FaultPlan.from_dict(plan.to_dict()).to_json()

    def test_load_plan_from_file(self, tmp_path) -> None:
        plan = self._rich_plan()
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        loaded = load_plan(path)
        assert loaded.to_dict() == plan.to_dict()

    def test_uniform_covers_default_endpoints(self) -> None:
        plan = FaultPlan.uniform(0.5, seed=1)
        assert sorted(plan.endpoints) == ["explorer", "opensea", "subgraph"]
