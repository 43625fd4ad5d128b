"""Property suite for the shared retry policy and circuit breaker.

Seeded ``random.Random`` generators stand in for a property-testing
framework: each test samples a few hundred random policies / failure
scripts and asserts the invariant on every one. A failing case prints
the sampled parameters, which (thanks to the fixed generator seed) is
enough to replay it exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.explorer.api import VirtualClock
from repro.faults import CircuitBreaker, RetryPolicy, RetryingCaller
from repro.faults.retry import (
    RetryBudgetExhausted,
    RetryExhausted,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.obs.metrics import MetricsRegistry


def _random_policy(rng: random.Random, **overrides) -> RetryPolicy:
    initial = rng.uniform(0.01, 5.0)
    params = dict(
        max_attempts=rng.randrange(1, 12),
        initial_backoff=initial,
        multiplier=rng.uniform(1.0, 4.0),
        max_backoff=initial * rng.uniform(1.0, 50.0),
        jitter=rng.random(),
        budget_seconds=rng.uniform(1.0, 1000.0),
        seed=rng.randrange(2**32),
    )
    params.update(overrides)
    return RetryPolicy(**params)


def _backoffs(policy: RetryPolicy, key: str, attempts: int) -> list[float]:
    """The first ``attempts`` jittered delays ``policy`` waits for ``key``."""
    return [policy.backoff(attempt, key) for attempt in range(attempts)]


class TestBackoffProperties:
    def test_monotone_nondecreasing(self) -> None:
        rng = random.Random(101)
        for case in range(300):
            policy = _random_policy(rng)
            key = f"call:{case}"
            seq = _backoffs(policy, key, 12)
            assert seq == sorted(seq), (policy, key, seq)

    def test_bounded_by_max_backoff(self) -> None:
        rng = random.Random(202)
        for case in range(300):
            policy = _random_policy(rng)
            for attempt, delay in enumerate(
                _backoffs(policy, f"k:{case}", 15)
            ):
                assert 0.0 < delay <= policy.max_backoff, (policy, attempt)

    def test_never_below_base(self) -> None:
        rng = random.Random(303)
        for case in range(200):
            policy = _random_policy(rng)
            for attempt in range(10):
                assert policy.backoff(attempt, f"k:{case}") >= (
                    policy.base_backoff(attempt)
                )

    def test_deterministic_per_seed_and_key(self) -> None:
        rng = random.Random(404)
        for case in range(200):
            policy = _random_policy(rng)
            twin = RetryPolicy(
                max_attempts=policy.max_attempts,
                initial_backoff=policy.initial_backoff,
                multiplier=policy.multiplier,
                max_backoff=policy.max_backoff,
                jitter=policy.jitter,
                budget_seconds=policy.budget_seconds,
                seed=policy.seed,
            )
            key = f"call:{case}"
            assert _backoffs(policy, key, 10) == _backoffs(twin, key, 10)

    def test_keys_decorrelate_jitter(self) -> None:
        policy = RetryPolicy(jitter=1.0, seed=7)
        assert _backoffs(policy, "a", 8) != _backoffs(policy, "b", 8)

    def test_zero_jitter_equals_base_schedule(self) -> None:
        policy = RetryPolicy(jitter=0.0)
        assert _backoffs(policy, "any", 10) == [
            policy.base_backoff(attempt) for attempt in range(10)
        ]

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(initial_backoff=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_backoff=0.1, initial_backoff=0.25)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(budget_seconds=0.0)


class _Flaky:
    """Fails the first ``failures`` calls, then succeeds forever."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = 0

    def __call__(self) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise TimeoutError(f"flake #{self.calls}")
        return "ok"


def _caller(policy: RetryPolicy, breaker: CircuitBreaker | None = None):
    clock = VirtualClock()
    registry = MetricsRegistry()
    caller = RetryingCaller(
        policy=policy,
        clock=clock,
        client="test",
        registry=registry,
        breaker=breaker,
    )
    return caller, clock, registry


class TestRetryingCaller:
    def test_eventual_success_returns_value(self) -> None:
        rng = random.Random(11)
        for _ in range(100):
            failures = rng.randrange(0, 5)
            policy = _random_policy(
                rng, max_attempts=failures + 1 + rng.randrange(1, 4),
                budget_seconds=10_000.0,
            )
            caller, clock, _ = _caller(policy)
            flaky = _Flaky(failures)
            result = caller.call(flaky, key="k", retryable=(TimeoutError,))
            assert result == "ok"
            assert flaky.calls == failures + 1

    def test_exhaustion_counts_attempts(self) -> None:
        policy = RetryPolicy(max_attempts=4, budget_seconds=10_000.0)
        caller, _, _ = _caller(policy)
        flaky = _Flaky(99)
        with pytest.raises(RetryExhausted) as err:
            caller.call(flaky, key="k", retryable=(TimeoutError,))
        assert err.value.attempts == 4
        assert flaky.calls == 4

    def test_non_retryable_raises_through(self) -> None:
        caller, _, _ = _caller(RetryPolicy())
        with pytest.raises(ValueError):
            caller.call(
                lambda: (_ for _ in ()).throw(ValueError("nope")),
                key="k",
                retryable=(TimeoutError,),
            )

    def test_slept_time_matches_backoff_schedule(self) -> None:
        policy = RetryPolicy(max_attempts=5, jitter=0.0, budget_seconds=1e6)
        caller, clock, registry = _caller(policy)
        caller.call(_Flaky(3), key="k", retryable=(TimeoutError,))
        expected = sum(policy.base_backoff(attempt) for attempt in range(3))
        assert clock.slept_total == pytest.approx(expected)
        assert registry.value(
            "crawler_backoff_seconds_total", client="test"
        ) == pytest.approx(expected)
        assert registry.value("crawler_retries_total", client="test") == 3

    def test_budget_ceiling_bounds_total_sleep(self) -> None:
        """The fixed bug: total virtual sleep can no longer grow without
        bound — the budget cuts the retry loop off."""
        rng = random.Random(77)
        for _ in range(60):
            policy = _random_policy(
                rng,
                max_attempts=12,
                budget_seconds=rng.uniform(0.5, 20.0),
            )
            caller, clock, registry = _caller(policy)
            with pytest.raises((RetryBudgetExhausted, RetryExhausted)):
                caller.call(_Flaky(99), key="k", retryable=(TimeoutError,))
            assert clock.slept_total <= policy.budget_seconds

    def test_budget_exhaustion_is_counted(self) -> None:
        policy = RetryPolicy(
            max_attempts=50, initial_backoff=10.0, budget_seconds=25.0,
            jitter=0.0,
        )
        caller, _, registry = _caller(policy)
        with pytest.raises(RetryBudgetExhausted):
            caller.call(_Flaky(99), key="k", retryable=(TimeoutError,))
        assert registry.value(
            "crawler_retry_budget_exhausted_total", client="test"
        ) == 1

    def test_deterministic_replay(self) -> None:
        def run() -> float:
            policy = RetryPolicy(max_attempts=8, seed=5, budget_seconds=1e6)
            caller, clock, _ = _caller(policy)
            caller.call(_Flaky(5), key="page:3", retryable=(TimeoutError,))
            return clock.slept_total

        assert run() == run()


class TestCircuitBreaker:
    def _breaker(self, threshold: int = 3, cooldown: float = 30.0):
        clock = VirtualClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            clock=clock,
            failure_threshold=threshold,
            cooldown_seconds=cooldown,
            registry=registry,
            client="test",
        )
        return breaker, clock, registry

    def test_opens_at_threshold(self) -> None:
        breaker, _, registry = self._breaker(threshold=3)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert registry.value("circuit_state", client="test") == 1

    def test_never_admits_while_open(self) -> None:
        """Property: inside the cooldown window an open circuit refuses
        every single call, no matter how many are attempted."""
        rng = random.Random(55)
        for _ in range(100):
            cooldown = rng.uniform(1.0, 120.0)
            breaker, clock, _ = self._breaker(threshold=1, cooldown=cooldown)
            breaker.record_failure()
            assert breaker.state == STATE_OPEN
            elapsed = 0.0
            while True:
                step = rng.uniform(0.0, cooldown / 4)
                if elapsed + step >= cooldown:
                    break
                clock.sleep(step)
                elapsed += step
                assert breaker.allow() is False, (cooldown, elapsed)

    def test_probe_after_cooldown(self) -> None:
        breaker, clock, _ = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure()
        assert breaker.allow() is False
        clock.sleep(30.0)
        assert breaker.allow() is True  # the half-open probe
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.allow() is False  # only one probe at a time

    def test_probe_success_closes(self) -> None:
        breaker, clock, registry = self._breaker(threshold=1)
        breaker.record_failure()
        clock.sleep(30.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert registry.value("circuit_state", client="test") == 0

    def test_probe_failure_reopens_with_fresh_cooldown(self) -> None:
        breaker, clock, _ = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure()
        clock.sleep(30.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.seconds_until_probe() == pytest.approx(30.0)

    def test_success_resets_failure_streak(self) -> None:
        breaker, _, _ = self._breaker(threshold=3)
        for _ in range(50):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
            assert breaker.state == STATE_CLOSED

    def test_exempt_failures_never_trip(self) -> None:
        breaker, _, _ = self._breaker(threshold=1)
        for _ in range(100):
            breaker.record_exempt()
        assert breaker.state == STATE_CLOSED

    def test_transitions_are_counted(self) -> None:
        breaker, clock, registry = self._breaker(threshold=1)
        breaker.record_failure()
        clock.sleep(30.0)
        breaker.allow()
        breaker.record_success()
        assert registry.value(
            "circuit_transitions_total", client="test", state="open"
        ) == 1
        assert registry.value(
            "circuit_transitions_total", client="test", state="half_open"
        ) == 1
        assert registry.value(
            "circuit_transitions_total", client="test", state="closed"
        ) == 1

    def test_validation(self) -> None:
        clock = VirtualClock()
        with pytest.raises(ValueError):
            CircuitBreaker(clock=clock, failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock=clock, cooldown_seconds=0.0)


class TestCallerWithBreaker:
    def test_open_circuit_blocks_calls_until_probe(self) -> None:
        clock = VirtualClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            clock=clock, failure_threshold=2, cooldown_seconds=30.0,
            registry=registry, client="test",
        )
        policy = RetryPolicy(max_attempts=9, jitter=0.0, budget_seconds=1e6)
        caller = RetryingCaller(
            policy=policy, clock=clock, client="test",
            registry=registry, breaker=breaker,
        )
        flaky = _Flaky(3)
        result = caller.call(flaky, key="k", retryable=(TimeoutError,))
        assert result == "ok"
        # failures 1 and 2 trip the breaker; the 3rd attempt must wait
        # out the 30s cooldown (on top of backoff sleeps), probe, fail,
        # re-open, wait again, probe again, and succeed.
        assert clock.slept_total >= 60.0
        assert breaker.state == STATE_CLOSED

    def test_rate_limit_exempt_does_not_trip(self) -> None:
        class RateLimited(Exception):
            pass

        clock = VirtualClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            clock=clock, failure_threshold=2, cooldown_seconds=1e6,
            registry=registry, client="test",
        )
        policy = RetryPolicy(max_attempts=9, budget_seconds=1e6)
        caller = RetryingCaller(
            policy=policy, clock=clock, client="test",
            registry=registry, breaker=breaker,
        )

        calls = {"n": 0}

        def throttled() -> str:
            calls["n"] += 1
            if calls["n"] <= 6:
                raise RateLimited()
            return "ok"

        result = caller.call(
            throttled,
            key="k",
            retryable=(RateLimited,),
            breaker_exempt=(RateLimited,),
        )
        assert result == "ok"
        assert breaker.state == STATE_CLOSED
