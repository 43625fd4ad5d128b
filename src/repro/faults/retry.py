"""The shared retry/backoff/circuit-breaker policy of every crawler client.

Each of the three crawler clients runs its endpoint calls through one
:class:`RetryingCaller`, so the §3 crawl has a single, testable answer
to "what happens when an endpoint misbehaves, and how is it counted":

* **The caller does the accounting.** Per ``client`` label it counts
  every attempt (``crawler_requests_total``), every retry
  (``crawler_retries_total``), the backoff slept
  (``crawler_backoff_seconds_total``) and every call that gave up
  (``crawler_failures_total``). A call that gives up raises
  :class:`CrawlError` (:class:`RetryExhausted` or
  :class:`RetryBudgetExhausted`), its message led by the client label.
  The clients keep only their endpoint logic and row/page counters.

* **Backoff is virtual-clock-driven and deterministic.** Delays come
  from :meth:`RetryPolicy.backoff` — capped exponential growth plus a
  *seeded* jitter that is a pure function of ``(seed, key, attempt)``.
  By construction the jittered sequence is monotone non-decreasing and
  bounded by ``max_backoff`` (jitter interpolates toward the next base
  delay, never past it), which the property suite in
  ``tests/faults/test_retry_properties.py`` pins down.
* **Total sleep is budgeted.** A logical call may retry at most
  ``max_attempts`` times *and* sleep at most ``budget_seconds`` in
  aggregate; exhausting the budget raises
  :class:`RetryBudgetExhausted` and bumps
  ``crawler_retry_budget_exhausted_total`` — a crawl can stall, but it
  can no longer sleep unboundedly.
* **Circuit breaking with half-open probing.** Consecutive non-rate-
  limit failures open the breaker; while open, calls are *never*
  admitted (the caller sleeps out the cooldown on the same virtual
  clock); after the cooldown exactly one probe is admitted half-open,
  and its outcome closes or re-opens the circuit. State is exported as
  the ``circuit_state`` gauge (0 closed / 1 open / 2 half-open).

Direct ``clock.sleep`` calls in crawler clients are forbidden by the
``retry-direct-sleep`` lint rule — this module is the only place the
crawl is allowed to wait.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from ..obs.metrics import MetricsRegistry

__all__ = [
    "CircuitBreaker",
    "CrawlError",
    "RetryBudgetExhausted",
    "RetryExhausted",
    "RetryPolicy",
    "RetryingCaller",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
]

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"

_STATE_CODES = {STATE_CLOSED: 0, STATE_OPEN: 1, STATE_HALF_OPEN: 2}


class Clock(Protocol):
    """The clock surface the retry layer needs (``VirtualClock`` fits)."""

    def now(self) -> float:
        """Current time in seconds."""

    def sleep(self, seconds: float) -> None:
        """Advance time by ``seconds``."""


class CrawlError(RuntimeError):
    """Base class: a crawler call gave up; the message names the client."""

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class RetryExhausted(CrawlError):
    """Every attempt allowed by ``max_attempts`` failed."""


class RetryBudgetExhausted(CrawlError):
    """The next backoff would exceed the per-call sleep budget."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Deterministic capped-exponential backoff with seeded jitter.

    ``max_attempts`` counts *attempts*, not retries: 1 means fail fast.
    """

    max_attempts: int = 9
    initial_backoff: float = 0.25
    multiplier: float = 2.0
    max_backoff: float = 30.0
    jitter: float = 0.1
    budget_seconds: float = 300.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.initial_backoff <= 0:
            raise ValueError("initial_backoff must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_backoff < self.initial_backoff:
            raise ValueError("max_backoff must be >= initial_backoff")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        if self.budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive")

    def base_backoff(self, attempt: int) -> float:
        """Un-jittered delay before retry ``attempt`` (0-based), capped."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        return min(
            self.initial_backoff * self.multiplier**attempt, self.max_backoff
        )

    def backoff(self, attempt: int, key: str) -> float:
        """Jittered delay before retry ``attempt`` for logical call ``key``.

        The jitter interpolates from this attempt's base delay toward
        the *next* attempt's base delay, so the sequence stays monotone
        non-decreasing and never exceeds ``max_backoff`` — while two
        different keys (or seeds) still decorrelate their retry storms.
        """
        from .plan import deterministic_uniform  # a clean crawl never retries

        base = self.base_backoff(attempt)
        span = self.base_backoff(attempt + 1) - base
        draw = deterministic_uniform(self.seed, "backoff", key, attempt)
        return base + self.jitter * draw * span

    def backoff_sequence(self, key: str, attempts: int) -> list[float]:
        """The first ``attempts`` jittered delays for ``key`` (for tests)."""
        return [self.backoff(attempt, key) for attempt in range(attempts)]


@dataclass
class CircuitBreaker:
    """A per-endpoint circuit with closed → open → half-open transitions."""

    clock: Clock
    failure_threshold: int = 5
    cooldown_seconds: float = 30.0
    registry: MetricsRegistry | None = None
    client: str = "default"

    _state: str = field(default=STATE_CLOSED, repr=False)
    _consecutive_failures: int = field(default=0, repr=False)
    _opened_at: float = field(default=0.0, repr=False)
    _probe_in_flight: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_seconds <= 0:
            raise ValueError("cooldown_seconds must be positive")
        if self.registry is None:
            self.registry = MetricsRegistry()
        self._state_gauge = self.registry.gauge(
            "circuit_state",
            "Circuit state per client (0 closed, 1 open, 2 half-open)",
            labels=("client",),
        ).labels(client=self.client)
        self._transitions = self.registry.counter(
            "circuit_transitions_total",
            "Circuit state transitions",
            labels=("client", "state"),
        )
        self._state_gauge.set(_STATE_CODES[self._state])

    @property
    def state(self) -> str:
        """Current state name (``closed`` / ``open`` / ``half_open``)."""
        return self._state

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        self._state_gauge.set(_STATE_CODES[state])
        self._transitions.labels(client=self.client, state=state).inc()

    def allow(self) -> bool:
        """Whether a call may proceed now.

        While open and inside the cooldown this is *always* False.
        The first permission after the cooldown is the half-open probe;
        further calls are refused until the probe reports its outcome.
        """
        if self._state == STATE_CLOSED:
            return True
        if self._state == STATE_OPEN:
            if self.clock.now() - self._opened_at >= self.cooldown_seconds:
                self._transition(STATE_HALF_OPEN)
                self._probe_in_flight = True
                return True
            return False
        # half-open: exactly one probe at a time
        if not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        return False

    def seconds_until_probe(self) -> float:
        """Virtual seconds until an open circuit will admit its probe."""
        if self._state != STATE_OPEN:
            return 0.0
        remaining = self._opened_at + self.cooldown_seconds - self.clock.now()
        return max(0.0, remaining)

    def record_success(self) -> None:
        """Report a successful call: closes the circuit."""
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self._transition(STATE_CLOSED)

    def record_exempt(self) -> None:
        """Report a failure that must not count (rate-limit flow control).

        Ends any half-open probe without re-opening the circuit so the
        next attempt can probe again.
        """
        self._probe_in_flight = False

    def record_failure(self) -> None:
        """Report a failed call: trips the circuit at the threshold."""
        self._probe_in_flight = False
        if self._state == STATE_HALF_OPEN:
            # the probe failed: straight back to open, fresh cooldown
            self._opened_at = self.clock.now()
            self._transition(STATE_OPEN)
            return
        self._consecutive_failures += 1
        if (
            self._state == STATE_CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._opened_at = self.clock.now()
            self._transition(STATE_OPEN)


@dataclass
class RetryingCaller:
    """Executes logical calls under one policy, breaker, and metric set.

    ``breaker_exempt`` exceptions (rate limits) are retried but do not
    count as circuit failures — throttling is flow control, not an
    outage, and must never trip the breaker.
    """

    policy: RetryPolicy
    clock: Clock
    client: str = "client"
    registry: MetricsRegistry | None = None
    breaker: CircuitBreaker | None = None

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = MetricsRegistry()

        def counter(name: str, description: str) -> Any:
            family = self.registry.counter(name, description, labels=("client",))
            return family.labels(client=self.client)

        self._requests = counter("crawler_requests_total", "API calls issued")
        self._retries = counter(
            "crawler_retries_total", "Calls retried (any retryable error)"
        )
        self._backoff_seconds = counter(
            "crawler_backoff_seconds_total",
            "Total backoff sleep against the API clock",
        )
        self._budget_exhausted = counter(
            "crawler_retry_budget_exhausted_total",
            "Logical calls abandoned because the retry sleep budget ran out",
        )
        self._failures = counter(
            "crawler_failures_total",
            "Calls abandoned after exhausting the retry budget",
        )

    def _wait_for_breaker(self) -> None:
        breaker = self.breaker
        if breaker is None:
            return
        while not breaker.allow():
            wait = breaker.seconds_until_probe()
            # half-open with a probe already in flight cannot happen in
            # the single-threaded crawl; guard with a minimal step anyway
            self.clock.sleep(max(wait, 0.001))

    def call(
        self,
        fn: Callable[..., Any],
        *,
        key: str,
        retryable: tuple[type[BaseException], ...],
        breaker_exempt: tuple[type[BaseException], ...] = (),
        **kwargs: Any,
    ) -> Any:
        """Run ``fn(**kwargs)`` retrying ``retryable`` failures.

        ``key`` names the logical call (it seeds the jitter stream).
        Every attempt counts as one request. Raises
        :class:`RetryExhausted` or :class:`RetryBudgetExhausted` when
        the call gives up, counting one failure and chaining the last
        underlying error.
        """
        slept = 0.0
        attempt = 0
        while True:
            self._wait_for_breaker()
            self._requests.inc()
            try:
                result = fn(**kwargs)
            except retryable as exc:
                if self.breaker is not None:
                    if isinstance(exc, breaker_exempt):
                        self.breaker.record_exempt()
                    else:
                        self.breaker.record_failure()
                attempt += 1
                if attempt >= self.policy.max_attempts:
                    self._failures.inc()
                    raise RetryExhausted(
                        f"{self.client}: gave up after {attempt} attempts: {exc}",
                        attempts=attempt,
                    ) from exc
                delay = self.policy.backoff(attempt - 1, key)
                if slept + delay > self.policy.budget_seconds:
                    self._budget_exhausted.inc()
                    self._failures.inc()
                    raise RetryBudgetExhausted(
                        f"{self.client}: retry sleep budget of"
                        f" {self.policy.budget_seconds:g}s exhausted after"
                        f" {attempt} attempts ({exc})",
                        attempts=attempt,
                    ) from exc
                self._retries.inc()
                self._backoff_seconds.inc(delay)
                self.clock.sleep(delay)
                slept += delay
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return result
