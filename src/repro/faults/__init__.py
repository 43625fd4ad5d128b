"""Deterministic fault injection + the crawl's shared resilience policy.

Three pieces, one contract:

* :mod:`repro.faults.plan` — seeded :class:`FaultPlan`s whose per-call
  decisions are pure functions of ``(seed, endpoint, call_index)``.
* :mod:`repro.faults.injectors` — ``Faulty*`` wrappers that interpose
  on the subgraph / explorer / marketplace endpoints invisibly.
* :mod:`repro.faults.retry` — the one retry/backoff/circuit-breaker
  implementation every crawler client uses (and the only module
  allowed to sleep the crawl's clock, per the ``retry-direct-sleep``
  lint rule).

The contract, proven by ``tests/faults/``: a crawl under any surviving
fault plan produces the same dataset and coverage report as the clean
crawl, and repeated runs of the same plan are bit-for-bit identical.
"""

from .errors import (
    CorruptPayload,
    CrawlKilled,
    EndpointOutage,
    EndpointTimeout,
    TransientInjectedError,
    TruncatedPayload,
)
from .injectors import (
    FaultyEtherscanAPI,
    FaultyOpenSeaAPI,
    FaultySubgraphEndpoint,
)
from .plan import (
    FAULT_KINDS,
    EndpointFaultSpec,
    Fault,
    FaultPlan,
    OutageBurst,
    RateStep,
    deterministic_uniform,
    load_plan,
)
from .retry import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    RetryBudgetExhausted,
    RetryError,
    RetryExhausted,
    RetryPolicy,
    RetryingCaller,
)

__all__ = [
    "CircuitBreaker",
    "CorruptPayload",
    "CrawlKilled",
    "EndpointFaultSpec",
    "EndpointOutage",
    "EndpointTimeout",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultyEtherscanAPI",
    "FaultyOpenSeaAPI",
    "FaultySubgraphEndpoint",
    "OutageBurst",
    "RateStep",
    "RetryBudgetExhausted",
    "RetryError",
    "RetryExhausted",
    "RetryPolicy",
    "RetryingCaller",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "TransientInjectedError",
    "TruncatedPayload",
    "deterministic_uniform",
    "load_plan",
]
