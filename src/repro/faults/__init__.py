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

from .._lazy import lazy_exports
from .errors import (
    CorruptPayload,
    CrawlKilled,
    EndpointOutage,
    EndpointTimeout,
    TransientInjectedError,
    TruncatedPayload,
)
from .retry import CircuitBreaker, CrawlError, RetryPolicy, RetryingCaller

# a crawl without a fault plan builds no plan and wraps no endpoint
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "injectors": (
            "FaultyEtherscanAPI",
            "FaultyOpenSeaAPI",
            "FaultySubgraphEndpoint",
        ),
        "plan": ("Fault", "FaultPlan", "deterministic_uniform", "load_plan"),
    },
)

__all__ = [
    "CircuitBreaker",
    "CorruptPayload",
    "CrawlError",
    "CrawlKilled",
    "EndpointOutage",
    "EndpointTimeout",
    "Fault",
    "FaultPlan",
    "FaultyEtherscanAPI",
    "FaultyOpenSeaAPI",
    "FaultySubgraphEndpoint",
    "RetryPolicy",
    "RetryingCaller",
    "TransientInjectedError",
    "TruncatedPayload",
    "deterministic_uniform",
    "load_plan",
]
