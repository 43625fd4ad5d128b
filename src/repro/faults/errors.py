"""Exception taxonomy of the fault-injection subsystem.

Injected faults surface as exceptions the hardened crawler clients
classify in exactly two buckets:

* :class:`TransientInjectedError` subclasses — retryable operational
  hazards (a timeout, a truncated or corrupt response body, a burst
  outage). The shared retry policy treats them like a rate limit:
  back off and try again.
* :class:`CrawlKilled` — *not* retryable. It models the process dying
  mid-crawl (OOM kill, spot-instance preemption, ctrl-C) and is meant
  to unwind the whole pipeline so a later run exercises
  checkpoint/resume.

Rate-limit storms are injected as the explorer API's real
``RateLimitError`` so clients cannot distinguish injected throttling
from organic throttling — the wrappers stay invisible.
"""

from __future__ import annotations

__all__ = [
    "CrawlKilled",
    "CorruptPayload",
    "EndpointOutage",
    "EndpointTimeout",
    "TransientInjectedError",
    "TruncatedPayload",
]


class InjectedFaultError(Exception):
    """Base class for every exception raised by a fault injector."""


class TransientInjectedError(InjectedFaultError):
    """A retryable injected hazard; clients must back off and retry."""


class EndpointTimeout(TransientInjectedError):
    """The (simulated) request hit its client-side deadline."""


class EndpointOutage(TransientInjectedError):
    """The endpoint is inside an injected total-outage burst."""


class TruncatedPayload(TransientInjectedError):
    """The response body was cut off mid-stream (unparseable)."""


class CorruptPayload(TransientInjectedError):
    """The response parsed but failed integrity checks (garbage rows)."""


class CrawlKilled(InjectedFaultError):
    """The crawl process was killed mid-run (no retry; resume instead)."""
