"""Seeded, fully deterministic fault plans.

A :class:`FaultPlan` decides — per endpoint, per call — whether the
call fails and how. The decision for call ``n`` against endpoint ``e``
is a pure function of ``(plan.seed, e, n)``: it does not depend on
wall time, on interleaving with other endpoints, or on how many times
the plan object has been consulted before. That property is what makes
chaos runs replayable bit-for-bit and lets the test suite assert
*zero* fault-injection nondeterminism across repeated runs.

Plan anatomy (JSON-serializable, see ``docs/ROBUSTNESS.md``)::

    {
      "seed": 42,
      "endpoints": {
        "explorer": {
          "error_rate": [{"from_call": 1, "rate": 0.25}],
          "kinds": {"rate_limit": 2, "timeout": 1, "corrupt": 1},
          "bursts": [{"from_call": 40, "until_call": 55}],
          "kill_at_call": 120
        }
      }
    }

* ``error_rate`` is a step schedule: the entry with the greatest
  ``from_call`` that is ``<= n`` gives the Bernoulli rate for call
  ``n``.
* ``kinds`` weights the fault menu drawn from when a call fails.
* ``bursts`` are total outages over call-index windows
  (``from_call <= n < until_call``) — every call inside fails.
* ``kill_at_call`` simulates process death at exactly one call.

Call indices are 1-based and counted per endpoint by the injector
wrappers in :mod:`repro.faults.injectors`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "Fault",
    "FaultPlan",
    "deterministic_uniform",
    "load_plan",
]

KIND_ERROR = "error"
KIND_RATE_LIMIT = "rate_limit"
KIND_TIMEOUT = "timeout"
KIND_TRUNCATED = "truncated"
KIND_CORRUPT = "corrupt"
KIND_OUTAGE = "outage"
KIND_KILL = "kill"

#: Every fault kind a plan may inject (bursts add "outage", kills "kill").
FAULT_KINDS = (
    KIND_ERROR,
    KIND_RATE_LIMIT,
    KIND_TIMEOUT,
    KIND_TRUNCATED,
    KIND_CORRUPT,
)


def deterministic_uniform(seed: int, *key: object) -> float:
    """A uniform draw in ``[0, 1)`` that is a pure function of its inputs.

    Hashes ``(seed, *key)`` with BLAKE2b and scales the 64-bit digest;
    unlike ``random.Random`` there is no hidden stream position, so the
    draw for one call never shifts when another call site is added.
    """
    digest = blake2b(repr((seed,) + key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True, slots=True)
class Fault:
    """One injected fault decision: what kind, and a human-readable why."""

    kind: str
    detail: str = ""


@dataclass(frozen=True, slots=True)
class RateStep:
    """One step of an error-rate schedule: ``rate`` from ``from_call`` on."""

    from_call: int
    rate: float

    def __post_init__(self) -> None:
        if self.from_call < 1:
            raise ValueError("from_call is 1-based and must be >= 1")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")


@dataclass(frozen=True, slots=True)
class OutageBurst:
    """A total outage over the call window ``[from_call, until_call)``."""

    from_call: int
    until_call: int
    kind: str = KIND_OUTAGE

    def __post_init__(self) -> None:
        if self.from_call < 1 or self.until_call <= self.from_call:
            raise ValueError("burst window must satisfy 1 <= from_call < until_call")

    def covers(self, call_index: int) -> bool:
        """Whether 1-based ``call_index`` falls inside the window."""
        return self.from_call <= call_index < self.until_call


@dataclass(frozen=True)
class EndpointFaultSpec:
    """Fault configuration for one endpoint name."""

    error_rate: tuple[RateStep, ...] = ()
    kinds: Mapping[str, float] = field(
        default_factory=lambda: {KIND_ERROR: 1.0}
    )
    bursts: tuple[OutageBurst, ...] = ()
    kill_at_call: int | None = None

    def __post_init__(self) -> None:
        steps = tuple(sorted(self.error_rate, key=lambda s: s.from_call))
        object.__setattr__(self, "error_rate", steps)
        object.__setattr__(self, "bursts", tuple(self.bursts))
        weights = dict(self.kinds)
        if not weights:
            weights = {KIND_ERROR: 1.0}
        for kind, weight in weights.items():
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; known: {', '.join(FAULT_KINDS)}"
                )
            if weight < 0:
                raise ValueError(f"kind weight for {kind!r} must be >= 0")
        if sum(weights.values()) <= 0:
            raise ValueError("kind weights must sum to a positive value")
        object.__setattr__(self, "kinds", weights)
        if self.kill_at_call is not None and self.kill_at_call < 1:
            raise ValueError("kill_at_call is 1-based and must be >= 1")

    def rate_at(self, call_index: int) -> float:
        """Error rate in force for 1-based ``call_index`` (step schedule)."""
        rate = 0.0
        for step in self.error_rate:
            if step.from_call <= call_index:
                rate = step.rate
            else:
                break
        return rate


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of per-endpoint fault specs with pure-function decisions."""

    seed: int = 0
    endpoints: Mapping[str, EndpointFaultSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "endpoints", dict(self.endpoints))

    # -- decisions ---------------------------------------------------------

    def decide(self, endpoint: str, call_index: int) -> Fault | None:
        """The fault (or None) for the ``call_index``-th call to ``endpoint``.

        Precedence: kill switch, then burst outages, then the sampled
        error-rate schedule. Pure in ``(seed, endpoint, call_index)``.
        """
        if call_index < 1:
            raise ValueError("call_index is 1-based and must be >= 1")
        spec = self.endpoints.get(endpoint)
        if spec is None:
            return None
        if spec.kill_at_call == call_index:
            return Fault(KIND_KILL, f"kill switch at call {call_index}")
        for burst in spec.bursts:
            if burst.covers(call_index):
                return Fault(
                    burst.kind,
                    f"burst outage calls [{burst.from_call}, {burst.until_call})",
                )
        rate = spec.rate_at(call_index)
        if rate <= 0.0:
            return None
        draw = deterministic_uniform(self.seed, endpoint, call_index, "inject")
        if draw >= rate:
            return None
        kind = self._pick_kind(spec, endpoint, call_index)
        return Fault(kind, f"sampled at rate {rate:g}")

    def _pick_kind(
        self, spec: EndpointFaultSpec, endpoint: str, call_index: int
    ) -> str:
        """Weighted kind choice via a second independent uniform draw."""
        total = sum(spec.kinds.values())
        draw = deterministic_uniform(self.seed, endpoint, call_index, "kind")
        threshold = draw * total
        running = 0.0
        choice = KIND_ERROR
        for kind in sorted(spec.kinds):
            running += spec.kinds[kind]
            if threshold < running:
                choice = kind
                break
        return choice

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        endpoints: dict[str, Any] = {}
        for name in sorted(self.endpoints):
            spec = self.endpoints[name]
            entry: dict[str, Any] = {
                "error_rate": [
                    {"from_call": step.from_call, "rate": step.rate}
                    for step in spec.error_rate
                ],
                "kinds": {kind: spec.kinds[kind] for kind in sorted(spec.kinds)},
                "bursts": [
                    {
                        "from_call": burst.from_call,
                        "until_call": burst.until_call,
                        "kind": burst.kind,
                    }
                    for burst in spec.bursts
                ],
            }
            if spec.kill_at_call is not None:
                entry["kill_at_call"] = spec.kill_at_call
            endpoints[name] = entry
        return {"seed": self.seed, "endpoints": endpoints}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Parse a plan from its JSON representation, validating shapes."""
        endpoints: dict[str, EndpointFaultSpec] = {}
        for name, raw in dict(payload.get("endpoints", {})).items():
            endpoints[name] = EndpointFaultSpec(
                error_rate=tuple(
                    RateStep(
                        from_call=int(step.get("from_call", 1)),
                        rate=float(step["rate"]),
                    )
                    for step in raw.get("error_rate", ())
                ),
                kinds=dict(raw.get("kinds", {})) or {KIND_ERROR: 1.0},
                bursts=tuple(
                    OutageBurst(
                        from_call=int(burst["from_call"]),
                        until_call=int(burst["until_call"]),
                        kind=str(burst.get("kind", KIND_OUTAGE)),
                    )
                    for burst in raw.get("bursts", ())
                ),
                kill_at_call=(
                    int(raw["kill_at_call"]) if "kill_at_call" in raw else None
                ),
            )
        return cls(seed=int(payload.get("seed", 0)), endpoints=endpoints)

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, stable across runs)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def uniform(
        cls,
        rate: float,
        *,
        seed: int = 0,
        endpoints: Sequence[str] = ("subgraph", "explorer", "opensea"),
        kinds: Mapping[str, float] | None = None,
    ) -> "FaultPlan":
        """Convenience: one flat error rate across ``endpoints``."""
        spec_kinds = dict(kinds) if kinds else {
            KIND_ERROR: 2.0,
            KIND_RATE_LIMIT: 1.0,
            KIND_TIMEOUT: 1.0,
            KIND_TRUNCATED: 0.5,
            KIND_CORRUPT: 0.5,
        }
        spec = EndpointFaultSpec(
            error_rate=(RateStep(from_call=1, rate=rate),), kinds=spec_kinds
        )
        return cls(seed=seed, endpoints={name: spec for name in endpoints})


def load_plan(path: str | Path) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    return FaultPlan.from_dict(json.loads(text))
