"""Exception escape: transient endpoint failures must stay behind retry.

PR 5 routed every crawler wait through
:class:`repro.faults.retry.RetryingCaller` — backoff is budgeted,
breaker-gated, and metered there, and the hardened clients convert
retry exhaustion into their own terminal errors. That discipline is
structural: a client passes the raw endpoint callable *by value* into
``RetryingCaller.call``, so a transient failure can only surface inside
the retry loop. The one way to break it is a *direct* call from the
crawler layer into an endpoint facade (``self.api.txlist(...)``) —
then a :class:`~repro.explorer.api.RateLimitError` or an injected
:class:`~repro.faults.errors.TransientInjectedError` unwinds the whole
pipeline, which in service mode means a corrupted long-lived process.

This pass computes, for every function, the set of exception types
that can propagate out of it (direct ``raise`` sites plus transitive
propagation over the call graph, minus whatever enclosing ``try``
blocks catch — with subclass reasoning over the linked class table).
It then flags every call site in ``repro.crawler`` that dispatches
directly into an endpoint module (:data:`HAZARD_MODULE_PREFIXES`) when
a transient type (:data:`TRANSIENT_BASES` or a subclass) can escape
that call unguarded: ``flow-exc-escape``.
"""

from __future__ import annotations

from ..findings import Finding, Rule, Severity
from .graph import ProgramGraph

__all__ = [
    "RULE_EXC_ESCAPE",
    "run_exception_pass",
]

RULE_EXC_ESCAPE = Rule(
    "flow-exc-escape",
    "transient endpoint exception can escape a crawler call without"
    " passing through the repro.faults retry layer",
)

#: Endpoint facades the crawler may only reach through RetryingCaller.
HAZARD_MODULE_PREFIXES: tuple[str, ...] = (
    "repro.explorer.",
    "repro.marketplace.",
    "repro.indexer.",
    "repro.faults.injectors",
)

#: Root transient exception types (their subclasses count too).
TRANSIENT_BASES: tuple[str, ...] = (
    "repro.faults.errors.TransientInjectedError",
    "repro.explorer.api.RateLimitError",
)

#: The package whose call sites are held to the retry discipline.
CALLER_SCOPE_PREFIX = "repro.crawler."

#: Propagation fixpoint bound — generous; the call graph is shallow.
_MAX_ROUNDS = 50


def _in_hazard(module_id: str) -> bool:
    return any(
        module_id.startswith(prefix) or module_id == prefix.rstrip(".")
        for prefix in HAZARD_MODULE_PREFIXES
    )


def escaping_exceptions(graph: ProgramGraph) -> dict[str, set[str]]:
    """Fixpoint: function id -> exception ids that can escape it."""
    escaping: dict[str, set[str]] = {fid: set() for fid in graph.functions}
    # direct raises, minus locally-guarded ones
    for function_id in sorted(graph.functions):
        _, function = graph.functions[function_id]
        for site in function.raises:
            exc = graph.resolve_symbol(site["type"]) or site["type"]
            if any(graph.guard_catches(g, exc) for g in site["guards"]):
                continue
            escaping[function_id].add(exc)
    # propagate over resolved call sites until stable
    sites = [
        (caller, call, callee)
        for caller, call, callee in graph.call_sites()
        if callee is not None and callee != caller
    ]
    for _ in range(_MAX_ROUNDS):
        changed = False
        for caller, call, callee in sites:
            for exc in sorted(escaping.get(callee, ())):
                if exc in escaping[caller]:
                    continue
                if any(graph.guard_catches(g, exc) for g in call["guards"]):
                    continue
                escaping[caller].add(exc)
                changed = True
        if not changed:
            break
    return escaping


def _transient_subset(graph: ProgramGraph, excs: set[str]) -> list[str]:
    """The transient members of an escaping set, sorted."""
    return sorted(
        exc
        for exc in excs
        if any(graph.is_exception_subtype(exc, base) for base in TRANSIENT_BASES)
    )


def run_exception_pass(graph: ProgramGraph) -> list[Finding]:
    """Flag unguarded crawler calls that can leak transient exceptions."""
    escaping = escaping_exceptions(graph)
    findings: list[Finding] = []
    for caller, call, callee in graph.call_sites():
        caller_module = graph.function_module(caller)
        if not caller_module.startswith(CALLER_SCOPE_PREFIX):
            continue
        if callee is None or not _in_hazard(graph.function_module(callee)):
            continue
        leaked = [
            exc
            for exc in _transient_subset(graph, escaping.get(callee, set()))
            if not any(graph.guard_catches(g, exc) for g in call["guards"])
        ]
        if not leaked:
            continue
        facts = graph.modules[caller_module]
        if facts.is_suppressed(call["line"], RULE_EXC_ESCAPE.id):
            continue
        names = ", ".join(exc.rsplit(".", 1)[-1] for exc in leaked)
        callee_name = ".".join(callee.split(".")[-2:])
        findings.append(
            Finding(
                path=facts.path,
                line=call["line"],
                column=0,
                rule=RULE_EXC_ESCAPE.id,
                message=(
                    f"direct call to {callee_name} can leak {names} past the"
                    " repro.faults retry layer; route it through"
                    " RetryingCaller.call"
                ),
                severity=Severity.ERROR,
            )
        )
    findings.sort(key=lambda finding: finding.sort_key)
    return findings
