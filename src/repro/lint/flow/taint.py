"""Determinism taint: nondeterminism sources must never reach a sink.

The intra-file ``det-*`` rules catch a ``time.time()`` at its call
site; what they cannot see is *laundering* — a helper in one module
reads the wall clock (or the global RNG, or iterates a set into
ordered output) and a report writer three modules away consumes its
return value. This pass closes that hole interprocedurally:

* **Sources** — direct wall-clock reads, global-RNG draws, and
  set-order iterations recorded in the module facts. Everything under
  ``repro.obs`` is exempt (telemetry is the one sanctioned consumer of
  real time — ``repro.obs.runledger.wall_now`` exists precisely so
  other layers never touch the clock), so calling ``wall_now()`` does
  not taint the caller; calling ``time.time()`` does.
* **Propagation** — taint flows from callee to caller over the
  name-resolved call graph: any function that (transitively) calls a
  source is tainted.
* **Sinks** — functions whose output must be bit-reproducible: the
  headline report builders, figure/CSV export, dataset persistence,
  and the lint reporters themselves (:data:`DEFAULT_SINKS`). A tainted
  sink yields one ``flow-det-taint`` finding whose message spells out
  a shortest witness chain from the sink to the source.

The worklist is processed in sorted order and ties break
lexicographically, so the witness chain — and therefore the report —
is deterministic, which the byte-identical text report relies on.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

from ..findings import Finding, Rule, Severity
from .graph import ProgramGraph

__all__ = ["RULE_DET_TAINT", "run_taint_pass"]

RULE_DET_TAINT = Rule(
    "flow-det-taint",
    "nondeterminism source reaches a report/ledger/golden-output sink"
    " through the call graph",
)

#: Function-id patterns whose output must re-derive bit-for-bit.
DEFAULT_SINKS: tuple[str, ...] = (
    "repro.core.report.*",
    "repro.core.export.*",
    "repro.crawler.storage.save_dataset*",
    "repro.crawler.storage.dataset_digest*",
    "repro.lint.reporters.*",
)

#: Modules whose wall-clock reads are sanctioned (the telemetry layer).
EXEMPT_MODULE_PREFIXES: tuple[str, ...] = ("repro.obs",)


def _is_exempt(module_id: str) -> bool:
    return any(
        module_id == prefix or module_id.startswith(prefix + ".")
        for prefix in EXEMPT_MODULE_PREFIXES
    )


def _short(function_id: str) -> str:
    """Human-readable function name: last three dotted components."""
    return ".".join(function_id.split(".")[-3:])


def run_taint_pass(
    graph: ProgramGraph, sinks: tuple[str, ...] = DEFAULT_SINKS
) -> list[Finding]:
    """Propagate nondeterminism sources and flag every tainted sink."""
    # seed: function id -> (source detail, source line in that function)
    origins: dict[str, tuple[str, int]] = {}
    for function_id in sorted(graph.functions):
        module_id, function = graph.functions[function_id]
        if _is_exempt(module_id):
            continue
        live = [
            source
            for source in function.sources
            if not graph.modules[module_id].is_suppressed(
                source["line"], "flow-det-taint"
            )
        ]
        if live:
            first = min(live, key=lambda s: (s["line"], s["kind"], s["detail"]))
            origins[function_id] = (
                f"{first['kind']} ({first['detail']})", first["line"]
            )

    # taint state: function id -> (via callee id | None, call line)
    reverse = graph.reverse_edges()
    parent: dict[str, tuple[str | None, int]] = {
        fid: (None, line) for fid, (_, line) in origins.items()
    }
    worklist = sorted(origins)
    while worklist:
        current = worklist.pop(0)
        for caller, line in reverse.get(current, ()):
            if caller in parent or _is_exempt(graph.function_module(caller)):
                continue
            parent[caller] = (current, line)
            worklist.append(caller)
        worklist.sort()

    findings: list[Finding] = []
    for function_id in sorted(parent):
        if not any(fnmatchcase(function_id, pattern) for pattern in sinks):
            continue
        module_id, function = graph.functions[function_id]
        facts = graph.modules[module_id]
        chain = [function_id]
        via, line = parent[function_id]
        while via is not None:
            chain.append(via)
            via, _ = parent[via]
        source_detail, source_line = origins[chain[-1]]
        if facts.is_suppressed(line, RULE_DET_TAINT.id):
            continue
        route = " -> ".join(_short(step) for step in chain)
        findings.append(
            Finding(
                path=facts.path,
                line=line,
                column=0,
                rule=RULE_DET_TAINT.id,
                message=(
                    f"nondeterminism reaches report sink {_short(function_id)}:"
                    f" {route} uses {source_detail}"
                ),
                severity=Severity.ERROR,
            )
        )
    return findings
