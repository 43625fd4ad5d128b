"""Dead public API: exported names nobody outside the module uses.

A growing reproduction accretes exports — every PR widens some
``__all__`` — and unused public surface is where bit-rot hides: the
name keeps compiling, its docstring keeps lying, and nothing exercises
it. This pass cross-references every ``__all__`` entry against every
other analyzed module's outbound references (imports and
module-attribute chains, chased through re-export aliases in both
directions) and emits ``flow-dead-api`` for exports referenced only
from their defining module — or from nowhere at all.

The pass judges only the trees it is given, so "used" means used by
something in scope. ``--flow``'s default scope
(:data:`repro.lint.cli.FLOW_SCOPE`) holds the program and what runs
it (tools, benchmarks, examples, the repository benchmark) but not the
tests, so a reference from a test keeps nothing alive, and a flagged
name is one the program never touches outside its module: it leaves
``__all__`` (a test then imports it from its defining module), or
keeps an inline ``# lint: ignore[flow-dead-api] reason`` on its export
line (see ``docs/LINTING.md``).

``main`` and dunder names are exempt — they are entry-point contracts
(``console_scripts``, ``python -m``), referenced from metadata the
analyzer does not parse.
"""

from __future__ import annotations

from ..findings import Finding, Rule, Severity
from .graph import ModuleFacts, ProgramGraph

__all__ = ["RULE_DEAD_API", "run_deadcode_pass"]

RULE_DEAD_API = Rule(
    "flow-dead-api",
    "exported name is never referenced outside its defining module",
)

#: Names that are alive by out-of-band contract (entry points, dunders).
EXEMPT_EXPORTS = frozenset({"main"})


def _alias_closure(graph: ProgramGraph, dotted: str) -> set[str]:
    """The symbol plus everything it aliases to, transitively."""
    closure: set[str] = set()
    current = dotted
    while current not in closure:
        closure.add(current)
        if current in graph.aliases:
            current = graph.aliases[current]
            continue
        break
    return closure


def _reference_index(graph: ProgramGraph) -> dict[str, set[str]]:
    """Referenced symbol (and each dotted prefix) -> referencing modules."""
    index: dict[str, set[str]] = {}
    for module_id, facts in graph.modules.items():
        for ref in facts.refs:
            for target in _alias_closure(graph, ref):
                parts = target.split(".")
                for end in range(1, len(parts) + 1):
                    prefix = ".".join(parts[:end])
                    index.setdefault(prefix, set()).add(module_id)
    return index


def run_deadcode_pass(graph: ProgramGraph) -> list[Finding]:
    """Flag ``__all__`` entries with no reference from another module."""
    index = _reference_index(graph)
    findings: list[Finding] = []
    for module_id in sorted(graph.modules):
        facts: ModuleFacts = graph.modules[module_id]
        if facts.exports is None or facts.module is None:
            continue
        for export in facts.exports:
            name = export["name"]
            if name in EXEMPT_EXPORTS or name.startswith("__"):
                continue
            targets = _alias_closure(graph, f"{module_id}.{name}")
            referencing: set[str] = set()
            for target in targets:
                referencing |= index.get(target, set())
            if referencing - {module_id}:
                continue
            if facts.is_suppressed(export["line"], RULE_DEAD_API.id):
                continue
            findings.append(
                Finding(
                    path=facts.path,
                    line=export["line"],
                    column=0,
                    rule=RULE_DEAD_API.id,
                    message=(
                        f"exported name {name!r} is never referenced outside"
                        f" {module_id}; remove it from __all__ or suppress it"
                        " inline with a justification"
                    ),
                    severity=Severity.ERROR,
                )
            )
    findings.sort(key=lambda finding: finding.sort_key)
    return findings
