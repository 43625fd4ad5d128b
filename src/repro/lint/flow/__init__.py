"""Whole-program flow analysis: ``python -m repro.lint --flow``.

Where the per-file checkers see one AST at a time, this subpackage
parses the tree *once* into a module/import graph and a name-resolved
call graph (:mod:`~repro.lint.flow.graph`), then runs three
interprocedural passes over it:

* ``flow-det-taint`` (:mod:`~repro.lint.flow.taint`) — nondeterminism
  sources laundered through helpers must not reach report/ledger/
  golden-output sinks,
* ``flow-exc-escape`` (:mod:`~repro.lint.flow.exceptions`) — transient
  endpoint failures must not escape crawler calls that bypass the
  :mod:`repro.faults` retry layer,
* ``flow-dead-api`` (:mod:`~repro.lint.flow.deadcode`) — exported
  names never referenced outside their defining module.

A deliberate finding carries an inline ``# lint: ignore[flow-...]
reason`` comment, and a suppression naming only ``flow-*`` rules that
silenced nothing is reported as ``lint-stale-ignore``. See
``docs/LINTING.md`` ("Whole-program analysis") for the workflow.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..findings import Finding, Rule, Severity
from ..runner import LintResult, discover_files, stale_ignore_finding
from ..source import module_name_for
from .deadcode import RULE_DEAD_API, run_deadcode_pass
from .exceptions import RULE_EXC_ESCAPE, run_exception_pass
from .graph import ModuleFacts, ProgramGraph, extract_facts
from .taint import RULE_DET_TAINT, run_taint_pass

__all__ = ["FLOW_RULES", "ProgramGraph", "analyze_paths"]

#: The catalogue of rules the flow engine can emit.
FLOW_RULES: tuple[Rule, ...] = (RULE_DET_TAINT, RULE_EXC_ESCAPE, RULE_DEAD_API)


class FlowAnalysis:
    """Result bundle of one whole-program run: findings + the graph."""

    def __init__(self, result: LintResult, graph: ProgramGraph) -> None:
        self.result = result
        self.graph = graph


def _load_facts(path: Path) -> ModuleFacts:
    """Facts for one file: read, parse, extract.

    Unreadable or undecodable files yield facts whose ``parse_error``
    is set, which the engine reports as a structured ``parse-error``
    finding — never a traceback.
    """
    display = str(path)
    try:
        content = path.read_bytes()
    except OSError as exc:
        facts = ModuleFacts(path=display, module=module_name_for(path))
        facts.parse_error = {
            "line": 1, "column": 0, "message": f"cannot read: {exc}"
        }
        return facts
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        facts = ModuleFacts(path=display, module=module_name_for(path))
        facts.parse_error = {
            "line": 1,
            "column": 0,
            "message": f"cannot decode as UTF-8 (byte offset {exc.start})",
        }
        return facts
    return extract_facts(display, module_name_for(path), text)


def flow_sources(
    facts_list: list[ModuleFacts],
) -> tuple[LintResult, ProgramGraph]:
    """Run the three passes over already-extracted module facts."""
    result = LintResult(files_checked=len(facts_list))
    for facts in facts_list:
        if facts.parse_error is not None:
            result.findings.append(
                Finding(
                    path=facts.path,
                    line=facts.parse_error["line"],
                    column=facts.parse_error["column"],
                    rule="parse-error",
                    message=f"cannot parse: {facts.parse_error['message']}",
                    severity=Severity.ERROR,
                )
            )
    graph = ProgramGraph(facts_list)
    result.findings.extend(run_taint_pass(graph))
    result.findings.extend(run_exception_pass(graph))
    result.findings.extend(run_deadcode_pass(graph))
    result.findings.extend(_stale_flow_suppressions(graph))
    result.findings.sort(key=lambda finding: finding.sort_key)
    return result, graph


def _stale_flow_suppressions(graph: ProgramGraph) -> list[Finding]:
    """``lint-stale-ignore`` for flow-only suppressions that silenced nothing.

    The per-file runner leaves suppressions naming ``flow-*`` rules to
    this engine; one the passes never used to drop a finding (or a
    taint source) is dead. Runs after every pass, so each use is
    already recorded in :attr:`ModuleFacts.silenced`; modules that
    failed to parse are not in the graph and are not judged.
    """
    stale: list[Finding] = []
    for facts in graph.modules.values():
        for line, rules in sorted(facts.suppressions.items()):
            if (
                line in facts.silenced
                or not rules
                or not all(rule.startswith("flow-") for rule in rules)
            ):
                continue
            stale.append(stale_ignore_finding(facts.path, line, rules))
    return stale


def analyze_paths(paths: Sequence[str | Path]) -> FlowAnalysis:
    """Whole-program analysis over ``*.py`` files beneath ``paths``."""
    facts_list = [_load_facts(path) for path in discover_files(paths)]
    result, graph = flow_sources(facts_list)
    return FlowAnalysis(result, graph)
