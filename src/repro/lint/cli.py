"""Command-line front end: ``python -m repro.lint [--flow] [PATH ...]``.

Exit codes follow the classic lint contract: 0 when no error-severity
finding survives suppression, 1 otherwise, 2 for usage errors (from
argparse, on stderr). Findings print to stdout — for this tool the
report *is* the product, same as ``repro analyze`` — pre-sorted by
(path, line, column, rule) so CI logs are byte-stable.

Two modes, each defaulting to the scope CI gates:

* **per-file** (default, :data:`PER_FILE_SCOPE`) — the registered
  checkers of :mod:`repro.lint.checkers` plus runner rules
  (``parse-error``, ``lint-stale-ignore``);
* **whole-program** (``--flow``, :data:`FLOW_SCOPE`) — the dead
  public API pass of :mod:`repro.lint.flow` (``flow-dead-api``) plus
  ``lint-stale-ignore`` for suppressions naming ``flow-*`` rules. The
  scope holds every consumer of the library, so a use from a test, an
  example or the repository benchmark keeps an export alive.

A finding is accepted only by a ``# lint: ignore[rule-id] reason``
comment on its line.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from .flow import FLOW_RULES, analyze_paths
from .registry import all_rules
from .reporters import render_text
from .runner import RUNNER_RULES, lint_paths

__all__ = ["PER_FILE_SCOPE", "main"]

#: What a per-file run lints when no path is given.
PER_FILE_SCOPE: tuple[str, ...] = ("src", "tools", "benchmarks")

#: What a ``--flow`` run analyzes when no path is given.
FLOW_SCOPE: tuple[str, ...] = (*PER_FILE_SCOPE, "tests", "examples", "perfbench")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="static analysis for the repro tree: determinism,"
        " layering, obs hygiene, mutable defaults, public-API coverage,"
        " and the whole-program dead-API pass (--flow)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: "
        f"{' '.join(PER_FILE_SCOPE)}; with --flow: {' '.join(FLOW_SCOPE)})",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="comma-separated rule ids or checker names to run"
        " (default: every registered rule; per-file mode only)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="whole-program analysis: dead public API (see"
        " docs/LINTING.md)",
    )
    return parser


def _rule_catalogue() -> str:
    """The rule table shown by ``--list-rules`` (checkers + runner + flow)."""
    rows = [
        (rule.id, str(rule.severity), checker_name, rule.summary)
        for checker_name, rule in all_rules()
    ]
    rows.extend(
        (rule.id, str(rule.severity), "(runner)", rule.summary)
        for rule in RUNNER_RULES
    )
    rows.extend(
        (rule.id, str(rule.severity), "(flow)", rule.summary)
        for rule in FLOW_RULES
    )
    lines = [
        f"{rule_id:24s} {severity:8s} [{owner}] {summary}"
        for rule_id, severity, owner, summary in sorted(rows)
    ]
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.lint [--flow] [--rules ID,...] [PATH ...]``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_rule_catalogue(), end="")
        return 0
    if args.flow:
        if args.rules:
            parser.error("--rules cannot narrow a --flow run")
        result = analyze_paths(args.paths or FLOW_SCOPE).result
    else:
        rules = None
        if args.rules:
            rules = [
                token.strip() for token in args.rules.split(",") if token.strip()
            ]
        try:
            result = lint_paths(args.paths or PER_FILE_SCOPE, rules=rules)
        except ValueError as exc:  # unknown rule id
            parser.error(str(exc))
    print(render_text(result), end="")
    return result.exit_code
