"""Command-line front end: ``python -m repro.lint`` / ``repro lint``.

Exit codes follow the classic lint contract: 0 when no error-severity
finding survives suppression (and, in ``--flow`` mode, the baseline),
1 otherwise, 2 for usage errors (from argparse). Findings print to
stdout — for this tool the report *is* the product, same as ``repro
analyze`` — pre-sorted by (path, line, column, rule) so CI logs are
byte-stable.

Two modes share one option surface:

* **per-file** (default) — the registered checkers of
  :mod:`repro.lint.checkers` plus runner rules (``parse-error``,
  ``lint-stale-ignore``);
* **whole-program** (``--flow``) — the interprocedural passes of
  :mod:`repro.lint.flow` (``flow-det-taint``, ``flow-exc-escape``,
  ``flow-dead-api``), with the committed baseline subtracted before
  the exit code and stale flow entries reported on stderr.

Either mode renders as text, JSON, or SARIF 2.1.0 (``--format sarif``
to stdout, ``--sarif PATH`` as a side artifact for CI upload).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .registry import all_rules
from .reporters import render_json, render_text
from .runner import RUNNER_RULES, LintResult, lint_paths

__all__ = ["add_lint_arguments", "main", "run"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
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
        help="whole-program analysis: determinism taint, exception"
        " escape, dead public API (see docs/LINTING.md)",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write the report as SARIF 2.1.0 to PATH",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="finding baseline to subtract (both modes;"
        " default: tools/lint_baseline.json when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file (report every finding)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to accept every current flow finding"
        " (entries of per-file rules and existing justifications are"
        " preserved)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Stand-alone parser for the ``python -m repro.lint`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="static analysis for the repro tree: determinism,"
        " layering, obs hygiene, mutable defaults, public-API coverage,"
        " and whole-program flow passes (--flow)",
    )
    add_lint_arguments(parser)
    return parser


def _rule_catalogue() -> str:
    """The rule table shown by ``--list-rules`` (checkers + runner + flow)."""
    from .flow import FLOW_RULES

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


def _render(args: argparse.Namespace, result: LintResult) -> str:
    """The report in the requested ``--format``."""
    if args.format == "json":
        return render_json(result)
    if args.format == "sarif":
        return _sarif_text(result)
    return render_text(result)


def _sarif_text(result: LintResult) -> str:
    from .flow import FLOW_RULES
    from .flow.sarif import render_sarif

    catalogue = [rule for _, rule in all_rules()]
    catalogue.extend(RUNNER_RULES)
    catalogue.extend(FLOW_RULES)
    return render_sarif(result, rules=catalogue)


def _run_flow(args: argparse.Namespace) -> LintResult:
    """Execute the whole-program mode: analyze, baseline, maybe rewrite."""
    from .flow import (
        DEFAULT_BASELINE_PATH,
        FLOW_RULES,
        Baseline,
        analyze_paths,
        apply_baseline,
    )

    result = analyze_paths(args.paths).result
    baseline_path = args.baseline or DEFAULT_BASELINE_PATH
    flow_rule_ids = {rule.id for rule in FLOW_RULES}
    if args.write_baseline:
        # Replace only flow-rule entries: the baseline also carries
        # accepted per-file findings (e.g. perf-row-object-hot-loop),
        # which a flow rewrite must not drop. A finding that is still
        # baselined keeps its hand-written justification.
        current = Baseline.load(baseline_path).entries
        preserved = [
            entry
            for entry in current.values()
            if entry["rule"] not in flow_rule_ids
        ]
        fresh = Baseline.from_findings(result.findings).entries
        Baseline(
            preserved
            + [current.get(key, entry) for key, entry in fresh.items()]
        ).write(baseline_path)
        print(
            f"baseline written to {baseline_path}"
            f" ({len(result.findings)} finding(s))",
            file=sys.stderr,
        )
    if not args.no_baseline:
        baseline = Baseline.load(baseline_path)
        for entry in baseline.unmatched(result.findings):
            # per-file-rule entries are matched by the per-file run,
            # never by the flow passes: not stale from here
            if entry["rule"] in flow_rule_ids:
                print(
                    f"stale baseline entry: {entry['path']}:"
                    f" {entry['message']} [{entry['rule']}]"
                    f" — prune it from {baseline_path}",
                    file=sys.stderr,
                )
        result = apply_baseline(result, baseline)
    return result


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation and print the report."""
    if args.list_rules:
        print(_rule_catalogue(), end="")
        return 0
    if args.flow:
        if args.rules:
            print("repro.lint: --rules cannot narrow a --flow run")
            return 2
        result = _run_flow(args)
    else:
        rules = None
        if args.rules:
            rules = [
                token.strip() for token in args.rules.split(",") if token.strip()
            ]
        try:
            result = lint_paths(args.paths, rules=rules)
        except ValueError as exc:  # unknown rule id
            print(f"repro.lint: {exc}")
            return 2
        if not args.no_baseline:
            # Per-file findings honor the same committed baseline as the
            # flow passes: accepted legacy scans are subtracted before
            # the exit code, new occurrences still fail.
            from .flow import DEFAULT_BASELINE_PATH, Baseline, apply_baseline

            result = apply_baseline(
                result, Baseline.load(args.baseline or DEFAULT_BASELINE_PATH)
            )
    if args.sarif:
        Path(args.sarif).write_text(_sarif_text(result), encoding="utf-8")
        print(f"sarif report written to {args.sarif}", file=sys.stderr)
    print(_render(args, result), end="")
    return result.exit_code


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.lint [--flow] [--format text|json|sarif] [PATHS]``."""
    return run(build_parser().parse_args(argv))
