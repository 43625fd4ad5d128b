"""The lint runner: discover files, run checkers, suppress, sort.

Entry points:

* :func:`lint_paths` — files and directories from the command line,
* :func:`lint_sources` — pre-built :class:`SourceFile` objects (what
  the unit tests use for inline string fixtures).

Determinism is part of the runner's contract, not an accident: files
are discovered in sorted order, checkers run in sorted-name order, and
findings are sorted by ``(path, line, column, rule)`` before anything
is reported — so CI logs diff cleanly across runs, machines, and
Python versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .findings import Finding, Rule, Severity
from .registry import all_checkers, all_rules, resolve_rules
from .source import ALL_RULES, SourceFile

__all__ = ["LintResult", "RUNNER_RULES", "lint_paths"]

#: Rules the runner itself emits (no checker owns them).
RUNNER_RULES: tuple[Rule, ...] = (
    Rule("parse-error", "the file must parse and decode as UTF-8"),
    Rule(
        "lint-stale-ignore",
        "a '# lint: ignore' comment no longer suppresses anything",
    ),
)


@dataclass
class LintResult:
    """Outcome of one lint run: surviving findings plus bookkeeping."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def errors(self) -> int:
        """Number of error-severity findings."""
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        """Number of warning-severity findings."""
        return sum(1 for f in self.findings if f.severity is Severity.WARNING)

    @property
    def exit_code(self) -> int:
        """CI contract: 1 when any error-severity finding survives, else 0."""
        return 1 if self.errors else 0


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``*.py`` list."""
    seen: set[Path] = set()
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            key = candidate.resolve()
            if key in seen:
                continue
            seen.add(key)
            files.append(candidate)
    return files


def lint_sources(
    sources: Iterable[SourceFile], rules: Sequence[str] | None = None
) -> LintResult:
    """Run the (optionally narrowed) checker set over parsed sources."""
    selection = resolve_rules(rules) if rules else None
    checkers = []
    for name, cls in all_checkers().items():
        if selection is None:
            checkers.append(cls())
        elif name in selection:
            checkers.append(cls(enabled_rules=selection[name]))

    result = LintResult()
    raw: list[tuple[SourceFile | None, Finding]] = []
    checked: dict[str, SourceFile] = {}
    for source in sources:
        result.files_checked += 1
        checked[source.path] = source
        if source.parse_error is not None:
            line = source.parse_error.lineno or 1
            column = (source.parse_error.offset or 1) - 1
            result.findings.append(
                Finding(
                    path=source.path,
                    line=line,
                    column=max(column, 0),
                    rule="parse-error",
                    message=f"cannot parse: {source.parse_error.msg}",
                    severity=Severity.ERROR,
                )
            )
            continue
        for checker in checkers:
            raw.extend((source, finding) for finding in checker.check(source))
    for checker in checkers:
        for finding in checker.finish():
            raw.append((checked.get(finding.path), finding))

    fired: set[tuple[str, int]] = set()
    for source, finding in raw:
        if source is not None and source.is_suppressed(finding.line, finding.rule):
            result.suppressed += 1
            fired.add((source.path, finding.line))
        else:
            result.findings.append(finding)
    if selection is None:
        result.findings.extend(_stale_suppressions(checked.values(), fired))
    result.findings.sort(key=lambda finding: finding.sort_key)
    return result


def stale_ignore_finding(
    path: str, line: int, rules: frozenset[str]
) -> Finding:
    """The ``lint-stale-ignore`` finding for a comment that silenced nothing."""
    named = sorted(rules - {ALL_RULES})
    label = f"[{', '.join(named)}]" if named else ""
    return Finding(
        path=path,
        line=line,
        column=0,
        rule="lint-stale-ignore",
        message=(
            f"'# lint: ignore{label}' suppresses nothing on this"
            " line; remove the stale comment"
        ),
        severity=Severity.ERROR,
    )


def _stale_suppressions(
    sources: Iterable[SourceFile], fired: set[tuple[str, int]]
) -> Iterator[Finding]:
    """``lint-stale-ignore``: suppression comments that silenced nothing.

    Only runs when the full checker set did (a narrowed ``--rules`` run
    cannot prove a suppression dead), skips files that failed to parse
    (their finding set is unknowable), and skips suppressions naming
    rules outside the per-file catalogue — a ``# lint:
    ignore[flow-dead-api]`` is judged by the ``--flow`` run
    (:func:`repro.lint.flow.flow_sources`). These findings are emitted
    *after* suppression handling, so a stale ignore cannot suppress its
    own staleness report.
    """
    per_file_rules = {rule.id for _, rule in all_rules()} | {
        rule.id for rule in RUNNER_RULES
    }
    for source in sources:
        if source.parse_error is not None:
            continue
        for line in sorted(source.suppressions):
            rules = source.suppressions[line]
            if (source.path, line) in fired:
                continue
            if not (rules - {ALL_RULES}) <= per_file_rules:
                continue
            yield stale_ignore_finding(source.path, line, rules)


def lint_paths(
    paths: Sequence[str | Path], rules: Sequence[str] | None = None
) -> LintResult:
    """Discover ``*.py`` files under ``paths`` and lint them."""
    sources = (SourceFile.from_path(path) for path in discover_files(paths))
    return lint_sources(sources, rules=rules)
