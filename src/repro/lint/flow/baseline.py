"""Finding baselines: CI fails only on *new* whole-program findings.

Whole-program passes judge existing public surface (``flow-dead-api``
especially), and some committed findings are deliberate: an export
kept for downstream users, a symbol registered dynamically. Deleting
them would be wrong; ignoring the rule would be worse. The baseline is
the middle path — a committed JSON file enumerating the accepted
findings, each with a human justification, subtracted from every run
before the exit code is computed. A finding absent from the baseline
fails the ``repro lint --flow`` exit code; a baselined finding that
stops occurring is reported on stderr so the entry gets pruned.

Matching is by ``(path, rule, message)`` — deliberately *not* line
numbers, so unrelated edits above a baselined finding do not invalidate
the entry. Messages of the flow passes avoid embedding line numbers
for exactly this reason.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..findings import Finding
from ..runner import LintResult

__all__ = [
    "BASELINE_VERSION",
    "DEFAULT_BASELINE_PATH",
    "Baseline",
    "apply_baseline",
]

BASELINE_VERSION = 1

#: Where the committed baseline lives (next to the CI gate that reads it).
DEFAULT_BASELINE_PATH = "tools/lint_baseline.json"


def _key(path: str, rule: str, message: str) -> tuple[str, str, str]:
    return (_normalize(path), rule, message)


def _normalize(path: str) -> str:
    """Canonicalize a finding path for baseline matching.

    Baseline entries are committed repo-relative; findings carry
    whatever path the invocation used. An absolute path under the
    current working directory is relativized so ``repro lint $(pwd)/src``
    and ``repro lint src`` hit the same entries.
    """
    text = path.replace("\\", "/")
    candidate = Path(text)
    if candidate.is_absolute():
        try:
            return candidate.relative_to(Path.cwd()).as_posix()
        except ValueError:
            return text
    return text


class Baseline:
    """The committed set of accepted findings, keyed (path, rule, message)."""

    def __init__(self, entries: list[dict] | None = None) -> None:
        """``entries`` are ``{path, rule, message, justification}`` dicts."""
        self.entries: dict[tuple[str, str, str], dict] = {}
        for entry in entries or []:
            self.entries[
                _key(entry["path"], entry["rule"], entry["message"])
            ] = entry

    def __len__(self) -> int:
        """Number of baselined findings."""
        return len(self.entries)

    def matches(self, finding: Finding) -> bool:
        """Whether ``finding`` is an accepted, baselined occurrence."""
        return _key(finding.path, finding.rule, finding.message) in self.entries

    def unmatched(self, findings: list[Finding]) -> list[dict]:
        """Baseline entries no current finding hits (candidates to prune)."""
        seen = {_key(f.path, f.rule, f.message) for f in findings}
        return [
            entry
            for key, entry in sorted(self.entries.items())
            if key not in seen
        ]

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        path = Path(path)
        if not path.is_file():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {payload.get('version')!r}"
                f" in {path}"
            )
        return cls(payload.get("findings", []))

    @classmethod
    def from_findings(
        cls, findings: list[Finding], justification: str = "TODO: justify"
    ) -> "Baseline":
        """Build a baseline accepting every given finding."""
        entries = [
            {
                "path": finding.path.replace("\\", "/"),
                "rule": finding.rule,
                "message": finding.message,
                "justification": justification,
            }
            for finding in findings
        ]
        return cls(entries)

    def render(self) -> str:
        """Canonical JSON encoding (sorted, newline-terminated)."""
        document = {
            "version": BASELINE_VERSION,
            "findings": [
                entry for _, entry in sorted(self.entries.items())
            ],
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    def write(self, path: str | Path) -> None:
        """Write the canonical encoding to ``path``."""
        Path(path).write_text(self.render(), encoding="utf-8")


def apply_baseline(result: LintResult, baseline: Baseline) -> LintResult:
    """Subtract baselined findings; they count as ``baselined``, not errors."""
    kept: list[Finding] = []
    matched = 0
    for finding in result.findings:
        if baseline.matches(finding):
            matched += 1
        else:
            kept.append(finding)
    filtered = LintResult(
        findings=kept,
        files_checked=result.files_checked,
        suppressed=result.suppressed,
        baselined=result.baselined + matched,
    )
    return filtered
