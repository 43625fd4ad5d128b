"""Reporter: render a :class:`LintResult` as byte-stable text.

Mirrors the :mod:`repro.obs.exporters` conventions — deterministic
ordering (findings arrive pre-sorted from the runner), canonical
formatting, safe to pin in golden tests. The reporter returns a
string; only the CLI layer writes to stdout.
"""

from __future__ import annotations

from .runner import LintResult

__all__ = ["render_text"]


def summary_line(result: LintResult) -> str:
    """One-line roll-up: files, findings by severity, suppressions."""
    return (
        f"{result.files_checked} file(s) checked:"
        f" {result.errors} error(s), {result.warnings} warning(s),"
        f" {result.suppressed} suppressed"
    )


def render_text(result: LintResult) -> str:
    """gcc-style finding lines plus the summary, newline-terminated."""
    lines = [finding.render() for finding in result.findings]
    lines.append(summary_line(result))
    return "\n".join(lines) + "\n"
