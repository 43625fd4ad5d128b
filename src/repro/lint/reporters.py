"""Reporters: render a :class:`LintResult` as text or strict JSON.

Mirrors the :mod:`repro.obs.exporters` conventions — deterministic
ordering (findings arrive pre-sorted from the runner), canonical
formatting, strict JSON: one top-level document with a ``summary``
block, safe to pin in golden tests. Reporters return strings; only the
CLI layer writes to stdout.
"""

from __future__ import annotations

import json

from .runner import LintResult

__all__ = ["render_json", "render_text"]


def summary_line(result: LintResult) -> str:
    """One-line roll-up: files, findings by severity, suppressions."""
    line = (
        f"{result.files_checked} file(s) checked:"
        f" {result.errors} error(s), {result.warnings} warning(s),"
        f" {result.suppressed} suppressed"
    )
    if result.baselined:
        line += f", {result.baselined} baselined"
    return line


def render_text(result: LintResult) -> str:
    """gcc-style finding lines plus the summary, newline-terminated."""
    lines = [finding.render() for finding in result.findings]
    lines.append(summary_line(result))
    return "\n".join(lines) + "\n"


def render_json(result: LintResult) -> str:
    """The run as one strict-JSON document (stable key and finding order)."""
    document = {
        "version": 1,
        "findings": [finding.as_dict() for finding in result.findings],
        "summary": {
            "files_checked": result.files_checked,
            "errors": result.errors,
            "warnings": result.warnings,
            "suppressed": result.suppressed,
            "baselined": result.baselined,
        },
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"
