"""Finding and Rule records — the currency of the lint framework.

A checker never prints; it yields :class:`Finding` values and the
runner aggregates, suppresses, sorts, and hands them to a reporter.
Sorting is part of the contract: findings order by ``(path, line,
column, rule)`` so two runs over the same tree — on any Python
version, any filesystem — produce byte-identical reports. The same
convention (deterministic ordering, canonical formatting) that
:mod:`repro.obs.exporters` uses for metrics applies here to findings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Finding", "Rule", "Severity"]


class Severity(enum.Enum):
    """How bad a finding is; only errors fail the build."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        """The lowercase name used in reports (``error`` / ``warning``)."""
        return self.value


@dataclass(frozen=True)
class Rule:
    """One enforceable invariant: a stable id, a summary, a severity."""

    id: str
    summary: str
    severity: Severity = Severity.ERROR


@dataclass(frozen=True)
class Finding:
    """One violation at one source location.

    ``path`` is kept exactly as the file was addressed on the command
    line (relative stays relative) so CI logs are stable regardless of
    checkout directory.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str
    severity: Severity

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        """Deterministic report order: path, then line, column, rule id."""
        return (self.path, self.line, self.column, self.rule)

    def render(self) -> str:
        """gcc-style one-liner: ``path:line:col: severity: message [rule]``."""
        return (
            f"{self.path}:{self.line}:{self.column}:"
            f" {self.severity}: {self.message} [{self.rule}]"
        )

