"""SARIF 2.1.0 reporter — the machine-readable face of the lint run.

SARIF (Static Analysis Results Interchange Format, OASIS 2.1.0) is
what CI platforms ingest for code-scanning annotations, so ``repro
lint`` emits it for both per-file and whole-program runs. The renderer
holds the same contract as the text/JSON reporters
(:mod:`repro.lint.reporters`): byte-identical output for identical
findings, regardless of file-discovery order, machine, or run count —
which means **no timestamps, no absolute paths, no GUIDs**, the three
ways SARIF producers usually leak nondeterminism. Results arrive
pre-sorted from the runner; the rule index is sorted by rule id; keys
are emitted in one canonical order.
"""

from __future__ import annotations

import json

from ..findings import Finding, Rule, Severity
from ..runner import LintResult

__all__ = ["SARIF_VERSION", "render_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _rule_descriptor(rule: Rule) -> dict:
    return {
        "id": rule.id,
        "shortDescription": {"text": rule.summary},
        "defaultConfiguration": {"level": _LEVELS[rule.severity]},
    }


def _result(finding: Finding, rule_index: dict[str, int]) -> dict:
    result = {
        "ruleId": finding.rule,
        "level": str(finding.severity),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.column + 1,
                    },
                }
            }
        ],
    }
    if finding.rule in rule_index:
        result["ruleIndex"] = rule_index[finding.rule]
    return result


def render_sarif(
    result: LintResult, rules: list[Rule] | None = None
) -> str:
    """One deterministic SARIF 2.1.0 document for a lint run.

    ``rules`` populates the tool's rule metadata; rules only referenced
    by findings are added automatically so every ``ruleId`` resolves.
    """
    catalogue: dict[str, Rule] = {rule.id: rule for rule in (rules or [])}
    for finding in result.findings:
        catalogue.setdefault(
            finding.rule,
            Rule(finding.rule, finding.rule, finding.severity),
        )
    ordered = [catalogue[rule_id] for rule_id in sorted(catalogue)]
    rule_index = {rule.id: position for position, rule in enumerate(ordered)}
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [_rule_descriptor(rule) for rule in ordered],
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": [
                    _result(finding, rule_index)
                    for finding in result.findings
                ],
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
