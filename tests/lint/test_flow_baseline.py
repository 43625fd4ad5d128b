"""The committed-finding baseline (fail only on *new* findings)."""

from __future__ import annotations

import json

import pytest

from repro.lint.findings import Finding, Severity
from repro.lint.flow.baseline import (
    BASELINE_VERSION,
    Baseline,
    apply_baseline,
)
from repro.lint.runner import LintResult


def finding(path="src/repro/a.py", rule="flow-dead-api", msg="dead 'x'", line=3):
    return Finding(
        path=path,
        line=line,
        column=0,
        rule=rule,
        message=msg,
        severity=Severity.ERROR,
    )


class TestBaseline:
    def test_missing_file_is_empty(self, tmp_path) -> None:
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0
        assert not baseline.matches(finding())

    def test_round_trip(self, tmp_path) -> None:
        target = tmp_path / "baseline.json"
        Baseline.from_findings([finding()], justification="kept for tests").write(
            target
        )
        loaded = Baseline.load(target)
        assert loaded.matches(finding())
        [entry] = loaded.entries.values()
        assert entry["justification"] == "kept for tests"

    def test_version_mismatch_raises(self, tmp_path) -> None:
        target = tmp_path / "baseline.json"
        target.write_text(
            json.dumps({"version": BASELINE_VERSION + 1, "findings": []})
        )
        with pytest.raises(ValueError, match="unsupported baseline version"):
            Baseline.load(target)

    def test_matching_ignores_line_numbers(self) -> None:
        baseline = Baseline.from_findings([finding(line=3)])
        assert baseline.matches(finding(line=300))

    def test_matching_is_exact_on_path_rule_message(self) -> None:
        baseline = Baseline.from_findings([finding()])
        assert not baseline.matches(finding(msg="dead 'y'"))
        assert not baseline.matches(finding(rule="flow-det-taint"))
        assert not baseline.matches(finding(path="src/repro/b.py"))

    def test_unmatched_entries_are_prune_candidates(self) -> None:
        baseline = Baseline.from_findings([finding(), finding(msg="dead 'y'")])
        current = [finding()]
        stale = baseline.unmatched(current)
        assert [entry["message"] for entry in stale] == ["dead 'y'"]

    def test_render_is_deterministic(self) -> None:
        findings = [finding(), finding(msg="dead 'y'")]
        one = Baseline.from_findings(findings).render()
        two = Baseline.from_findings(list(reversed(findings))).render()
        assert one == two


class TestApplyBaseline:
    def test_matched_findings_become_baselined_count(self) -> None:
        result = LintResult(findings=[finding(), finding(msg="new")], files_checked=1)
        baseline = Baseline.from_findings([finding()])
        filtered = apply_baseline(result, baseline)
        assert [f.message for f in filtered.findings] == ["new"]
        assert filtered.baselined == 1
        assert filtered.exit_code == 1

    def test_fully_baselined_run_exits_zero(self) -> None:
        result = LintResult(findings=[finding()], files_checked=1)
        filtered = apply_baseline(result, Baseline.from_findings([finding()]))
        assert filtered.findings == []
        assert filtered.exit_code == 0
        assert filtered.baselined == 1

    def test_empty_baseline_changes_nothing(self) -> None:
        result = LintResult(findings=[finding()], files_checked=1)
        filtered = apply_baseline(result, Baseline())
        assert filtered.findings == result.findings
        assert filtered.baselined == 0


class TestCommittedBaseline:
    def test_committed_baseline_has_justifications(self) -> None:
        from pathlib import Path

        from repro.lint.flow import DEFAULT_BASELINE_PATH

        repo_root = Path(__file__).resolve().parents[2]
        payload = json.loads(
            (repo_root / DEFAULT_BASELINE_PATH).read_text(encoding="utf-8")
        )
        assert payload["version"] == BASELINE_VERSION
        assert payload["findings"], "the committed baseline must not be empty"
        for entry in payload["findings"]:
            assert entry["justification"].strip()
            assert not entry["justification"].startswith("TODO")
        # Each accepted finding is argued on its own: a small baseline,
        # and no blanket justification shared by two entries.
        assert len(payload["findings"]) <= 15
        reasons = [entry["justification"] for entry in payload["findings"]]
        assert len(set(reasons)) == len(reasons)
