"""The lint CLI front end + the committed-tree integration gate."""

from __future__ import annotations

import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import all_rules, lint_paths
from repro.lint.cli import PER_FILE_SCOPE
from repro.lint.cli import main as lint_main
from repro.lint.flow import FLOW_RULES
from repro.lint.runner import RUNNER_RULES, discover_files

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")

#: A suppression comment: its bracketed rule list and the reason after it.
SUPPRESSION = re.compile(r"#\s*lint:\s*ignore(?:\[([^\]]*)\])?(.*)")

#: Most inline suppressions the per-file scope may carry.
MAX_SUPPRESSIONS = 15


def run_lint(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m repro.lint ARGV`` from the repository root."""
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


def suppression_comments(paths: list[Path]) -> list[tuple[str, int, str]]:
    """Every ``# lint: ignore`` comment token under ``paths``."""
    comments = []
    for path in discover_files(paths):
        readline = io.StringIO(path.read_text(encoding="utf-8")).readline
        for token in tokenize.generate_tokens(readline):
            if token.type == tokenize.COMMENT and SUPPRESSION.search(token.string):
                comments.append((str(path), token.start[0], token.string))
    return comments


class TestCommittedTree:
    """The acceptance gate: the committed tree lints clean."""

    def test_src_exits_zero(self) -> None:
        findings = lint_paths([SRC]).findings
        assert not findings, "\n".join(f.render() for f in findings)

    def test_tools_and_benchmarks_exit_zero(self) -> None:
        findings = lint_paths(
            [str(REPO_ROOT / "tools"), str(REPO_ROOT / "benchmarks")]
        ).findings
        assert not findings, "\n".join(f.render() for f in findings)

    def test_python_dash_m_entry_point(self) -> None:
        proc = run_lint([])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 error(s)" in proc.stdout

    def test_output_is_identical_across_runs(self) -> None:
        first = run_lint(["src"])
        assert first.returncode == 0
        assert first.stdout == run_lint(["src"]).stdout

    def test_suppressions_are_justified(self) -> None:
        catalogue = {rule.id for _, rule in all_rules()}
        catalogue |= {rule.id for rule in (*RUNNER_RULES, *FLOW_RULES)}
        comments = suppression_comments(
            [REPO_ROOT / scope for scope in PER_FILE_SCOPE]
        )
        assert len(comments) <= MAX_SUPPRESSIONS
        for path, line, comment in comments:
            rules, reason = SUPPRESSION.search(comment).groups()
            named = {rule.strip() for rule in (rules or "").split(",")} - {""}
            where = f"{path}:{line}: {comment}"
            assert named and named <= catalogue, where
            assert reason.strip(), where


class TestLintCli:
    def test_nonzero_exit_on_findings(self, tmp_path, capsys) -> None:
        bad = tmp_path / "src" / "repro" / "badmod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        code = lint_main([str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert code == 1
        assert "det-unseeded-random" in out

    def test_rules_filter(self, tmp_path, capsys) -> None:
        bad = tmp_path / "src" / "repro" / "badmod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\ndef f(a=[]):\n    pass\n")
        code = lint_main([str(tmp_path / "src"), "--rules", "mutable-default"])
        out = capsys.readouterr().out
        assert code == 1
        assert "mutable-default" in out
        assert "det-unseeded-random" not in out

    def test_unknown_rule_is_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            lint_main([SRC, "--rules", "no-such-rule"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unknown rule" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("format", "json"),
            ("sarif", "x"),
            ("baseline", "x"),
            ("no-baseline", None),
            ("write-baseline", None),
        ],
    )
    def test_removed_flags_are_usage_errors(self, flag, value, capsys) -> None:
        # inline suppressions are the one way to accept a finding, and
        # the text report is the one output
        argv = [f"--{flag}"] if value is None else [f"--{flag}", value]
        with pytest.raises(SystemExit) as excinfo:
            lint_main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    def test_repro_has_no_lint_subcommand(self, capsys) -> None:
        # python -m repro.lint is the one entry point
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["lint"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    def test_list_rules(self, capsys) -> None:
        code = lint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in (
            "det-unseeded-random",
            "layering-upward",
            "obs-no-print",
            "mutable-default",
            "api-docstring",
        ):
            assert rule_id in out

    def test_list_rules_includes_flow_and_runner_rules(self, capsys) -> None:
        lint_main(["--list-rules"])
        out = capsys.readouterr().out
        for rule_id in (
            "flow-dead-api",
            "parse-error",
            "lint-stale-ignore",
        ):
            assert rule_id in out


class TestFlowCli:
    """The --flow mode: default scope, explicit paths, stale suppressions."""

    def test_default_scope_exits_zero(self) -> None:
        # no paths: the program and what runs it (tools, benchmarks,
        # examples, perfbench) are in scope, tests are not, so an export
        # only a test uses is reported
        proc = run_lint(["--flow"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "file(s) checked: 0 error(s)" in proc.stdout

    def test_explicit_paths_narrow_the_scope(self) -> None:
        # src alone misses the consumers that keep its exports alive
        proc = run_lint(["--flow", "src"])
        assert proc.returncode == 1
        assert "flow-dead-api" in proc.stdout

    def test_flow_output_is_byte_identical_across_runs(self, capsys) -> None:
        # repro.obs alone: the exports the rest of the program uses are
        # findings, spread over several files
        argv = ["--flow", str(REPO_ROOT / "src" / "repro" / "obs")]
        lint_main(argv)
        first = capsys.readouterr().out
        lint_main(argv)
        assert capsys.readouterr().out == first
        assert "[flow-dead-api]" in first

    def test_rules_cannot_narrow_a_flow_run(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--flow", "--rules", "flow-dead-api", "src"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--rules" in captured.err
        assert captured.out == ""

    def test_stale_flow_suppression_is_reported(self, tmp_path) -> None:
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (package / "api.py").write_text(
            '__all__ = [\n'
            '    "used",  # lint: ignore[flow-dead-api] kept for plugins\n'
            ']\n\n\n'
            'def used() -> int:\n'
            '    """One."""\n'
            '    return 1\n'
        )
        (package / "user.py").write_text("from repro.core.api import used\n")
        tree = str(tmp_path / "src")
        assert run_lint([tree]).returncode == 0
        proc = run_lint(["--flow", tree])
        assert proc.returncode == 1
        assert "api.py:2:0: error:" in proc.stdout
        assert "[lint-stale-ignore]" in proc.stdout
