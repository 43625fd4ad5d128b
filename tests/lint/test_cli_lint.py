"""The lint CLI front ends + the committed-tree integration gate."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.cli import main as repro_main
from repro.lint import lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.flow.baseline import Baseline

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")

#: The whole-program scope CI runs: every consumer of the library, so
#: a use from tests, benchmarks or examples keeps an export alive.
FLOW_SCOPE = ["src", "tools", "benchmarks", "tests", "examples", "perfbench"]


def _unbaselined(findings):
    """Findings not accepted by the committed baseline.

    ``lint_paths`` keeps paths as addressed (absolute here), while the
    baseline stores repo-relative keys — relativize before matching.
    """
    baseline = Baseline.load(REPO_ROOT / "tools" / "lint_baseline.json")
    kept = []
    for finding in findings:
        path = Path(finding.path)
        if path.is_absolute():
            path = path.relative_to(REPO_ROOT)
        relative = finding.__class__(
            path=path.as_posix(),
            line=finding.line,
            column=finding.column,
            rule=finding.rule,
            message=finding.message,
            severity=finding.severity,
        )
        if not baseline.matches(relative):
            kept.append(finding)
    return kept


class TestCommittedTree:
    """The acceptance gate: the committed tree lints clean (modulo the
    committed baseline, exactly as the CLI subtracts it)."""

    def test_src_exits_zero(self) -> None:
        findings = _unbaselined(lint_paths([SRC]).findings)
        assert not findings, "\n".join(f.render() for f in findings)

    def test_tools_and_benchmarks_exit_zero(self) -> None:
        result = lint_paths(
            [str(REPO_ROOT / "tools"), str(REPO_ROOT / "benchmarks")]
        )
        findings = _unbaselined(result.findings)
        assert not findings, "\n".join(f.render() for f in findings)

    def test_python_dash_m_entry_point(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 error(s)" in proc.stdout

    def test_output_is_identical_across_runs(self) -> None:
        def run() -> str:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.lint", "src", "--format", "json"],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 0
            return proc.stdout

        assert run() == run()


class TestLintCli:
    def test_repro_lint_subcommand(self, capsys) -> None:
        code = repro_main(["lint", SRC])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_nonzero_exit_on_findings(self, tmp_path, capsys) -> None:
        bad = tmp_path / "src" / "repro" / "badmod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        code = lint_main([str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert code == 1
        assert "det-unseeded-random" in out

    def test_json_format(self, tmp_path, capsys) -> None:
        bad = tmp_path / "src" / "repro" / "badmod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(a=[]):\n    pass\n")
        code = lint_main(
            [str(tmp_path / "src"), "--format", "json", "--rules", "mutable-defaults"]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["findings"][0]["rule"] == "mutable-default"

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
        code = lint_main([SRC, "--rules", "no-such-rule"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().out

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
            "flow-det-taint",
            "flow-exc-escape",
            "flow-dead-api",
            "parse-error",
            "lint-stale-ignore",
        ):
            assert rule_id in out


class TestFlowCli:
    """The --flow mode: committed-tree gate, baseline, SARIF artifact."""

    def run(self, argv: list[str]):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        return proc

    def test_committed_tree_exits_zero_with_baseline(self) -> None:
        proc = self.run(["--flow", *FLOW_SCOPE])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "file(s) checked" in proc.stdout
        assert "stale baseline entry" not in proc.stderr

    def test_no_baseline_reports_the_accepted_findings(self) -> None:
        proc = self.run(["--flow", "--no-baseline", "src"])
        assert proc.returncode == 1
        assert "flow-dead-api" in proc.stdout

    def test_rules_cannot_narrow_a_flow_run(self, capsys) -> None:
        code = lint_main(["--flow", "--rules", "flow-det-taint", "src"])
        assert code == 2
        assert "--rules" in capsys.readouterr().out

    def test_sarif_artifact_is_written_and_stdout_stays_text(
        self, tmp_path
    ) -> None:
        target = tmp_path / "lint.sarif"
        proc = self.run(["--flow", "--sarif", str(target), *FLOW_SCOPE])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["version"] == "2.1.0"
        assert "sarif report written" in proc.stderr
        assert "file(s) checked" in proc.stdout

    def test_sarif_stdout_is_pure_json(self) -> None:
        proc = self.run(["--flow", "--format", "sarif", *FLOW_SCOPE])
        assert proc.returncode == 0, proc.stderr
        document = json.loads(proc.stdout)
        assert document["runs"][0]["tool"]["driver"]["name"] == "repro.lint"

    def test_sarif_output_is_byte_identical_across_runs(self) -> None:
        argv = ["--flow", "--format", "sarif", "--no-baseline", "src"]
        assert self.run(argv).stdout == self.run(argv).stdout

    def test_write_baseline_round_trips_to_exit_zero(self, tmp_path) -> None:
        bad = tmp_path / "tree" / "src" / "repro" / "core" / "report.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n\n\ndef build_report():\n    return time.time()\n"
        )
        baseline = tmp_path / "baseline.json"
        common = [
            "--flow",
            "--baseline",
            str(baseline),
            str(tmp_path / "tree" / "src"),
        ]
        first = self.run(common)
        assert first.returncode == 1
        written = self.run([*common, "--write-baseline"])
        assert written.returncode == 0, written.stdout + written.stderr
        assert "baseline written" in written.stderr
        second = self.run(common)
        assert second.returncode == 0
        assert "1 baselined" in second.stdout

    def dead_api_tree(self, tmp_path: Path, names: list[str]) -> Path:
        module = tmp_path / "tree" / "src" / "repro" / "core" / "api.py"
        module.parent.mkdir(parents=True, exist_ok=True)
        body = "".join(
            f"\n\ndef {name}() -> int:\n    return 1\n" for name in names
        )
        module.write_text(f"__all__ = {names!r}\n{body}")
        return tmp_path / "tree" / "src"

    def test_write_baseline_keeps_existing_justifications(
        self, tmp_path
    ) -> None:
        tree = self.dead_api_tree(tmp_path, ["kept"])
        baseline = tmp_path / "baseline.json"
        common = ["--flow", "--baseline", str(baseline), str(tree)]
        assert self.run([*common, "--write-baseline"]).returncode == 0
        document = json.loads(baseline.read_text(encoding="utf-8"))
        (entry,) = document["findings"]
        entry["justification"] = "kept for the plugin API (issue #7)"
        baseline.write_text(json.dumps(document), encoding="utf-8")

        self.dead_api_tree(tmp_path, ["kept", "added"])
        written = self.run([*common, "--write-baseline"])
        assert written.returncode == 0, written.stdout + written.stderr
        reasons = {
            entry["message"].split("'")[1]: entry["justification"]
            for entry in json.loads(baseline.read_text(encoding="utf-8"))[
                "findings"
            ]
        }
        assert reasons == {
            "kept": "kept for the plugin API (issue #7)",
            "added": "TODO: justify",
        }

    def test_stale_flow_entry_is_reported_and_exit_stays_zero(
        self, tmp_path
    ) -> None:
        tree = self.dead_api_tree(tmp_path, ["gone"])
        baseline = tmp_path / "baseline.json"
        common = ["--flow", "--baseline", str(baseline), str(tree)]
        assert self.run([*common, "--write-baseline"]).returncode == 0
        self.dead_api_tree(tmp_path, [])
        proc = self.run(common)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "stale baseline entry:" in proc.stderr
        assert "'gone'" in proc.stderr
        assert "stale baseline entry" not in proc.stdout
