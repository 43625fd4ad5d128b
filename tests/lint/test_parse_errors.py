"""Hostile input hardening: structured parse-error findings, no tracebacks."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.lint import SourceFile, lint_paths
from repro.lint.flow import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def bad_tree(tmp_path: Path) -> Path:
    root = tmp_path / "src" / "repro" / "core"
    root.mkdir(parents=True)
    (root / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    (root / "binary.py").write_bytes(b"data = '\xff\xfe\x00'\n")
    (root / "fine.py").write_text("x = 1\n", encoding="utf-8")
    return tmp_path / "src"


class TestPerFileMode:
    def test_syntax_error_yields_structured_finding(self, tmp_path) -> None:
        result = lint_paths([bad_tree(tmp_path)])
        rules = {f.path.rsplit("/", 1)[-1]: f.rule for f in result.findings}
        assert rules["broken.py"] == "parse-error"
        assert rules["binary.py"] == "parse-error"
        assert result.exit_code == 1
        assert result.files_checked == 3

    def test_undecodable_bytes_message_names_the_offset(self, tmp_path) -> None:
        result = lint_paths([bad_tree(tmp_path)])
        binary = next(
            f for f in result.findings if f.path.endswith("binary.py")
        )
        assert "cannot decode as UTF-8" in binary.message
        assert "byte offset" in binary.message

    def test_unreadable_file_is_reported_not_raised(self, tmp_path) -> None:
        source = SourceFile.from_path(tmp_path / "missing.py")
        assert source.parse_error is not None
        assert "cannot read" in str(source.parse_error.msg)

    def test_cli_never_prints_a_traceback(self, tmp_path) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(bad_tree(tmp_path))],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "parse-error" in proc.stdout


class TestFlowMode:
    def test_flow_reports_parse_errors_and_exits_nonzero(self, tmp_path) -> None:
        analysis = analyze_paths([bad_tree(tmp_path)])
        rules = {f.path.rsplit("/", 1)[-1]: f.rule for f in analysis.result.findings}
        assert rules["broken.py"] == "parse-error"
        assert rules["binary.py"] == "parse-error"
        assert analysis.result.exit_code == 1

    def test_broken_modules_do_not_poison_the_graph(self, tmp_path) -> None:
        analysis = analyze_paths([bad_tree(tmp_path)])
        assert not any(
            module.endswith("broken") for module in analysis.graph.modules
        )

    def test_flow_cli_never_prints_a_traceback(self, tmp_path) -> None:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                "--flow",
                str(bad_tree(tmp_path)),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "parse-error" in proc.stdout
