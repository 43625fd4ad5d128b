"""The process entry point, ``repro.cli.run``: fast exit, same output.

``run`` ends a normal return with ``os._exit``, so nothing that is not
flushed or closed by then survives. The subprocess cases drive real
processes with stdout piped; the in-process cases pin when ``run``
leaves the exit to the interpreter.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cli as cli
from repro.cli import main, run

SRC = Path(repro.__file__).resolve().parents[1]


def _python(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd
    )


def _repro(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    return _python("-m", "repro.cli", *argv, cwd=cwd)


class TestProcess:
    def test_report_output_is_complete(self, tmp_path, capsys) -> None:
        argv = ["report", "--domains", "60", "--seed", "1"]
        expected_json = tmp_path / "expected.json"
        assert main([*argv, "--json-out", str(expected_json), "--no-ledger"]) == 0
        expected_out = capsys.readouterr().out

        out, ledger = tmp_path / "report.json", tmp_path / "ledger"
        done = _repro(
            *argv, "--json-out", str(out), "--ledger-dir", str(ledger), cwd=tmp_path
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected_out
        assert out.read_text(encoding="utf-8") == expected_json.read_text(
            encoding="utf-8"
        )
        (record,) = ledger.glob("run-*.json")
        assert json.loads(record.read_text())["extra"] == {"exit_code": 0}

    def test_failing_command_keeps_exit_code_and_message(
        self, tmp_path, capsys
    ) -> None:
        crawl = tmp_path / "crawl"
        argv = ["--domains", "3", "--seed", "1", "--out", str(crawl), "--no-ledger"]
        assert main(["simulate", *argv]) == 0
        capsys.readouterr()
        done = _repro("predict", str(crawl), "--no-ledger", cwd=tmp_path)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines()[-1] == (
            f"repro predict: {crawl}: dataset too small to hold out a test split"
        )

    def test_unknown_flag_is_a_usage_error(self, tmp_path) -> None:
        done = _repro("report", "--no-such-flag", cwd=tmp_path)
        assert done.returncode == 2
        assert "unrecognized arguments: --no-such-flag" in done.stderr

    def test_raising_handler_prints_traceback(self, tmp_path) -> None:
        script = (
            "import sys, repro.cli as cli\n"
            "def boom(args, obs):\n"
            "    raise RuntimeError('handler blew up')\n"
            "cli._cmd_report = boom\n"
            "sys.exit(cli.run(['report', '--no-ledger']))\n"
        )
        done = _python("-c", script, cwd=tmp_path)
        assert done.returncode == 1
        assert "Traceback (most recent call last)" in done.stderr
        assert done.stderr.rstrip().endswith("RuntimeError: handler blew up")


class _Exited(Exception):
    """Stands in for ``os._exit``, which would end the test process."""


@pytest.fixture()
def exits(monkeypatch) -> list[int]:
    codes: list[int] = []

    def fake_exit(code: int) -> None:
        codes.append(code)
        raise _Exited

    monkeypatch.setattr(cli.os, "_exit", fake_exit)
    return codes


class _Stdout(io.StringIO):
    def __init__(self, fail: bool) -> None:
        super().__init__()
        self.fail = fail
        self.flushes = 0

    def flush(self) -> None:
        self.flushes += 1
        if self.fail:
            raise BrokenPipeError("reader went away")


class TestRun:
    def _obs_ls(self, tmp_path) -> list[str]:
        return ["obs", "ls", "--ledger-dir", str(tmp_path)]

    def test_normal_return_flushes_then_exits(
        self, tmp_path, monkeypatch, exits
    ) -> None:
        stdout = _Stdout(fail=False)
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(_Exited):
            run(self._obs_ls(tmp_path))
        assert exits == [0]
        assert stdout.flushes >= 1
        assert stdout.getvalue()

    def test_failing_flush_leaves_the_normal_exit(
        self, tmp_path, monkeypatch, exits
    ) -> None:
        monkeypatch.setattr(sys, "stdout", _Stdout(fail=True))
        assert run(self._obs_ls(tmp_path)) == 0
        assert exits == []

    def test_usage_error_propagates(self, exits, capsys) -> None:
        with pytest.raises(SystemExit) as raised:
            run(["report", "--no-such-flag"])
        assert raised.value.code == 2
        assert exits == []
