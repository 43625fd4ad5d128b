"""Process plumbing shared by the workloads.

A :class:`Harness` owns one run's temporary directory (inside the
checkout, removed on exit) and every process the run starts (killed and
reaped on exit, whatever the exit path). Children run with
``PYTHONHASHSEED`` fixed, unbuffered output, ``src/`` on the path, a
private ledger directory and the temporary directory as working
directory, so nothing they write lands in the repository.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench-tmp"

#: Longest a single child may run before it is killed.
CHILD_TIMEOUT = 150.0


class BenchError(RuntimeError):
    """A run could not be carried out (a setup step failed)."""


@dataclass
class Exit:
    """How one child process ended."""

    code: int
    start: float
    end: float
    maxrss_mb: float


class Harness:
    """One benchmark run's processes and scratch space."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.python = sys.executable
        self._children: list[subprocess.Popen] = []
        self.tmp = Path()
        self.env: dict[str, str] = {}

    def __enter__(self) -> "Harness":
        TMP_PARENT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            PYTHONUNBUFFERED="1",
            REPRO_LEDGER_DIR=str(self.tmp / "ledger"),
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        for proc in self._children:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        """Start a child in the run's directory with the run's env."""
        kwargs.setdefault("stdout", subprocess.DEVNULL)
        kwargs.setdefault("stderr", subprocess.DEVNULL)
        proc = subprocess.Popen(argv, cwd=self.tmp, env=self.env, **kwargs)
        self._children.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT) -> tuple[int, float]:
        """Wait for ``proc`` (killing it after ``timeout``); return its
        exit code and peak RSS in MB (``ru_maxrss``)."""
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024

    def run(self, argv: list[str], **kwargs) -> Exit:
        """Run a child to completion, timed from spawn to exit."""
        start = time.perf_counter()
        proc = self.spawn(argv, **kwargs)
        code, maxrss = self.reap(proc)
        return Exit(code, start, time.perf_counter(), maxrss)

    def probed(self, samples: str, *argv: str) -> list[str]:
        """``argv`` (arguments to ``python``) run inside the machine-speed
        probe, which writes its samples to ``samples`` in the run's
        directory."""
        return [self.python, str(BENCH_DIR / "speed.py"), str(self.tmp / samples), *argv]

    def stop(self, proc: subprocess.Popen) -> tuple[int, float]:
        """Terminate a long-lived child and reap it."""
        proc.terminate()
        return self.reap(proc, timeout=10.0)

    def log(self, name: str):
        """A file in the run directory for a child's stderr."""
        return (self.tmp / name).open("wb")

    # -- inputs ------------------------------------------------------------

    def generate(self, workload: str) -> tuple[Path, dict]:
        """Run the input generator in its own process; return the input
        directory and its ``plan.json``."""
        out = self.tmp / "inputs"
        with self.log("generate.err") as err:
            done = self.run(
                [self.python, str(BENCH_DIR / "inputs.py"), workload,
                 "--seed", str(self.seed), "--out", str(out)],
                stderr=err,
            )
        if done.code != 0:
            raise BenchError(
                f"input generation failed ({done.code}):\n" + self.tail("generate.err")
            )
        return out, json.loads((out / "plan.json").read_text())

    def tail(self, name: str, lines: int = 15) -> str:
        """The last lines of a log file in the run directory."""
        path = self.tmp / name
        if not path.exists():
            return ""
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
