"""Machine-speed probe: times measured on a shared machine, scaled to a
fixed machine speed.

On a shared VM the speed of the whole machine drifts: other tenants slow
every process by 20 to 40% for minutes at a time, and by up to 2x for a
second or two. Two sets of runs of the same code taken in different
phases then differ by more than any useful bound.

So every process under test runs inside this probe::

    python3 perfbench/speed.py SAMPLES -m repro.cli report ...
    python3 perfbench/speed.py SAMPLES -c "import repro.cli"
    python3 perfbench/speed.py SAMPLES perfbench/worker.py DIR

Every :data:`PROBE_INTERVAL_S` of wall time a ``SIGALRM`` handler in the
process times one pass of fixed pure-Python reference work (no code of
the program under test) and appends ``began reference cost`` to the
``SAMPLES`` file, where ``began`` is a ``time.perf_counter`` reading
(``CLOCK_MONOTONIC``, the same clock in every process of the machine).
The pass allocates no container, so it never triggers a collection of
the program's heap, and the collector is held off while it runs.

A stretch of the process's work is then reported as it would read on a
machine where the pass takes :data:`REFERENCE_S`::

    scaled = (wall - probe cost inside it) * mean(REFERENCE_S / reference)

The mean speed over probes taken at even intervals is the time-average
speed of the machine over the stretch, which is what stretches a piece
of work: a faster or slower machine leaves the scaled time where it
was, a faster or slower program moves it. The probe samples the process
under test itself, from its first line to its last, so a slow phase that
starts or ends in the middle of a seconds-long ``repro report`` is
weighed for the share of the process it covers.
"""

from __future__ import annotations

import atexit
import gc
import os
import runpy
import signal
import statistics
import sys
import time
from dataclasses import dataclass

#: Seconds of wall time between two probes.
PROBE_INTERVAL_S = 0.025

#: What one reference pass takes on the reference machine (a quiet
#: 2-core x86-64 VM, Python 3.11); a scaled time of 1 s is one second on
#: that machine.
REFERENCE_S = 0.0003

_MASK = 0xFFFFFFFFFFFFFFFF
_KEYS = [f"name{index}.eth" for index in range(331)]
_TABLE = dict.fromkeys(_KEYS, 0)


def _reference_work() -> int:
    """Interpreter work of the kind the program does (string keys, dict
    updates, 64-bit integer mixing) that allocates no container."""
    lane = 0x0123456789ABCDEF
    total = 0
    for index in range(600):
        lane = (((lane << 7) | (lane >> 57)) & _MASK) ^ (index * 0x9E3779B97F4A7C15 & _MASK)
        key = _KEYS[index % 331]
        _TABLE[key] = (_TABLE[key] + (lane & 0xFF)) & 0xFFFF
        total += len(key) ^ (lane & 7)
    return total


@dataclass(frozen=True)
class Sample:
    """One probe: when it began, how long the reference pass took, and
    what the probe cost the process in all."""

    began: float
    reference: float
    cost: float


class Probe:
    """Samples machine speed from inside the running process."""

    def __init__(self, path: str) -> None:
        # a raw descriptor: a probe that fires while the last one is still
        # writing must not re-enter a buffered file object
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._busy = False

    def start(self) -> None:
        for _ in range(3):  # the interpreter specialises the loop on first runs
            _reference_work()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        # the interpreter resets its handlers while it shuts down, and an
        # alarm after that would kill the process
        atexit.register(self.stop)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()
        self._busy = True  # an alarm still pending must not write any more
        os.close(self._fd)

    def sample(self, signum: int | None = None, frame: object = None) -> None:
        if self._busy:  # the machine stalled past a whole interval
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            _reference_work()
            reference = time.perf_counter() - began
            line = f"{began:.7f} {reference:.7f} {time.perf_counter() - began:.7f}\n"
            os.write(self._fd, line.encode("ascii"))
        finally:
            if collecting:
                gc.enable()
            self._busy = False


def load(path) -> list[Sample]:
    """Every complete probe line in a samples file, oldest first."""
    try:
        text = open(path, encoding="ascii").read()
    except FileNotFoundError:
        return []
    samples = []
    for line in text.splitlines(keepends=True):
        fields = line.split()
        if line.endswith("\n") and len(fields) == 3:
            samples.append(Sample(*map(float, fields)))
    return samples


def window(samples: list[Sample], start: float, end: float) -> list[Sample]:
    """The probes that began inside ``[start, end]``, or the one nearest
    to the window when none did."""
    inside = [s for s in samples if start <= s.began <= end]
    if inside or not samples:
        return inside
    middle = (start + end) / 2
    return [min(samples, key=lambda s: abs(s.began - middle))]


def speed(samples: list[Sample]) -> float:
    """Mean machine speed over ``samples`` relative to the reference
    machine (above 1 is faster); 1 when there are no samples."""
    if not samples:
        return 1.0
    return statistics.fmean(REFERENCE_S / s.reference for s in samples)


def scaled(wall: float, samples: list[Sample], start: float, end: float) -> float:
    """``wall`` seconds spent in ``[start, end]``, without the probes'
    own cost, at the reference machine's speed."""
    inside = window(samples, start, end)
    cost = sum(s.cost for s in inside if start <= s.began <= end)
    return max(0.0, wall - cost) * speed(inside)


def describe(samples: list[Sample]) -> str:
    """One line: the reference pass's median time and the implied speed."""
    if not samples:
        return "machine speed: no probes"
    middle = statistics.median(s.reference for s in samples)
    return (
        f"machine speed: reference pass {middle * 1e6:.0f} us (median of"
        f" {len(samples)} probes), {REFERENCE_S / middle:.3f}x the reference machine"
    )


def main() -> None:
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    path, target, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    Probe(path).start()
    if target == "-m":
        sys.argv = [rest[0], *rest[1:]]
        runpy.run_module(rest[0], run_name="__main__", alter_sys=True)
    elif target == "-c":
        sys.argv = ["-c", *rest[1:]]
        exec(compile(rest[0], "<string>", "exec"), {"__name__": "__main__"})
    else:
        sys.argv = [target, *rest]
        runpy.run_path(target, run_name="__main__")


if __name__ == "__main__":
    main()
