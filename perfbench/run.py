"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload report_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced variant and reports the per-layer metrics instead. Metric names
come from ``BENCHMARK.json`` at the repository root. Every metric is
printed with its unit and sample count; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Any
failed operation or missing metric exits 1; a setup failure exits 2 and
a run over its time limit exits 3, both without a result line.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from harness import ROOT, SRC, BenchError, Harness
from workloads import report_cold, reanalyze, serve_live

WORKLOADS = {"report_cold": report_cold, "reanalyze": reanalyze, "serve_live": serve_live}

#: Every run ends within this many seconds, whatever happens.
TIME_LIMIT_S = 170


class _Overtime(Exception):
    """Raised by the alarm when a run exceeds :data:`TIME_LIMIT_S`."""


def _overtime(signum: int, frame: object) -> None:
    raise _Overtime()


def _declared(trace: bool) -> list[str]:
    """The metric names ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = bool(args.trace)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    declared = _declared(trace)

    signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(TIME_LIMIT_S)
    try:
        with Harness(args.seed, args.seconds) as harness:
            result = WORKLOADS[args.workload](harness, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except _Overtime:
        print(f"perfbench: run exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    result.finish()

    mode = "traced" if trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  {args.seconds:g} s")
    for name, metric in result.metrics.items():
        share = ""
        if trace and metric.unit == "s":
            share = (
                "  outside the traced unit" if name in result.outside
                else f"  {metric.value / result.unit_s:7.2%} of the unit"
            )
        note = f"  ({metric.note})" if metric.note else ""
        print(
            f"  {name:<26s} {metric.value:14.6g} {metric.unit:<6s}"
            f" n={metric.samples}{share}{note}"
        )
    for line in result.info:
        print(f"  {line}")
    for why in result.failures:
        print(f"  FAILED: {why}")
    missing = [name for name in declared if name not in result.metrics]
    for name in missing:
        print(f"  MISSING: {name}")
    print("all-metrics: " + json.dumps(
        {name: {"value": m.value, "unit": m.unit, "samples": m.samples}
         for name, m in result.metrics.items()}
    ))
    correct = result.failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name].value, "unit": result.metrics[name].unit}
            for name in declared if name in result.metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
