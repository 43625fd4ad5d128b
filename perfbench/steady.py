"""Steadiness mode: run each workload k times back to back and report,
for every metric, the median, the quartiles and the run-to-run spread
against the metric's bound::

    python3 perfbench/steady.py --runs 10 [--workloads report_cold ...]
        [--save runs.json] [--compare base.json]

Run ``i`` (from 1) uses seed ``i`` and lasts ``run_seconds`` from
``BENCHMARK.json``, so two invocations with the same ``--runs`` measure
the same inputs for the same time. The spread is the inter-quartile
distance as a share of the median, as ``statistics.quantiles(values,
n=4)`` gives the quartiles. Bounds come from ``BENCHMARK.json``; the
printed metrics it does not list use :data:`EXTRA_BOUNDS` and are shown
for information. Every metric whose spread exceeds its bound is listed
at the end; the command exits 1 if one of them is a ``BENCHMARK.json``
end-to-end metric.

``--compare`` reads a file written by ``--save`` (the parent commit's
runs, refused unless it has the same run length and seeds) and
classifies each metric: ``unresolved`` when either side
spreads wider than the bound (unless every run of one side beats every
run of the other), ``worse`` when the median moved the wrong way by
more than the bound, ``better`` when it moved the right way by more
than the parent's own spread, else ``unchanged``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats
from harness import BENCH_DIR, ROOT

#: Bounds shown for the printed metrics ``BENCHMARK.json`` does not list.
EXTRA_BOUNDS = {
    "latency_p50_wall_ms": 0.25, "setup_wall_s": 0.25,
    "latency_tail_ms": 0.25, "freshness_p50_ms": 0.25,
}

#: ``better`` direction of the metrics outside ``BENCHMARK.json``.
EXTRA_BETTER = {name: "lower" for name in (*EXTRA_BOUNDS, "error_ratio")}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run; returns every metric it printed."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({completed.returncode}):\n"
            + completed.stdout[-2000:] + completed.stderr[-2000:]
        )
    return next(
        json.loads(line.partition(": ")[2]) for line in lines
        if line.startswith("all-metrics: ")
    )


def summarize(values: dict[str, list[float]], bounds: dict[str, float]) -> list[str]:
    """Table rows: median, quartiles and spread against the bound."""
    rows = [f"  {'metric':<26s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
            f" {'spread':>8s} {'bound':>6s}  n"]
    for name, series in values.items():
        q1, q2, q3 = stats.quartiles(series)
        bound = bounds.get(name)
        spread = stats.spread(series)
        flag = "" if bound is None else f" {bound:6.2f}" + (" OVER" if spread > bound else "")
        shown = f"{spread:8.2%}" if q2 else f"{'-':>8s}"
        rows.append(
            f"  {name:<26s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {shown}{flag}  {len(series)}"
        )
    return rows


def compare(base: list[float], new: list[float], bound: float, better: str) -> str:
    """Classify one metric's change from ``base`` runs to ``new`` runs."""
    sign = 1 if better == "lower" else -1
    if max(stats.spread(base), stats.spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better (every run)"
        if all(sign * n > sign * b for n in new for b in base):
            return "worse (every run)"
        return "unresolved"
    base_median, new_median = stats.median(base), stats.median(new)
    change = sign * (new_median - base_median) / base_median
    if change > bound:
        return f"worse ({change:+.1%})"
    if -change > stats.spread(base):
        return f"better ({-change:.1%})"
    return "unchanged"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = _spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", metavar="PATH", help="write every run's values here")
    parser.add_argument("--compare", metavar="PATH", help="classify against saved runs")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    base = json.loads(Path(args.compare).read_text()) if args.compare else None
    if base is not None and (base["run_seconds"], base["seeds"]) != (seconds, seeds):
        raise SystemExit(
            f"{args.compare} holds runs of {base['run_seconds']} s on seeds {base['seeds']},"
            f" these are {seconds} s on seeds {seeds}: not comparable"
        )

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    gating = set(bounds)
    bounds.update(EXTRA_BOUNDS)
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"] + spec["per_layer"]}
    better.update(EXTRA_BETTER)
    saved: dict[str, dict[str, list[float]]] = {}
    over: list[str] = []
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            metrics = run_once(workload, seed, seconds)
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
        saved[workload] = values
        print(f"{workload}: {args.runs} runs of {seconds} s (seeds 1..{args.runs})")
        for row in summarize(values, bounds):
            print(row)
        over += [
            f"{workload}/{name}" for name, series in values.items()
            if name in bounds and stats.spread(series) > bounds[name]
        ]
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"run_seconds": seconds, "seeds": seeds, "runs": saved}, indent=1
        ))
    if base is not None:
        print("change against", args.compare)
        for workload, values in saved.items():
            for name, series in values.items():
                parent = base["runs"].get(workload, {}).get(name)
                if parent is not None and name in bounds:
                    verdict = compare(parent, series, bounds[name], better[name])
                    print(f"  {workload:<12s} {name:<22s} {verdict}")
    print("spread over bound: " + (", ".join(over) or "none"))
    return 1 if any(name.partition("/")[2] in gating for name in over) else 0


if __name__ == "__main__":
    sys.exit(main())
