"""Compare a pytest-benchmark JSON run against a committed baseline.

Usage::

    python tools/check_bench_regression.py BASELINE.json CURRENT.json \
        [--threshold 2.0] [--allow-missing]

    python tools/check_bench_regression.py --ledger .repro/ledger \
        [--command crawl] [--threshold 2.0] [--history 10]

Benchmarks are matched by their pytest ``fullname``. A benchmark
regresses when its current mean exceeds ``threshold`` times the
baseline mean; any regression makes the script exit ``1`` with a
per-benchmark table on stdout.

A benchmark present in the *baseline* but absent from the current
report exits ``3`` (distinct from the regression exit code): a renamed
or deleted bench would otherwise silently drop out of the gate and
every future regression in it would pass. Pass ``--allow-missing``
when the omission is intentional (e.g. a CI job that runs a subset of
scales) — missing benches are then reported but don't fail.
*New* benchmarks with no baseline never fail; they are reported so the
baseline can be refreshed.

``--ledger`` switches the data source from pytest-benchmark JSON to the
run ledger (:mod:`repro.obs.runledger`): the newest run's per-span
duration totals (the ``sum`` of each ``span_duration_seconds{span=…}``
sample in the record's metrics) are compared against the mean of the
preceding runs of the same command. Same matching, threshold, and exit-code semantics —
span names play the role of benchmark fullnames. This turns every
ordinary CLI invocation into a regression datapoint without a separate
benchmarking pass.

The threshold is deliberately loose (2x by default): this is a smoke
check against order-of-magnitude regressions — e.g. an analysis
quietly bypassing the shared index — not a microbenchmark gate. CI
runners are noisy; tighten locally, not in CI.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Exit code when a baseline benchmark is missing from the current report.
EXIT_MISSING_BASELINE_BENCH = 3

#: Exit code when the ledger lacks enough history to compare anything.
EXIT_NO_HISTORY = 2


def load_means(path: str) -> dict[str, float]:
    """Map benchmark fullname -> mean seconds from a pytest-benchmark JSON."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        bench["fullname"]: bench["stats"]["mean"]
        for bench in payload.get("benchmarks", [])
    }


def span_totals(metrics: dict) -> dict[str, float]:
    """Span name -> total seconds, from one record's duration histogram."""
    family = metrics.get("span_duration_seconds", {})
    return {
        sample["labels"]["span"]: sample["sum"]
        for sample in family.get("samples", ())
    }


def ledger_means(
    directory: str, command: str | None, history: int
) -> tuple[dict[str, float], dict[str, float]] | None:
    """(baseline, current) span-duration tables from the run ledger.

    ``current`` is the newest matching run's per-span total seconds;
    ``baseline`` is the mean of the up-to-``history`` runs before it.
    Returns None when fewer than two matching runs exist.
    """
    from repro.obs.runledger import RunLedger

    records = [
        record
        for record in RunLedger(directory).records()
        if command is None or record.command == command
    ]
    if len(records) < 2:
        return None
    current_record = records[-1]
    prior = records[-(history + 1):-1]
    totals: dict[str, list[float]] = {}
    for record in prior:
        for name, seconds in span_totals(record.metrics).items():
            totals.setdefault(name, []).append(seconds)
    baseline = {
        name: sum(values) / len(values) for name, values in totals.items()
    }
    current = span_totals(current_record.metrics)
    label = f"run {current_record.run_id} (seq {current_record.seq})"
    print(
        f"ledger mode: {label} vs mean of {len(prior)} prior"
        f" {current_record.command!r} run(s)"
    )
    return baseline, current


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float,
) -> tuple[list[str], list[str]]:
    """Return (regressed fullnames, baseline benches missing from current)."""
    regressions: list[str] = []
    shared = sorted(set(baseline) & set(current))
    width = max((len(name) for name in shared), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  ratio")
    for name in shared:
        ratio = current[name] / baseline[name] if baseline[name] else float("inf")
        marker = "  << REGRESSION" if ratio > threshold else ""
        print(
            f"{name:<{width}}  {baseline[name]:>9.4f}s  {current[name]:>9.4f}s"
            f"  {ratio:4.2f}x{marker}"
        )
        if ratio > threshold:
            regressions.append(name)
    missing = sorted(set(baseline) - set(current))
    for name in missing:
        print(f"{name}: in baseline but MISSING from the current report")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name}: new benchmark, no baseline (skipped)")
    return regressions, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline", nargs="?", default=None, help="committed baseline JSON"
    )
    parser.add_argument(
        "current", nargs="?", default=None,
        help="freshly produced benchmark JSON",
    )
    parser.add_argument(
        "--ledger",
        metavar="DIR",
        default=None,
        help="compare the newest run-ledger entry against the mean of its"
        " predecessors instead of two benchmark files",
    )
    parser.add_argument(
        "--command",
        default=None,
        help="with --ledger: only consider runs of this CLI command",
    )
    parser.add_argument(
        "--history",
        type=int,
        default=10,
        help="with --ledger: baseline over at most N prior runs (default 10)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="fail when current mean > threshold * baseline mean (default 2.0)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="report baseline benchmarks absent from the current run"
        " without failing (intentional subset runs)",
    )
    args = parser.parse_args(argv)

    if args.ledger is not None:
        tables = ledger_means(args.ledger, args.command, args.history)
        if tables is None:
            print(
                "ledger has fewer than two matching runs; nothing to compare"
            )
            return EXIT_NO_HISTORY
        baseline, current = tables
    elif args.baseline is None or args.current is None:
        parser.error("BASELINE and CURRENT are required without --ledger")
        return 2  # unreachable; parser.error exits
    else:
        baseline = load_means(args.baseline)
        current = load_means(args.current)

    regressions, missing = compare(baseline, current, args.threshold)
    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) slower than"
            f" {args.threshold:.1f}x baseline"
        )
        return 1
    if missing and not args.allow_missing:
        print(
            f"\n{len(missing)} baseline benchmark(s) missing from the current"
            " report — a renamed or deleted bench silently leaves the gate."
            " Refresh benchmarks/BENCH_baseline.json, or pass --allow-missing"
            " if this run intentionally covers a subset."
        )
        return EXIT_MISSING_BASELINE_BENCH
    print("\nno regressions past threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
