"""Traced runner: runs one workload's unit of work in-process under spans.

Started by ``run.py --trace 1`` in a fresh interpreter (never in the
generator's process)::

    python3 perfbench/traced.py report_cold --inputs DIR --out result.json
    python3 perfbench/traced.py reanalyze --inputs DIR --out result.json --seconds S
    python3 perfbench/traced.py serve_live --inputs DIR --out result.json

It times the ``repro.cli`` import, wraps the substrate's entry points
(:func:`layers.install`), passes one tracer and registry to the
program's public functions, and writes per-layer numbers as JSON. A
``unit`` root span encloses each traced unit, so its self time is the
time no layer span covers (``untraced_s``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import time
from pathlib import Path

import checks
import layers
import plan

#: Per-pass core metrics, each read from the ``analyze.<pass>`` span.
CORE_PASSES = (
    "summary", "timing", "actors", "comparison", "resale",
    "losses", "hijackable", "profit", "typosquat",
)

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_LAYERS = (
    "simulation", "chain", "keccak", "ens", "indexer",
    "explorer", "marketplace", "crawler",
)


def _import_cli() -> float:
    """Import ``repro.cli`` and return the seconds it took."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    return time.perf_counter() - start


def _spans(tracer):
    """``tracer.span``, or a no-op span factory for untraced units."""
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span


def _family_sum(registry, name: str, **match: str) -> float:
    """Sum of a metric family's samples whose labels include ``match``."""
    family = registry.get(name)
    if family is None:
        return 0.0
    return sum(
        sample.value
        for labels, sample in family.items()
        if all(labels.get(key) == value for key, value in match.items())
    )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_metrics(tracer, registry, counts, units: int = 1) -> dict:
    """Per-layer numbers per traced unit, from the span tree, the
    registry's counters and the wrappers' counts."""
    by_layer, by_name = layers.self_times(tracer.roots)
    metrics = {
        f"{layer}.self_s": by_layer.get(layer, 0.0) / units for layer in SELF_LAYERS
    }
    metrics["core.context_s"] = by_name.get("analyze.reregistrations", 0.0) / units
    for name in CORE_PASSES:
        metrics[f"core.{name}_s"] = by_name.get(f"analyze.{name}", 0.0) / units
    metrics["core.render_s"] = by_name.get("core.render", 0.0) / units
    metrics["columnar.open_s"] = by_name.get("columnar.load", 0.0) / units
    metrics["datasets.validate_s"] = by_name.get("datasets.validate", 0.0) / units
    metrics["untraced_s"] = by_layer.get("untraced", 0.0) / units
    hits = _family_sum(registry, "analysis_cache_requests_total", outcome="hit")
    misses = _family_sum(registry, "analysis_cache_requests_total", outcome="miss")
    metrics["core.context_hit_ratio"] = _ratio(hits, hits + misses)
    for metric, family in (
        ("chain.txs", "chain_transactions_total"),
        ("simulation.events", "scenario_events_total"),
        ("crawler.requests", "crawler_requests_total"),
        ("crawler.rows", "crawler_rows_total"),
        ("crawler.retries", "crawler_retries_total"),
    ):
        metrics[metric] = _family_sum(registry, family) / units
    metrics["keccak.calls"] = counts.keccak_calls / units
    metrics["keccak.repeat_ratio"] = _ratio(counts.keccak_repeats, counts.keccak_calls)
    metrics["ens.normalize_calls"] = counts.normalize_calls / units
    metrics["layers"] = {layer: value / units for layer, value in by_layer.items()}
    return metrics


def report_cold(inputs: Path, args: argparse.Namespace) -> dict:
    """One ``repro report`` through ``repro.cli.main`` under the tracer.

    The CLI builds its own tracer and registry; the runner substitutes
    shared ones at the CLI's import site, so the report's spans and
    counters land beside the substrate wrappers' spans.
    """
    spec = json.loads((inputs / "plan.json").read_text())
    import_s = _import_cli()
    import repro.cli as cli
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer()
    registry = MetricsRegistry()
    counts = layers.install(tracer)
    cli.Tracer = lambda registry=None: tracer
    cli.MetricsRegistry = lambda: registry
    cli.report_json = layers.spanned(tracer, "core.render", cli.report_json)
    cli.dataset_digest = layers.spanned(tracer, "datasets.digest", cli.dataset_digest)
    out = Path(args.out).with_suffix(".report.json")
    argv = [
        "report", "--domains", str(plan.DOMAINS),
        "--seed", str(spec["scenario_seed"]),
        "--json-out", str(out), "--no-ledger",
    ]
    with tracer.span("unit"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    ok = code == 0 and checks.report_file_ok(out, spec["digest"])
    metrics = _layer_metrics(tracer, registry, counts)
    metrics["startup.import_s"] = import_s
    metrics["unit_s"] = import_s + tracer.roots[0].duration
    metrics["outside"] = []
    return {"ok": ok, "attempted": 1, "metrics": metrics}


def reanalyze(inputs: Path, args: argparse.Namespace) -> dict:
    """Prep (object load, columnar encode), then untraced and traced
    re-analysis iterations, alternating, for ``--seconds``."""
    spec = json.loads((inputs / "plan.json").read_text())
    import_s = _import_cli()
    from repro.core import build_report, report_json
    from repro.crawler import load_dataset
    from repro.datasets.columnar import write_columnar
    from repro.obs import MetricsRegistry, Tracer
    from repro.oracle import EthUsdOracle

    directory = inputs / "dataset"
    prep = Tracer()
    with prep.span("datasets.load"):
        dataset = load_dataset(directory, store="object")
    write_columnar(dataset, Path(args.out).with_suffix(".rcol"), tracer=prep)
    del dataset

    def iteration(tracer, registry) -> tuple[float, bool]:
        span = _spans(tracer)
        gc.collect()
        start = time.perf_counter()
        with span("unit"):
            loaded = load_dataset(
                directory, store="columnar", registry=registry, tracer=tracer
            )
            with span("datasets.validate"):
                loaded.validate()
            report = build_report(
                loaded, EthUsdOracle(), registry=registry, tracer=tracer
            )
            with span("core.render"):
                body = report_json(report)
        elapsed = time.perf_counter() - start
        return elapsed, checks.digest(body.encode("utf-8")) == spec["digest"]

    iteration(None, None)  # warm-up
    tracer = Tracer()
    registry = MetricsRegistry()
    counts = layers.install(tracer)
    traced: list[float] = []
    untraced: list[float] = []
    ok = True
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(traced) < 3:
        for timings, tracer_, registry_ in (
            (untraced, None, None), (traced, tracer, registry)
        ):
            elapsed, good = iteration(tracer_, registry_)
            timings.append(elapsed)
            ok = ok and good
    metrics = _layer_metrics(tracer, registry, counts, units=len(traced))
    _, prep_names = layers.self_times(prep.roots)
    metrics["startup.import_s"] = import_s
    metrics["datasets.load_s"] = prep_names.get("datasets.load", 0.0)
    metrics["columnar.encode_s"] = prep_names.get("columnar.encode", 0.0)
    metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["unit_s"] = statistics.mean(traced)
    metrics["outside"] = ["startup.import_s", "datasets.load_s", "columnar.encode_s"]
    return {"ok": ok, "attempted": len(traced) + len(untraced), "metrics": metrics}


def serve_live(inputs: Path, args: argparse.Namespace) -> dict:
    """In-process replay of what ``repro serve --watch`` does: load the
    base dataset and its log, warm the app, apply each pending delta;
    once untraced, then once traced."""
    spec = json.loads((inputs / "plan.json").read_text())
    import_s = _import_cli()
    from repro.crawler import load_dataset
    from repro.datasets.delta import DatasetDelta
    from repro.obs import MetricsRegistry, Tracer
    from repro.oracle import EthUsdOracle
    from repro.serve import ReproApp

    directory = inputs / "dataset"
    pending = [
        DatasetDelta.from_dict(json.loads(line))
        for line in (inputs / "pending.jsonl").read_text().splitlines()
        if line.strip()
    ]
    expected = (inputs / "final_report.json").read_bytes()

    def replay(tracer, registry) -> tuple[float, bool, list[float]]:
        span = _spans(tracer)
        gc.collect()
        applies: list[float] = []
        start = time.perf_counter()
        with span("unit"):
            with span("datasets.load"):
                dataset = load_dataset(directory, store="object")
            app = ReproApp(dataset, EthUsdOracle(), registry=registry, tracer=tracer)
            for delta in pending:
                began = time.perf_counter()
                with span("incremental.apply"):
                    app.apply_deltas([delta])
                applies.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        body = app.handle("GET", "/report").body
        ok = checks.same_report(body, expected) and checks.digest(body) == spec["digest"]
        return elapsed, ok, applies

    untraced_s, ok_untraced, _ = replay(None, None)
    tracer = Tracer()
    registry = MetricsRegistry()
    counts = layers.install(tracer)
    traced_s, ok_traced, applies = replay(tracer, registry)
    metrics = _layer_metrics(tracer, registry, counts)
    _, by_name = layers.self_times(tracer.roots)
    metrics["startup.import_s"] = import_s
    metrics["datasets.load_s"] = by_name.get("datasets.load", 0.0)
    warm = tracer.find("serve.warmup")
    metrics["serve.warmup_s"] = warm.duration if warm else 0.0
    metrics["incremental.apply_ms"] = statistics.median(applies) * 1000
    metrics["incremental.deltas"] = len(applies)
    metrics["trace_overhead_ratio"] = traced_s / untraced_s
    metrics["unit_s"] = traced_s
    metrics["outside"] = ["startup.import_s"]
    return {"ok": ok_untraced and ok_traced, "attempted": 2, "metrics": metrics}


DRIVERS = {"report_cold": report_cold, "reanalyze": reanalyze, "serve_live": serve_live}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(DRIVERS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    result = DRIVERS[args.workload](Path(args.inputs), args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
