"""Command-line interface: simulate, crawl, analyze, predict.

The workflows of the repository as one tool::

    repro simulate --domains 1000 --seed 7 --out ./crawl   # build + crawl + save
    repro crawl --faults plan.json --checkpoint-dir ./ckpt \
        --checkpoint-every 25 --resume                     # chaos / durable crawl
    repro analyze ./crawl                                  # headline report
    repro predict ./crawl                                  # risk predictor
    repro report --domains 800                             # all-in-one, in memory
    repro serve ./crawl --port 8321                        # resident query server
    repro obs ls                                           # the run ledger
    repro obs diff -2 -1                                   # SLO/metric deltas

Datasets are the JSONL layout of :mod:`repro.crawler.storage`; analyses
use the default deterministic ETH-USD oracle, so a saved dataset
re-analyzes to identical numbers anywhere. The static-analysis gate is
a separate entry point, ``python -m repro.lint`` (:mod:`repro.lint`).

Every subcommand except ``obs`` is an observed run: it takes
``--trace`` (print the span tree after the command). Progress goes to
stderr through :mod:`repro.obs.log`; only results are printed to
stdout, so piping stays clean.

Every observed run that gets past argument parsing also appends a
record — command, argv, exit code (``extra.exit_code``), git sha,
dataset fingerprint, metrics, spans, SLO verdicts — to the run ledger
(``--ledger-dir DIR`` / ``$REPRO_LEDGER_DIR`` / ``.repro/ledger``;
``--no-ledger`` skips), whether it exits 0 or not; a run that raises
leaves no record. That record is the run's one telemetry artifact.
``repro obs`` reads the history back:
``ls`` lists recent runs, ``show <ref>`` renders one run's trace and
metrics, ``diff <a> <b>`` prints deltas and exits non-zero when an
objective that passed in ``a`` fails in ``b``. Each command's SLO set
is the built-in :func:`~repro.obs.default_slos`.

The process entry point is :func:`run` (``repro`` and ``python -m
repro.cli``). When :func:`main` returns an exit code, every file a
command wrote is already closed, so :func:`run` flushes stdout, stderr
and the ``repro`` log handler and ends the process with
:func:`os._exit`. That skips tearing down the interpreter, which for a
built world means deallocating it object by object: about 0.2 s of a
1,000-domain report. A ``SystemExit`` (usage errors), an uncaught
exception or a flush that fails (a closed pipe) takes the normal exit
instead, so its tracebacks, messages and exit codes are unchanged.
:func:`main` itself always returns, for in-process callers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import logging
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .core.report import build_report, report_json
from .datasets.dataset import DatasetFormatError, DatasetNotFoundError, ENSDataset
from .faults.errors import CrawlKilled
from .obs import (
    MetricsRegistry,
    RunLedger,
    RunRecord,
    Tracer,
    default_slos,
    evaluate_slos,
    get_logger,
    global_registry,
    span_lines,
)
from .obs.runledger import DEFAULT_LEDGER_DIR, LedgerRecordError, wall_now
from .oracle import EthUsdOracle
from .simulation import ScenarioConfig, run_scenario

if TYPE_CHECKING:
    from .datasets.columnar import ColumnarDataset

__all__ = [
    "main",
    "run",  # lint: ignore[flow-dead-api] the [project.scripts] entry point
]

_log = get_logger("cli")


def dataset_digest(dataset: ENSDataset | ColumnarDataset) -> str:
    """:func:`repro.crawler.storage.dataset_digest` of ``dataset``.

    Dataset persistence loads on first use: a ``--no-ledger`` report
    never imports it. Subcommands import what only they run inside
    their handler for the same reason.
    """
    from .crawler.storage import dataset_digest as digest

    return digest(dataset)


def _positive_int(text: str) -> int:
    """Argparse type for count flags: a non-positive count is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _open_fraction(text: str) -> float:
    """Argparse type for ``--test-fraction``: a share strictly inside (0, 1)."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _port(text: str) -> int:
    """Argparse type for ``--port``: 0 (ephemeral) through 65535."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0..65535, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """Argparse type for intervals: a finite number of seconds above zero."""
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be > 0 seconds, got {text}")
    return value


def _add_command(subparsers, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """Attach subcommand ``name``; parsing it selects ``handler``."""
    subparser = subparsers.add_parser(name, **kwargs)
    subparser.set_defaults(handler=handler, parser=subparser)
    return subparser


def _add_ledger_dir_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger-dir",
        metavar="DIR",
        default=None,
        help="run-ledger directory (default: $REPRO_LEDGER_DIR or"
        f" {DEFAULT_LEDGER_DIR})",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree with per-stage durations",
    )
    _add_ledger_dir_arg(parser)
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip appending this run to the run ledger",
    )


def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        choices=("object", "columnar"),
        default="object",
        help="dataset substrate: the mutable object graph (default) or"
        " the array-backed columnar store (mmap persistence; output is"
        " byte-identical either way)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with every subcommand attached."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ENS dropcatching study reproduction (IMC 2024)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = _add_command(
        subparsers, "simulate", _cmd_simulate,
        help="build an ecosystem, crawl it, save the dataset",
    )
    simulate.add_argument("--out", required=True, help="output dataset directory")

    crawl = _add_command(
        subparsers, "crawl", _cmd_crawl,
        help="run the crawl pipeline, optionally under fault injection"
        " and/or with durable checkpoints",
    )
    crawl.add_argument("--out", default=None, help="save the dataset here")
    crawl.add_argument(
        "--faults",
        metavar="PLAN.json",
        default=None,
        help="deterministic fault plan (repro.faults.FaultPlan JSON)",
    )
    crawl.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="directory for durable crawl snapshots",
    )
    crawl.add_argument(
        "--checkpoint-every",
        metavar="N",
        type=_positive_int,
        default=25,
        help="snapshot every N work units (pages/wallets/tokens)",
    )
    crawl.add_argument(
        "--resume",
        action="store_true",
        help="continue from the newest compatible snapshot",
    )

    analyze = _add_command(
        subparsers, "analyze", _cmd_analyze,
        help="run the full §4 analysis on a saved dataset",
    )
    analyze.add_argument("dataset", help="dataset directory")
    analyze.add_argument("--control-seed", type=int, default=0)

    predict = _add_command(
        subparsers, "predict", _cmd_predict,
        help="train the re-registration risk predictor",
    )
    predict.add_argument("dataset", help="dataset directory")
    predict.add_argument("--test-fraction", type=_open_fraction, default=0.3)
    predict.add_argument("--seed", type=int, default=0)

    report = _add_command(
        subparsers, "report", _cmd_report,
        help="simulate + crawl + analyze in one run (no files)",
    )

    serve = _add_command(
        subparsers, "serve", _cmd_serve,
        help="resident query server: load a dataset once, answer"
        " report/domain/dropcatch/hijackable queries over HTTP",
    )
    serve.add_argument(
        "dataset",
        nargs="?",
        default=None,
        help="dataset directory to serve (omit to build an in-memory"
        " scenario from --domains/--seed)",
    )
    serve.add_argument("--control-seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=_port,
        default=8321,
        help="listening port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--watch",
        action="store_true",
        help="poll the dataset directory's deltas.jsonl and apply new"
        " appends live (requires a dataset directory and the object"
        " store)",
    )
    serve.add_argument(
        "--watch-interval",
        metavar="SECONDS",
        type=_positive_seconds,
        default=0.5,
        help="delta-log poll interval for --watch (default 0.5s)",
    )
    serve.add_argument(
        "--load-gen",
        metavar="N",
        type=_positive_int,
        default=None,
        help="load-generation mode: serve, fire N requests per client,"
        " print throughput/latency stats, then shut down",
    )
    serve.add_argument(
        "--clients",
        type=_positive_int,
        default=4,
        help="concurrent load-generation clients (with --load-gen)",
    )

    figures = _add_command(
        subparsers, "figures", _cmd_figures,
        help="export every figure's data series as CSV",
    )
    figures.add_argument("dataset", help="dataset directory")
    figures.add_argument("--out", required=True, help="CSV output directory")

    sweep = _add_command(
        subparsers, "sweep", _cmd_sweep,
        help="multi-seed robustness sweep of the headline metrics",
    )
    sweep.add_argument("--domains", type=_positive_int, default=500)
    sweep.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])

    dataset = subparsers.add_parser(
        "dataset",
        help="columnar-store maintenance: pack a JSONL dataset, inspect"
        " a packed file",
    )
    dataset_sub = dataset.add_subparsers(dest="dataset_command", required=True)
    dataset_pack = _add_command(
        dataset_sub, "pack", _cmd_dataset_pack,
        help="encode a JSONL dataset directory into dataset.rcol"
        " (atomic write; later loads mmap it in O(1))",
    )
    dataset_pack.add_argument("dataset", help="dataset directory")
    dataset_pack.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the columnar file here (default: dataset.rcol"
        " inside the dataset directory)",
    )
    dataset_info = _add_command(
        dataset_sub, "info", _cmd_dataset_info,
        help="counts, bytes-per-domain, and section layout of a packed"
        " columnar dataset",
    )
    dataset_info.add_argument(
        "target", help="columnar file, or a dataset directory holding one"
    )
    dataset_stream = _add_command(
        dataset_sub, "stream", _cmd_dataset_stream,
        help="incremental ingestion driver: write a scenario's first"
        " batch as the base dataset, then append the remaining batches"
        " to deltas.jsonl (a watching `repro serve --watch` picks each"
        " one up live)",
    )
    dataset_stream.add_argument(
        "--batches",
        type=_positive_int,
        default=8,
        help="number of block-batches to slice the scenario into",
    )
    dataset_stream.add_argument(
        "--out", required=True, help="output dataset directory"
    )
    dataset_stream.add_argument(
        "--resume",
        action="store_true",
        help="continue a previous stream of the same scenario: skip the"
        " deltas the directory's log already holds",
    )

    obs = _add_command(
        subparsers, "obs", _cmd_obs,
        help="inspect the run ledger: recent runs, traces, SLO diffs",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_ls = obs_sub.add_parser("ls", help="list recent ledger runs")
    obs_ls.add_argument(
        "-n", "--limit", type=_positive_int, default=15,
        help="show the newest N runs",
    )
    obs_show = obs_sub.add_parser(
        "show", help="render one run: header, SLOs, metrics, trace tree"
    )
    obs_show.add_argument(
        "run", help="run reference: seq, run-id prefix, 'latest', or -1/-2/…"
    )
    obs_diff = obs_sub.add_parser(
        "diff",
        help="metric/SLO deltas between two runs"
        " (exits non-zero on SLO regressions)",
    )
    obs_diff.add_argument("run_a", help="baseline run reference")
    obs_diff.add_argument("run_b", help="candidate run reference")
    for subparser in (obs_ls, obs_show, obs_diff):
        _add_ledger_dir_arg(subparser)

    for subparser, domains in (
        (simulate, 1000), (crawl, 1000), (report, 1000),
        (serve, 300), (dataset_stream, 300),
    ):
        subparser.add_argument("--domains", type=_positive_int, default=domains)
        subparser.add_argument("--seed", type=int, default=7)
    for subparser in (analyze, report):
        subparser.add_argument(
            "--json-out",
            metavar="PATH",
            default=None,
            help="write the report's canonical JSON encoding to PATH",
        )
    for subparser in (simulate, crawl, analyze, report, serve):
        _add_store_arg(subparser)
    for subparser in (
        simulate, crawl, analyze, predict, report, serve, figures, sweep,
        dataset_pack, dataset_info, dataset_stream,
    ):
        _add_obs_args(subparser)
    return parser


def _argument_problem(args: argparse.Namespace) -> str | None:
    """A flag combination the parser accepts but the command cannot run."""
    if args.command == "crawl" and args.resume and args.checkpoint_dir is None:
        return "--resume requires --checkpoint-dir"
    if args.command == "serve" and args.watch and (
        args.dataset is None or args.store != "object"
    ):
        return (
            "--watch requires a dataset directory and --store object"
            " (deltas apply to the mutable object graph)"
        )
    return None


def _ledger_dir(args: argparse.Namespace) -> str:
    """Resolve the ledger directory: flag, then env, then the default."""
    return args.ledger_dir or os.environ.get("REPRO_LEDGER_DIR") or DEFAULT_LEDGER_DIR


class _RunObservability:
    """One registry + tracer per observed CLI run, flushed at the end.

    :func:`main` builds it before the handler runs and calls
    ``finish(exit_code)`` once the handler returns, whatever the code.
    ``finish`` evaluates the command's built-in SLO set, appends a
    :class:`~repro.obs.RunRecord` to the run ledger (unless
    ``--no-ledger``) and prints the span tree under ``--trace``. The
    record is the run's one telemetry artifact: ``repro obs`` reads it
    back. A handler sets ``fingerprint`` to a thunk returning the
    dataset digest; it is called only when a record is written, so a
    ``--no-ledger`` run never pays for :func:`dataset_digest`.

    From construction until :meth:`close` a ``gc.callbacks`` hook counts
    the cyclic collector's passes (``gc_collections_total{generation}``)
    and their pause time on the tracer's clock
    (``gc_pause_seconds_total``). No span covers a collection, so these
    two counters are where its cost shows. The hook only adds to
    counters bound here, so a pass that fires inside registry code
    cannot reenter it.
    """

    def __init__(self, args: argparse.Namespace, argv: list[str]) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(registry=self.registry)
        self.fingerprint: Callable[[], str] | None = None
        self._args = args
        self._argv = argv
        self._started: float = wall_now()
        collections = self.registry.counter(
            "gc_collections_total",
            "cyclic-collector passes during the run",
            labels=("generation",),
        )
        self._gc_passes = [collections.labels(generation=g) for g in range(3)]
        self._gc_pause = self.registry.counter(
            "gc_pause_seconds_total", "seconds the cyclic collector ran"
        )
        self._gc_began = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_began = self.tracer.clock()
            return
        self._gc_pause.inc(self.tracer.clock() - self._gc_began)
        self._gc_passes[info["generation"]].inc()

    def close(self) -> None:
        """Detach the collector hook."""
        gc.callbacks.remove(self._on_gc)

    def _evaluate_and_record(self, exit_code: int) -> None:
        slo_results = evaluate_slos(
            default_slos(self._args.command),
            [self.registry, global_registry()],
            self.tracer,
        )
        for result in slo_results:
            if result.status == "fail":
                _log.warning(
                    "slo.fail",
                    name=result.slo.name,
                    value=result.value,
                    threshold=result.slo.threshold,
                )
        if self._args.no_ledger:
            return
        record = RunRecord.capture(
            self._args.command,
            argv=self._argv,
            registries=[self.registry, global_registry()],
            tracer=self.tracer,
            started_at=self._started,
            dataset_fingerprint=self.fingerprint() if self.fingerprint else None,
            slo_results=slo_results,
            extra={"exit_code": exit_code},
        )
        try:
            path = RunLedger(_ledger_dir(self._args)).append(record)
        except OSError as exc:
            # a read-only or full disk must never fail the run itself
            _log.warning("ledger.append_failed", error=str(exc))
            return
        _log.info(
            "ledger.appended", run_id=record.run_id, path=str(path)
        )

    def finish(self, exit_code: int) -> None:
        self._evaluate_and_record(exit_code)
        if self._args.trace:
            print("--- trace ---")
            for line in self.tracer.tree_lines():
                print(line)


@contextlib.contextmanager
def _world_built_once():
    """Build the simulated world with the cyclic collector held off.

    The world is a large, long-lived object graph that holds almost no
    garbage, yet each automatic collection during the build re-walks
    all of it (``docs/PERFORMANCE.md``, "Substrate: the collector and
    the built world"). So the collector pauses while the block runs,
    and on exit every object alive is frozen into the permanent
    generation before the collector comes back (if it was on), so later
    passes skip the world. It stays referenced until the command exits;
    :func:`main` unfreezes the heap on the way out.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.freeze()
        if was_enabled:
            gc.enable()


def _scenario_dataset(args: argparse.Namespace, obs: _RunObservability, **crawl):
    """Simulate the ``--domains``/``--seed`` scenario and crawl it.

    Returns ``(world, dataset, crawl_report)``; ``crawl`` passes the
    fault plan and checkpoint options through to ``run_crawl``.
    """
    with _world_built_once():
        world = run_scenario(
            ScenarioConfig(n_domains=args.domains, seed=args.seed),
            registry=obs.registry,
            tracer=obs.tracer,
        )
        dataset, crawl_report = world.run_crawl(
            registry=obs.registry,
            tracer=obs.tracer,
            **crawl,
        )
    return world, dataset, crawl_report


def _in_store(args: argparse.Namespace, obs: _RunObservability, dataset):
    """``dataset`` in the ``--store`` substrate, encoded in memory."""
    if args.store == "columnar":
        from .datasets.columnar import ColumnarDataset

        # Same records, array-backed: the analyses must produce
        # byte-identical output (the determinism gate checks this).
        return ColumnarDataset.from_dataset(
            dataset, registry=obs.registry, tracer=obs.tracer
        )
    return dataset


def _load_store(
    args: argparse.Namespace, obs: _RunObservability, *, validate: bool = False
):
    """Load ``args.dataset`` in the ``--store`` substrate, spanned."""
    from .crawler.storage import load_dataset

    with obs.tracer.span(f"{args.command}.load", store=args.store):
        dataset = load_dataset(
            args.dataset,
            store=args.store,
            registry=obs.registry,
            tracer=obs.tracer,
        )
        if validate:
            dataset.validate()
    return dataset


def _cmd_simulate(args: argparse.Namespace, obs: _RunObservability) -> int:
    from .crawler.storage import save_dataset

    _log.info("simulate.start", domains=args.domains, seed=args.seed)
    with obs.tracer.span("simulate"):
        _, dataset, crawl = _scenario_dataset(args, obs)
        with obs.tracer.span("simulate.save", store=args.store):
            directory = save_dataset(
                dataset,
                args.out,
                store=args.store,
                registry=obs.registry,
                tracer=obs.tracer,
            )
    obs.fingerprint = lambda: dataset_digest(dataset)
    simulate_span = obs.tracer.find("simulate")
    elapsed = simulate_span.duration if simulate_span else 0.0
    print(f"  {crawl.domains_crawled} domains crawled"
          f" ({crawl.recovery_rate:.2%} recovery),"
          f" {crawl.transactions_crawled} transactions [{elapsed:.1f}s]")
    print(f"  dataset written to {directory}")
    return 0


def _cmd_crawl(args: argparse.Namespace, obs: _RunObservability) -> int:
    from .crawler.checkpoint import CheckpointConfig
    from .crawler.storage import save_dataset
    from .faults.plan import load_plan

    fault_plan = load_plan(args.faults) if args.faults else None
    checkpoint = None
    if args.checkpoint_dir is not None:
        checkpoint = CheckpointConfig(
            directory=args.checkpoint_dir,
            every=args.checkpoint_every,
            resume=args.resume,
        )
    _log.info(
        "crawl.start",
        domains=args.domains,
        seed=args.seed,
        faults=args.faults,
        resume=args.resume,
    )
    try:
        _, dataset, crawl = _scenario_dataset(
            args, obs, fault_plan=fault_plan, checkpoint=checkpoint
        )
    except CrawlKilled as exc:
        # an injected kill: checkpoints (if configured) survive for --resume
        print(f"crawl killed by fault plan: {exc}", file=sys.stderr)
        return 3
    print(
        f"  {crawl.domains_crawled} domains crawled"
        f" ({crawl.recovery_rate:.2%} recovery),"
        f" {crawl.transactions_crawled} transactions,"
        f" {crawl.market_events_crawled} market events"
    )
    digest = dataset_digest(dataset)
    obs.fingerprint = lambda: digest
    print(f"  dataset digest {digest}")
    if args.out:
        directory = save_dataset(
            dataset,
            args.out,
            store=args.store,
            registry=obs.registry,
            tracer=obs.tracer,
        )
        print(f"  dataset written to {directory}")
    return 0


def _cmd_analyze(args: argparse.Namespace, obs: _RunObservability) -> int:
    from .core.descriptive import describe_dataset

    dataset = _load_store(args, obs, validate=True)
    obs.fingerprint = lambda: dataset_digest(dataset)
    print("--- dataset ---")
    for line in describe_dataset(dataset).lines():
        print(line)
    print("--- findings ---")
    report = build_report(
        dataset,
        EthUsdOracle(),
        seed=args.control_seed,
        registry=obs.registry,
        tracer=obs.tracer,
    )
    for line in report.lines():
        print(line)
    _write_report_json(args, report)
    return 0


def _write_report_json(args: argparse.Namespace, report) -> None:
    """Write the canonical report encoding when ``--json-out`` was given."""
    if args.json_out:
        Path(args.json_out).write_text(report_json(report), encoding="utf-8")
        _log.info("report_json.written", path=args.json_out)


def _cmd_predict(args: argparse.Namespace, obs: _RunObservability) -> int:
    from .core.prediction import train_reregistration_predictor
    from .crawler.storage import load_dataset

    with obs.tracer.span("predict"):
        dataset = load_dataset(args.dataset)
        try:
            report = train_reregistration_predictor(
                dataset, EthUsdOracle(),
                test_fraction=args.test_fraction, seed=args.seed,
            )
        except ValueError as exc:  # too few rows to hold out a test split
            print(f"{args.parser.prog}: {args.dataset}: {exc}", file=sys.stderr)
            return 2
    print(f"train/test: {report.train_size}/{report.metrics.test_size}")
    print(f"accuracy={report.metrics.accuracy:.1%}"
          f" precision={report.metrics.precision:.1%}"
          f" recall={report.metrics.recall:.1%}"
          f" auc={report.metrics.auc:.3f}")
    print("strongest features:")
    for name, weight in report.top_features(6):
        print(f"  {name:28s} {weight:+.3f}")
    return 0


def _cmd_report(args: argparse.Namespace, obs: _RunObservability) -> int:
    world, dataset, _ = _scenario_dataset(args, obs)
    dataset = _in_store(args, obs, dataset)
    obs.fingerprint = lambda: dataset_digest(dataset)
    report = build_report(
        dataset,
        world.oracle,
        registry=obs.registry,
        tracer=obs.tracer,
    )
    for line in report.lines():
        print(line)
    _write_report_json(args, report)
    return 0


def _cmd_serve(args: argparse.Namespace, obs: _RunObservability) -> int:
    from .serve import DatasetWatcher, ReproApp, ReproServer

    if args.dataset is not None:
        dataset = _load_store(args, obs)
        oracle = EthUsdOracle()
    else:
        world, dataset, _ = _scenario_dataset(args, obs)
        dataset = _in_store(args, obs, dataset)
        oracle = world.oracle
    if not args.no_ledger:
        # a watcher applies deltas in place: record the starting dataset
        digest = dataset_digest(dataset)
        obs.fingerprint = lambda: digest
    app = ReproApp(
        dataset,
        oracle,
        seed=args.control_seed,
        registry=obs.registry,
        tracer=obs.tracer,
    )
    server = ReproServer(app, host=args.host, port=args.port)
    watcher = None
    if args.watch:
        watcher = DatasetWatcher(
            app, args.dataset, poll_interval=args.watch_interval
        )
        watcher.start()
    if args.load_gen is not None:
        from .serve.loadgen import run_load

        server.start()
        print(f"serving on http://{server.address} (load-gen mode)")
        with obs.tracer.span(
            "serve.loadgen", clients=args.clients, requests=args.load_gen
        ):
            stats = run_load(
                server.host,
                server.port,
                clients=args.clients,
                requests_per_client=args.load_gen,
                registry=obs.registry,
            )
        if watcher is not None:
            watcher.stop()
        server.stop()
        for line in stats.lines():
            print(f"  {line}")
        return 1 if stats.errors else 0
    mode = "watching deltas.jsonl, " if watcher is not None else ""
    print(f"serving on http://{server.address} ({mode}Ctrl-C to stop)")
    try:
        server.serve_forever()
    finally:
        if watcher is not None:
            watcher.stop()
    return 0


def _cmd_dataset_stream(args: argparse.Namespace, obs: _RunObservability) -> int:
    """``repro dataset stream``: base dataset + delta-log appends.

    Writes batch 1 of the scenario as the base JSONL dataset and
    appends batches 2..N as ``deltas.jsonl`` lines — the on-disk shape
    ``repro serve --watch`` consumes live and ``load_dataset`` replays
    on a cold start. ``--resume`` regenerates the (deterministic)
    stream and appends only the batches the log does not hold yet, so a
    driver killed mid-stream continues exactly where it stopped.
    """
    from .crawler.storage import append_delta, load_deltas, save_dataset
    from .simulation.stream import stream_scenario

    with obs.tracer.span(
        "dataset.stream", domains=args.domains, batches=args.batches
    ):
        with _world_built_once():
            stream = stream_scenario(
                ScenarioConfig(n_domains=args.domains, seed=args.seed),
                batches=args.batches,
                registry=obs.registry,
                tracer=obs.tracer,
            )
        done = 0
        if args.resume:
            if not (Path(args.out) / "meta.json").is_file():
                print(
                    f"dataset stream: --resume but {args.out} holds no"
                    " base dataset (run once without --resume first)",
                    file=sys.stderr,
                )
                return 2
            done = len(load_deltas(args.out))
            if done > len(stream.deltas) - 1:
                print(
                    f"dataset stream: {args.out} already holds {done}"
                    f" delta lines but this scenario only streams"
                    f" {len(stream.deltas) - 1} — wrong --domains/--seed"
                    f"/--batches?",
                    file=sys.stderr,
                )
                return 2
        else:
            base = stream.replay(1)
            save_dataset(
                base, args.out, registry=obs.registry, tracer=obs.tracer
            )
            print(
                f"  base dataset ({len(base.domains)} domains,"
                f" batch 1/{args.batches}) written to {args.out}"
            )
        appended = 0
        for delta in stream.deltas[1 + done :]:
            cursor = append_delta(args.out, delta)
            appended += 1
            _log.info(
                "stream.delta_appended",
                cursor=cursor,
                label=delta.label,
                records=delta.record_count,
            )
        digest = dataset_digest(stream.replay())
        obs.fingerprint = lambda: digest
    skipped = f" (skipped {done} already streamed)" if done else ""
    print(
        f"  appended {appended} deltas to {args.out}/deltas.jsonl"
        f"{skipped}"
    )
    print(f"  final dataset digest {digest}")
    return 0


def _format_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.1f} {unit}"
        count /= 1024
    return f"{count:.1f} GiB"  # pragma: no cover - loop always returns


def _cmd_dataset_pack(args: argparse.Namespace, obs: _RunObservability) -> int:
    from .crawler.storage import pack_dataset
    from .datasets.columnar import ColumnarDataset

    with obs.tracer.span("dataset.pack"):
        path = pack_dataset(
            args.dataset,
            out=args.out,
            registry=obs.registry,
            tracer=obs.tracer,
        )
    stats = ColumnarDataset.open(
        path, registry=obs.registry, tracer=obs.tracer
    ).stats()
    print(
        f"  packed {stats['domains']} domains,"
        f" {stats['transactions']} transactions,"
        f" {stats['market_events']} market events"
        f" into {_format_bytes(stats['bytes'])}"
        f" ({stats['bytes_per_domain']:.0f} bytes/domain)"
    )
    print(f"  columnar file written to {path}")
    return 0


def _cmd_dataset_info(args: argparse.Namespace, obs: _RunObservability) -> int:
    from .crawler.storage import COLUMNAR_FILE
    from .datasets.columnar import ColumnarDataset, ColumnarFormatError

    target = Path(args.target)
    if target.is_dir():
        target = target / COLUMNAR_FILE
    if not target.is_file():
        print(
            f"dataset info: {target} not found"
            " (run `repro dataset pack` first)",
            file=sys.stderr,
        )
        return 2
    try:
        with obs.tracer.span("dataset.info"):
            stats = ColumnarDataset.open(
                target, registry=obs.registry, tracer=obs.tracer
            ).stats()
    except ColumnarFormatError as exc:
        print(f"dataset info: {target}: {exc}", file=sys.stderr)
        return 2
    print(f"columnar dataset {stats['path']}")
    print(f"  format        rcol v{stats['format_version']}")
    print(
        f"  size          {_format_bytes(stats['bytes'])}"
        f" ({stats['bytes_per_domain']:.0f} bytes/domain)"
    )
    print(
        f"  records       {stats['domains']} domains,"
        f" {stats['registrations']} registrations,"
        f" {stats['transactions']} transactions,"
        f" {stats['market_events']} market events"
    )
    print(f"  string pool   {stats['pool_strings']} distinct strings")
    print(f"  crawled at    {stats['crawl_timestamp']}")
    print("  --- sections ---")
    for name, section in stats["sections"].items():
        print(
            f"  {name:<16s} {section['dtype']:>2s}"
            f" {section['elements']:>10d} x"
            f" {_format_bytes(section['bytes']):>10s}"
        )
    return 0


def _cmd_figures(args: argparse.Namespace, obs: _RunObservability) -> int:
    from .core.export import export_figures
    from .crawler.storage import load_dataset

    with obs.tracer.span("figures"):
        dataset = load_dataset(args.dataset)
        paths = export_figures(dataset, EthUsdOracle(), args.out)
    for path in paths:
        print(path)
    return 0


def _cmd_sweep(args: argparse.Namespace, obs: _RunObservability) -> int:
    from .core.robustness import run_sweep

    with obs.tracer.span("sweep"):
        sweep = run_sweep(
            ScenarioConfig(n_domains=args.domains), seeds=args.seeds
        )
    for line in sweep.summary_lines():
        print(line)
    return 0


def _format_started(started_at: float | None) -> str:
    if started_at is None:
        return "-"
    import datetime

    stamp = datetime.datetime.fromtimestamp(started_at)
    return stamp.strftime("%Y-%m-%d %H:%M:%S")


def _slo_cell(record: RunRecord) -> str:
    """One-word SLO verdict for the ``obs ls`` table."""
    if not record.slos:
        return "-"
    failures = record.slo_failures
    measured = [s for s in record.slos if s.get("status") != "no_data"]
    if failures:
        return f"FAIL({','.join(failures)})"
    return f"pass {len(measured)}/{len(record.slos)}"


def _flatten_metrics(metrics: dict) -> dict[str, float]:
    """``record.metrics`` → flat ``name{k=v}[.stat]`` → number mapping.

    Histogram samples expand into ``.count`` / ``.sum`` / ``.p50`` /
    ``.p99`` sub-keys so ``obs diff`` can compare like with like.
    """
    flat: dict[str, float] = {}
    for name, family in sorted(metrics.items()):
        for sample in family.get("samples", ()):
            labels = sample.get("labels") or {}
            key = name
            if labels:
                inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                key = f"{name}{{{inner}}}"
            if "value" in sample:
                if isinstance(sample["value"], (int, float)):
                    flat[key] = float(sample["value"])
                continue
            for stat in ("count", "sum", "p50", "p99"):
                if isinstance(sample.get(stat), (int, float)):
                    flat[f"{key}.{stat}"] = float(sample[stat])
    return flat


def _obs_ls(ledger: RunLedger, args: argparse.Namespace) -> int:
    records = ledger.records(limit=args.limit)
    if not records:
        print(f"no ledger entries in {ledger.directory}")
        return 0
    header = (
        f"{'seq':>5s}  {'run_id':12s}  {'command':10s}"
        f"  {'duration':>9s}  {'slo':18s}  started"
    )
    print(header)
    for record in records:
        duration = (
            "-"
            if record.duration_seconds is None
            else f"{record.duration_seconds:8.2f}s"
        )
        print(
            f"{record.seq:>5d}  {record.run_id:12s}  {record.command:10s}"
            f"  {duration:>9s}  {_slo_cell(record):18s}"
            f"  {_format_started(record.started_at)}"
        )
    return 0


def _obs_show(ledger: RunLedger, args: argparse.Namespace) -> int:
    record = ledger.load(args.run)
    duration = (
        "-"
        if record.duration_seconds is None
        else f"{record.duration_seconds:.2f}s"
    )
    print(f"run      {record.run_id}  (seq {record.seq})")
    print(f"command  {record.command}" + (
        f"  [{' '.join(record.argv)}]" if record.argv else ""
    ))
    print(f"started  {_format_started(record.started_at)}  duration {duration}")
    if record.extra.get("exit_code"):
        print(f"exit     {record.extra['exit_code']}")
    if record.git_sha:
        print(f"git      {record.git_sha}")
    if record.dataset_fingerprint:
        print(f"dataset  {record.dataset_fingerprint}")
    if record.slos:
        print("--- slos ---")
        for slo in record.slos:
            value = slo.get("value")
            shown = "-" if value is None else f"{value:.4g}"
            print(
                f"  {slo['status']:7s} {slo['name']:28s}"
                f" {shown:>10s} <= {slo['threshold']:g}"
            )
    flat = _flatten_metrics(record.metrics)
    if flat:
        print("--- metrics ---")
        for key, value in flat.items():
            print(f"  {key:<52s} {value:12.6g}")
    if record.spans:
        print("--- trace ---")
        for line in span_lines(record.spans):
            print(line)
    return 0


def _obs_diff(ledger: RunLedger, args: argparse.Namespace) -> int:
    before = ledger.load(args.run_a)
    after = ledger.load(args.run_b)
    print(
        f"diff {before.run_id} (seq {before.seq}, {before.command})"
        f" -> {after.run_id} (seq {after.seq}, {after.command})"
    )

    status_before = {s["name"]: s for s in before.slos}
    regressions: list[str] = []
    if before.slos or after.slos:
        print("--- slos ---")
        for slo in after.slos:
            name = slo["name"]
            old = status_before.get(name, {})
            old_status = old.get("status", "absent")
            if slo["status"] == "fail" and old_status != "fail":
                regressions.append(name)
                marker = "  << REGRESSION"
            elif slo["status"] != "fail" and old_status == "fail":
                marker = "  (fixed)"
            else:
                marker = ""
            print(
                f"  {name:28s} {old_status:>8s} -> {slo['status']:<8s}{marker}"
            )

    flat_before = _flatten_metrics(before.metrics)
    flat_after = _flatten_metrics(after.metrics)
    changed = [
        key
        for key in sorted(set(flat_before) | set(flat_after))
        if flat_before.get(key) != flat_after.get(key)
    ]
    if changed:
        print("--- metrics ---")
        for key in changed:
            old = flat_before.get(key)
            new = flat_after.get(key)
            old_s = "-" if old is None else f"{old:.6g}"
            new_s = "-" if new is None else f"{new:.6g}"
            delta = (
                f"  ({new - old:+.6g})"
                if old is not None and new is not None
                else ""
            )
            print(f"  {key:<52s} {old_s:>12s} -> {new_s:<12s}{delta}")

    if regressions:
        print(f"SLO regressions: {', '.join(regressions)}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    ledger = RunLedger(_ledger_dir(args))
    handlers = {"ls": _obs_ls, "show": _obs_show, "diff": _obs_diff}
    try:
        return handlers[args.obs_command](ledger, args)
    except (FileNotFoundError, LedgerRecordError) as exc:
        print(f"obs: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse ``argv``, run the subcommand, record the run."""
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw)
    problem = _argument_problem(args)
    if problem:
        args.parser.error(problem)
    if "no_ledger" not in vars(args):  # obs: not an observed run
        return args.handler(args)
    obs = _RunObservability(args, raw)
    try:
        exit_code = args.handler(args, obs)
    except (DatasetNotFoundError, DatasetFormatError) as exc:
        # a missing or corrupt dataset directory is a usage error
        print(f"{args.parser.prog}: {exc}", file=sys.stderr)
        exit_code = 2
    finally:
        # leave the collector as an in-process caller had it
        obs.close()
        gc.unfreeze()
    obs.finish(exit_code)
    return exit_code


def run(argv: Sequence[str] | None = None) -> int:
    """Process entry point: :func:`main`, then exit without teardown.

    After a normal return, flushes stdout, stderr and the ``repro`` log
    handlers and calls :func:`os._exit` with the exit code. If a flush
    raises, returns the code for the caller's ``sys.exit`` instead,
    which is the normal exit. Exceptions from :func:`main`,
    ``SystemExit`` included, propagate.
    """
    exit_code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        for handler in logging.getLogger("repro").handlers:
            handler.flush()
    except Exception:
        # the normal exit reports the failing stream as it always has
        return exit_code
    os._exit(exit_code)


if __name__ == "__main__":
    sys.exit(run())
