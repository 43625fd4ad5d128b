"""The command-line interface, end to end through tmp datasets."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.crawler import dataset_digest, load_dataset
from repro.crawler.storage import append_delta, save_dataset
from repro.datasets.delta import DatasetDelta
from repro.obs import RunLedger, RunRecord

from .core.helpers import make_dataset, make_domain, make_registration, make_tx


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "crawl"
    code = main(["simulate", "--domains", "250", "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


#: One minimal valid argv per subcommand, with the handler it selects.
COMMAND_ARGV = [
    (["simulate", "--out", "d"], "_cmd_simulate"),
    (["crawl"], "_cmd_crawl"),
    (["analyze", "d"], "_cmd_analyze"),
    (["predict", "d"], "_cmd_predict"),
    (["report"], "_cmd_report"),
    (["serve"], "_cmd_serve"),
    (["figures", "d", "--out", "o"], "_cmd_figures"),
    (["sweep"], "_cmd_sweep"),
    (["dataset", "pack", "d"], "_cmd_dataset_pack"),
    (["dataset", "info", "d"], "_cmd_dataset_info"),
    (["dataset", "stream", "--out", "d"], "_cmd_dataset_stream"),
    (["obs", "ls"], "_cmd_obs"),
    (["obs", "show", "latest"], "_cmd_obs"),
    (["obs", "diff", "1", "2"], "_cmd_obs"),
]

#: Case ids for the handler test. Index 11 belonged to the removed ``lint``
#: subcommand; the cases after it keep their numbers so their names stay put.
HANDLER_IDS = [
    f"argv{i + (i >= 11)}-{handler}" for i, (_, handler) in enumerate(COMMAND_ARGV)
]

#: The subcommands that run observed: every one but ``obs``.
OBSERVED_ARGV = [entry for entry in COMMAND_ARGV if entry[0][0] != "obs"]

#: Every count flag, each after the arguments its subcommand requires.
COUNT_FLAG_ARGV = [
    ["simulate", "--out", "d", "--domains"],
    ["crawl", "--domains"],
    ["crawl", "--checkpoint-every"],
    ["report", "--domains"],
    ["serve", "--domains"],
    ["serve", "--load-gen"],
    ["serve", "--load-gen", "5", "--clients"],
    ["sweep", "--domains"],
    ["dataset", "stream", "--out", "d", "--domains"],
    ["dataset", "stream", "--out", "d", "--batches"],
    ["obs", "ls", "-n"],
]

#: Range-checked flags with out-of-range values, each after the
#: arguments its subcommand requires.
RANGE_FLAG_ARGV = [
    ["predict", "d", "--test-fraction", "1.5"],
    ["predict", "d", "--test-fraction", "0"],
    ["serve", "--port", "70000"],
    ["serve", "--port", "-1"],
    ["serve", "--watch-interval", "0"],
    ["serve", "--watch-interval", "-0.5"],
]

#: Every subcommand that loads a dataset directory, with the extra
#: arguments it requires after that directory.
DATASET_COMMANDS = {
    "analyze": [],
    "predict": [],
    "figures": ["--out", "o"],
    "serve": [],
    "dataset pack": [],
}


class TestParser:
    def test_requires_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_requires_out(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])

    @pytest.mark.parametrize(
        "argv",
        [argv for argv, _ in COMMAND_ARGV],
        ids=[" ".join(argv) for argv, _ in COMMAND_ARGV],
    )
    def test_workers_flag_is_rejected(self, argv, capsys) -> None:
        # the crawl runs serially; no subcommand takes a worker count
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["metrics-out", "profile", "slo"])
    @pytest.mark.parametrize(
        "argv",
        [argv for argv, _ in OBSERVED_ARGV],
        ids=[" ".join(argv) for argv, _ in OBSERVED_ARGV],
    )
    def test_removed_telemetry_flags_are_rejected(
        self, argv, flag, capsys
    ) -> None:
        # the ledger record is a run's one telemetry artifact
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, f"--{flag}", "5"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    def test_defaults(self) -> None:
        args = build_parser().parse_args(["report"])
        assert args.domains == 1000
        assert args.seed == 7

    @pytest.mark.parametrize("argv, handler", COMMAND_ARGV, ids=HANDLER_IDS)
    def test_every_command_resolves_to_a_handler(self, argv, handler) -> None:
        args = build_parser().parse_args(argv)
        assert args.handler.__name__ == handler


class TestArgumentChecks:
    """Flag combinations rejected before any run state exists (exit 2)."""

    def test_crawl_resume_requires_checkpoint_dir(self, tmp_path, capsys) -> None:
        ledger = tmp_path / "ledger"
        with pytest.raises(SystemExit) as excinfo:
            main(["crawl", "--resume", "--ledger-dir", str(ledger)])
        assert excinfo.value.code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err
        assert not ledger.exists()

    @pytest.mark.parametrize("columnar_dataset", [False, True])
    def test_serve_watch_requires_object_store_dataset(
        self, columnar_dataset, tmp_path, capsys
    ) -> None:
        extra = [str(tmp_path), "--store", "columnar"] if columnar_dataset else []
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--watch", "--no-ledger", *extra])
        assert excinfo.value.code == 2
        assert "--watch requires" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv", COUNT_FLAG_ARGV, ids=[" ".join(argv) for argv in COUNT_FLAG_ARGV]
    )
    def test_count_flags_reject_non_positive_values(
        self, argv, value, capsys
    ) -> None:
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, value])
        assert excinfo.value.code == 2
        assert f"argument {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", RANGE_FLAG_ARGV, ids=[" ".join(argv) for argv in RANGE_FLAG_ARGV]
    )
    def test_range_flags_reject_out_of_range_values(self, argv, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err


class TestUnloadableDataset:
    """A missing or corrupt dataset is one usage line and exit 2."""

    @pytest.mark.parametrize("problem", ["missing", "corrupt"])
    @pytest.mark.parametrize("command", sorted(DATASET_COMMANDS))
    def test_is_a_usage_error(self, command, problem, tmp_path, capsys) -> None:
        directory = tmp_path / "crawl"
        if problem == "corrupt":
            directory.mkdir()
            (directory / "meta.json").write_text('{"coinbaseAddresses": [')
        argv = [*command.split(), str(directory), *DATASET_COMMANDS[command]]
        assert main([*argv, "--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"repro {command}: {directory}: ")

    @pytest.mark.parametrize(
        ("name", "bad_line"),
        [
            ("domains.jsonl", b"[1]"),
            ("domains.jsonl", b"\xff"),
            ("deltas.jsonl", b"{not json"),
            ("deltas.jsonl", b'{"domains": 5}'),
            ("deltas.jsonl", b"[1,2]"),
        ],
    )
    def test_malformed_line_names_file_and_line(
        self, name, bad_line, tmp_path, capsys
    ) -> None:
        directory = tmp_path / "crawl"
        save_dataset(
            make_dataset(
                [make_domain("gold", [make_registration("0xa", 10, 400)])],
                [make_tx("0xa", "0xb", 50)],
            ),
            directory,
        )
        delta = DatasetDelta(transactions=(make_tx("0xa", "0xb", 60),))
        append_delta(directory, delta)
        with (directory / name).open("ab") as handle:
            handle.write(bad_line + b"\n")  # line 2 of either file
        assert main(["analyze", str(directory), "--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(
            f"repro analyze: {directory}: {name}:2: malformed record ("
        )

    @pytest.mark.parametrize(
        "name", ["domains.jsonl", "transactions.jsonl", "market_events.jsonl"]
    )
    def test_missing_base_file_names_it(self, name, tmp_path, capsys) -> None:
        # save_dataset writes all three files: one absent is damage, and
        # reading it as an empty table would report zero losses
        directory = tmp_path / "crawl"
        save_dataset(
            make_dataset(
                [make_domain("gold", [make_registration("0xa", 10, 400)])],
                [make_tx("0xa", "0xb", 50)],
            ),
            directory,
        )
        (directory / name).unlink()
        assert main(["analyze", str(directory), "--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro analyze: {directory}: missing {name}"
        ]


class TestSimulate:
    def test_writes_dataset(self, saved_dataset, capsys) -> None:
        names = {path.name for path in saved_dataset.iterdir()}
        assert "domains.jsonl" in names
        assert "meta.json" in names


class TestAnalyze:
    def test_prints_headline(self, saved_dataset, capsys) -> None:
        assert main(["analyze", str(saved_dataset)]) == 0
        output = capsys.readouterr().out
        assert "re-registered:" in output
        assert "misdirected txs:" in output
        assert "profitable catchers:" in output


#: ``repro predict`` stdout on ``saved_dataset``, pinned byte for byte. It was
#: captured from the numpy implementation the standard-library one replaced.
PREDICT_GOLDEN = """\
train/test: 26/12
accuracy=66.7% precision=50.0% recall=75.0% auc=0.906
strongest features:
  log_income_usd               +3.134
  contains_dictionary_word     +2.675
  contains_digit               -2.453
  is_numeric                   +1.986
  is_dictionary_word           +1.322
  contains_underscore          -1.272
"""


class TestPredict:
    def test_prints_metrics(self, saved_dataset, capsys) -> None:
        assert main(["predict", str(saved_dataset)]) == 0
        output = capsys.readouterr().out
        assert "auc=" in output
        assert "log_income_usd" in output

    def test_stdout_matches_golden(self, saved_dataset, capsys) -> None:
        assert main(["predict", str(saved_dataset), "--no-ledger"]) == 0
        assert capsys.readouterr().out == PREDICT_GOLDEN

    def test_too_small_for_a_split_is_a_usage_error(self, tmp_path, capsys) -> None:
        crawl, ledger = tmp_path / "crawl", tmp_path / "ledger"
        argv = ["--domains", "3", "--seed", "1", "--out", str(crawl), "--no-ledger"]
        assert main(["simulate", *argv]) == 0
        capsys.readouterr()
        assert main(["predict", str(crawl), "--ledger-dir", str(ledger)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = [
            line for line in captured.err.splitlines() if "ledger.appended" not in line
        ]
        assert line == (
            f"repro predict: {crawl}: dataset too small to hold out a test split"
        )
        (entry,) = ledger.glob("run-*.json")
        record = json.loads(entry.read_text())
        assert (record["command"], record["extra"]) == ("predict", {"exit_code": 2})


def test_cli_import_loads_no_numeric_stack() -> None:
    """The runtime is the standard library: numpy and scipy stay unloaded."""
    src = Path(repro.__file__).resolve().parents[1]
    probe = (
        "import sys, repro.cli; "
        "print(sorted({'numpy', 'scipy'} & {name.split('.')[0] for name in sys.modules}))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


#: Every ``repro`` module ``import repro.cli`` loads: what a report runs.
CLI_IMPORTS = """
repro repro._lazy repro.chain repro.chain.account
repro.chain.chain repro.chain.contract repro.chain.crypto
repro.chain.crypto.keccak repro.chain.errors repro.chain.transaction
repro.chain.types repro.cli repro.core repro.core.actors
repro.core.comparison repro.core.context repro.core.control
repro.core.dropcatch repro.core.features repro.core.features.lexical
repro.core.features.transactional repro.core.hijackable
repro.core.increport repro.core.losses repro.core.profit
repro.core.report repro.core.resale repro.core.stats repro.core.timing
repro.core.typosquat repro.crawler repro.crawler.checkpoint
repro.crawler.etherscan_client repro.crawler.opensea_client
repro.crawler.pipeline repro.crawler.subgraph_client repro.datasets
repro.datasets.dataset repro.datasets.schema repro.datasets.wordlists
repro.ens repro.ens.deployment repro.ens.namehash repro.ens.normalize
repro.ens.premium repro.ens.pricing repro.ens.registrar
repro.ens.registry repro.ens.resolver repro.ens.reverse repro.explorer
repro.explorer.api repro.explorer.database repro.explorer.labels
repro.faults repro.faults.errors repro.faults.retry repro.indexer
repro.indexer.endpoint repro.indexer.entities repro.indexer.query
repro.indexer.subgraph repro.marketplace repro.marketplace.api
repro.marketplace.market repro.obs repro.obs.exporters repro.obs.log
repro.obs.metrics repro.obs.runledger repro.obs.slo repro.obs.tracing
repro.oracle repro.oracle.ethusd repro.simulation repro.simulation.agents
repro.simulation.config repro.simulation.names repro.simulation.scenario
""".split()

#: Package -> the submodules it loads on first use of one of its names.
LAZY_SUBMODULES = {
    "repro.core": [
        "authoritative", "censoring", "descriptive", "export",
        "prediction", "survival", "timing_losses",
    ],
    "repro.crawler": ["storage"],
    "repro.datasets": ["columnar", "delta"],
    "repro.faults": ["injectors", "plan"],
    "repro.serve": ["loadgen"],
    "repro.simulation": ["calibration", "stream"],
}


def _fresh_python(probe: str, *args: str) -> str:
    """Run ``probe`` in a new interpreter with ``repro`` importable."""
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_loads_only_what_a_report_runs() -> None:
    """``import repro.cli`` loads exactly the modules a report calls into."""
    loaded = json.loads(_fresh_python(
        "import json, sys, repro.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    ))
    assert loaded == CLI_IMPORTS
    deferred = {
        f"{package}.{name}"
        for package, names in LAZY_SUBMODULES.items()
        for name in names
    }
    assert not deferred & set(loaded)


#: The ``repro`` modules ``repro serve`` adds to :data:`CLI_IMPORTS`
#: before it starts serving.
SERVE_IMPORTS = """
repro.crawler.storage repro.datasets.columnar repro.datasets.delta
repro.serve repro.serve.app repro.serve.query repro.serve.server
repro.serve.watch
""".split()


def test_serve_starts_without_an_http_library() -> None:
    """``repro serve`` up to its accept loop loads no ``http.server``,
    ``http.client`` or ``email``: its transport is ``socketserver``."""
    probe = """
import json, sys
from repro import cli
from repro.serve.server import ReproServer

def serve_forever(self):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("repro", "http", "email"))
    sys.stderr.write(json.dumps(loaded) + "\\n")

ReproServer.serve_forever = serve_forever
cli.main(["serve", "--domains", "20", "--seed", "3", "--port", "0", "--no-ledger"])
"""
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stderr.strip().splitlines()[-1])
    assert loaded == sorted(CLI_IMPORTS + SERVE_IMPORTS)


def test_lazy_package_exports_resolve() -> None:
    """Every lazily exported name, ``dir()`` entry and submodule resolves."""
    probe = """
import importlib, json, sys
packages = json.loads(sys.argv[1])
out = {}
for package, submodules in packages.items():
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if name not in dir(module)]
    subs = {
        name: getattr(module, name) is importlib.import_module(f"{package}.{name}")
        for name in submodules
    }
    values = {}
    for name in module.__all__:
        value = getattr(module, name)
        home = sys.modules[getattr(value, "__module__", package) or package]
        values[name] = getattr(home, name, value) is value
    try:
        getattr(module, "no_such_name")
        unknown = "resolved"
    except AttributeError:
        unknown = "AttributeError"
    out[package] = [missing, subs, values, unknown]
print(json.dumps(out))
"""
    report = json.loads(_fresh_python(probe, json.dumps(LAZY_SUBMODULES)))
    assert set(report) == set(LAZY_SUBMODULES)
    for package, (missing, subs, values, unknown) in report.items():
        assert missing == [], package
        assert subs == {name: True for name in LAZY_SUBMODULES[package]}, package
        assert all(values.values()), (package, values)
        assert unknown == "AttributeError", package


class TestReport:
    def test_in_memory_pipeline(self, capsys) -> None:
        assert main(["report", "--domains", "200", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "domains: " in output

    def test_traced_runner_seams_are_module_globals(
        self, tmp_path, monkeypatch, capsys
    ) -> None:
        # perfbench/traced.py wraps these at repro.cli's module level
        import repro.cli as cli

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            cli, "dataset_digest", counted("digest", cli.dataset_digest)
        )
        monkeypatch.setattr(cli, "report_json", counted("json", cli.report_json))
        out = tmp_path / "report.json"
        argv = ["report", "--domains", "60", "--seed", "3", "--json-out", str(out)]
        assert main([*argv, "--ledger-dir", str(tmp_path / "ledger")]) == 0
        # the fingerprint is computed when the ledger record is written
        assert calls == ["json", "digest"]
        assert out.read_text(encoding="utf-8").startswith("{")
        calls.clear()
        assert main([*argv, "--no-ledger"]) == 0
        assert calls == ["json"]

    def test_store_choice_is_invisible_in_output(self, tmp_path, capsys) -> None:
        argv = ["report", "--domains", "120", "--seed", "5"]
        assert main([*argv, "--store", "object"]) == 0
        object_out = capsys.readouterr().out
        assert main([*argv, "--store", "columnar"]) == 0
        assert capsys.readouterr().out == object_out


class TestServe:
    LOAD_GEN = ["--port", "0", "--load-gen", "2", "--clients", "1"]

    def test_no_ledger_run_skips_the_dataset_digest(
        self, monkeypatch, capsys
    ) -> None:
        # the fingerprint feeds only the ledger record
        import repro.cli as cli

        calls = []
        monkeypatch.setattr(cli, "dataset_digest", calls.append)
        argv = ["serve", "--domains", "40", "--seed", "3", *self.LOAD_GEN]
        assert main([*argv, "--no-ledger"]) == 0
        assert calls == []

    def test_ledger_records_the_starting_dataset_digest(
        self, saved_dataset, tmp_path, capsys
    ) -> None:
        ledger = tmp_path / "ledger"
        argv = ["serve", str(saved_dataset), *self.LOAD_GEN]
        assert main([*argv, "--ledger-dir", str(ledger)]) == 0
        (entry,) = ledger.glob("run-*.json")
        record = json.loads(entry.read_text())
        assert record["dataset_fingerprint"] == dataset_digest(
            load_dataset(saved_dataset)
        )


class TestDatasetSubcommand:
    def test_crawl_with_columnar_store_writes_rcol(
        self, tmp_path, capsys
    ) -> None:
        out = tmp_path / "crawl"
        code = main(
            [
                "simulate", "--domains", "60", "--seed", "3",
                "--out", str(out), "--store", "columnar",
            ]
        )
        assert code == 0
        assert (out / "dataset.rcol").is_file()
        assert (out / "domains.jsonl").is_file()  # JSONL stays canonical

    def test_pack_then_info(self, tmp_path, capsys) -> None:
        out = tmp_path / "crawl"
        assert main(
            ["simulate", "--domains", "60", "--seed", "3", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["dataset", "pack", str(out)]) == 0
        packed = capsys.readouterr().out
        assert "columnar file written to" in packed
        assert "bytes/domain" in packed
        assert main(["dataset", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "format        rcol v1" in info
        assert "60 domains" in info
        assert "tx_ts" in info  # sections table

    def test_info_without_pack_exits_two(self, tmp_path, capsys) -> None:
        assert main(["dataset", "info", str(tmp_path)]) == 2
        assert "repro dataset pack" in capsys.readouterr().err

    def test_info_on_corrupt_file_exits_two(self, tmp_path, capsys) -> None:
        bad = tmp_path / "dataset.rcol"
        bad.write_bytes(b"NOPE" + b"\x00" * 64)
        assert main(["dataset", "info", str(bad)]) == 2
        assert "dataset info" in capsys.readouterr().err

    def test_analyze_columnar_matches_object(self, tmp_path, capsys) -> None:
        out = tmp_path / "crawl"
        assert main(
            ["simulate", "--domains", "60", "--seed", "3", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        object_out = capsys.readouterr().out
        assert main(["dataset", "pack", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--store", "columnar"]) == 0
        assert capsys.readouterr().out == object_out


def _latest_record(ledger) -> dict:
    """The newest run record in the ledger directory ``ledger``."""
    return json.loads(sorted(ledger.glob("run-*.json"))[-1].read_text())


class TestObservabilityFlags:
    def test_simulate_metrics_out_matches_crawl_report(self, tmp_path, capsys) -> None:
        out = tmp_path / "crawl"
        ledger = tmp_path / "ledger"
        code = main(
            [
                "simulate", "--domains", "200", "--seed", "7",
                "--out", str(out), "--ledger-dir", str(ledger),
            ]
        )
        assert code == 0
        record = _latest_record(ledger)
        metrics = record["metrics"]

        def counter(name: str, client: str) -> float:
            for sample in metrics[name]["samples"]:
                if sample["labels"].get("client") == client:
                    return sample["value"]
            return 0.0

        def gauge(name: str) -> float:
            return metrics[name]["samples"][0]["value"]

        # crawler counters must mirror the CrawlReport gauges exactly
        assert counter("crawler_requests_total", "explorer") == gauge(
            "crawl_explorer_requests"
        )
        assert counter("crawler_retries_total", "explorer") == gauge(
            "crawl_explorer_retries"
        )
        assert counter("crawler_failures_total", "explorer") == gauge(
            "crawl_explorer_failures"
        )
        assert counter("crawler_pages_total", "subgraph") == gauge(
            "crawl_subgraph_pages"
        )
        assert counter("crawler_requests_total", "opensea") == gauge(
            "crawl_opensea_requests"
        )
        # spans from the simulate run are captured too
        span_names = {span["name"] for span in record["spans"]}
        assert "simulate" in span_names

    def test_analyze_trace_prints_span_tree(self, saved_dataset, capsys) -> None:
        assert main(["analyze", str(saved_dataset), "--trace"]) == 0
        output = capsys.readouterr().out
        assert "--- trace ---" in output
        assert "analyze" in output
        assert "analyze.reregistrations" in output
        for name in (
            "summary", "timing", "actors", "comparison", "resale",
            "losses", "hijackable", "profit", "typosquat",
        ):
            assert f"analyze.{name}" in output
        assert "s" in output  # durations rendered

    def test_analyze_metrics_out_has_analysis_gauges(
        self, saved_dataset, tmp_path
    ) -> None:
        ledger = tmp_path / "ledger"
        code = main(["analyze", str(saved_dataset), "--ledger-dir", str(ledger)])
        assert code == 0
        metrics = _latest_record(ledger)["metrics"]
        results = {
            sample["labels"]["result"]
            for sample in metrics["analysis_output_count"]["samples"]
        }
        assert "reregistration_events" in results
        assert "typosquat_candidates" in results


class TestSweep:
    def test_prints_metric_summaries(self, capsys) -> None:
        assert main(["sweep", "--domains", "120", "--seeds", "1", "2"]) == 0
        output = capsys.readouterr().out
        assert "robustness over seeds [1, 2]" in output
        assert "income_ratio" in output


class TestRunLedger:
    def _crawl(self, ledger: str, *extra: str) -> int:
        return main(
            ["crawl", "--domains", "120", "--seed", "3", "--ledger-dir", ledger]
            + list(extra)
        )

    def test_recorded_fingerprint_is_the_dataset_digest(self, tmp_path, capsys) -> None:
        ledger, out = str(tmp_path / "ledger"), tmp_path / "crawl"
        scenario = ["--domains", "60", "--seed", "3", "--ledger-dir", ledger]
        assert main(["simulate", *scenario, "--out", str(out)]) == 0
        assert main(["analyze", str(out), "--ledger-dir", ledger]) == 0
        assert main(["report", *scenario]) == 0
        capsys.readouterr()
        records = [
            json.loads(path.read_text())
            for path in (tmp_path / "ledger").glob("run-*.json")
        ]
        expected = dataset_digest(load_dataset(out))
        assert [record["dataset_fingerprint"] for record in records] == [expected] * 3

    def test_run_appends_a_ledger_record(self, tmp_path, capsys) -> None:
        ledger = tmp_path / "ledger"
        assert self._crawl(str(ledger)) == 0
        capsys.readouterr()
        entries = list(ledger.glob("run-*.json"))
        assert len(entries) == 1
        record = json.loads(entries[0].read_text())
        assert record["command"] == "crawl"
        assert record["argv"][0] == "crawl"
        assert record["dataset_fingerprint"]
        assert "workers" not in record
        assert record["extra"] == {"exit_code": 0}
        (crawl_span,) = [
            sample
            for sample in record["metrics"]["span_duration_seconds"]["samples"]
            if sample["labels"] == {"span": "crawl"}
        ]
        assert crawl_span["count"] == 1
        assert {slo["name"] for slo in record["slos"]} == {
            "crawl_wall_clock",
            "columnar_bytes_per_domain",
            "columnar_encode_wall_clock",
            "columnar_load_wall_clock",
        }

    def test_failed_run_records_its_exit_code(self, tmp_path, capsys) -> None:
        ledger = tmp_path / "ledger"
        missing = tmp_path / "missing"
        assert main(
            ["dataset", "info", str(missing), "--ledger-dir", str(ledger)]
        ) == 2
        capsys.readouterr()
        (entry,) = ledger.glob("run-*.json")
        record = json.loads(entry.read_text())
        assert record["command"] == "dataset"
        assert record["extra"]["exit_code"] == 2
        assert main(["obs", "show", "latest", "--ledger-dir", str(ledger)]) == 0
        assert "exit     2" in capsys.readouterr().out

    def test_no_ledger_flag_skips_the_append(self, tmp_path, capsys) -> None:
        ledger = tmp_path / "ledger"
        assert self._crawl(str(ledger), "--no-ledger") == 0
        capsys.readouterr()
        assert not ledger.exists()


class TestObsSubcommand:
    @pytest.fixture()
    def two_runs(self, tmp_path):
        """A ledger with a passing run then an SLO-failing run."""
        ledger = RunLedger(tmp_path / "ledger")
        spans = [{
            "name": "crawl",
            "duration_seconds": 1.5,
            "children": [
                {"name": "crawl.3_transactions", "duration_seconds": 0.9},
            ],
        }]
        # the second run's transactions objective is impossible
        for started_at, threshold in ((1.0, 120.0), (2.0, 0.0)):
            ledger.append(RunRecord(
                command="crawl",
                argv=["crawl", "--domains", "120", "--seed", "3"],
                started_at=started_at,
                metrics={"crawler_requests_total": {
                    "type": "counter",
                    "help": "",
                    "samples": [{"labels": {}, "value": 10 * started_at}],
                }},
                spans=spans,
                slos=[
                    {"name": "crawl_wall_clock", "status": "pass",
                     "value": 1.5, "threshold": 600.0},
                    {"name": "crawl_transactions_p99",
                     "status": "pass" if 0.9 <= threshold else "fail",
                     "value": 0.9, "threshold": threshold},
                ],
            ))
        return ledger.directory

    def test_ls_lists_runs(self, two_runs, capsys) -> None:
        capsys.readouterr()
        assert main(["obs", "ls", "--ledger-dir", str(two_runs)]) == 0
        output = capsys.readouterr().out
        assert "run_id" in output
        assert output.count("crawl") >= 2
        assert "FAIL(crawl_transactions_p99)" in output

    def test_show_renders_trace_and_slos(self, two_runs, capsys) -> None:
        capsys.readouterr()
        assert main(["obs", "show", "latest", "--ledger-dir", str(two_runs)]) == 0
        output = capsys.readouterr().out
        assert "--- slos ---" in output
        assert "--- metrics ---" in output
        assert "--- trace ---" in output
        assert "crawl.3_transactions" in output

    def test_diff_exits_nonzero_on_slo_regression(
        self, two_runs, capsys
    ) -> None:
        capsys.readouterr()
        code = main(["obs", "diff", "1", "2", "--ledger-dir", str(two_runs)])
        captured = capsys.readouterr()
        assert code == 1
        assert "<< REGRESSION" in captured.out
        assert "crawl_transactions_p99" in captured.err

    def test_diff_without_regression_exits_zero(
        self, two_runs, capsys
    ) -> None:
        capsys.readouterr()
        assert main(["obs", "diff", "2", "1", "--ledger-dir", str(two_runs)]) == 0

    def test_unknown_run_reference_exits_two(self, two_runs, capsys) -> None:
        capsys.readouterr()
        code = main(["obs", "show", "zzzzzz", "--ledger-dir", str(two_runs)])
        captured = capsys.readouterr()
        assert code == 2
        assert "obs:" in captured.err

    def test_empty_ledger_ls_is_friendly(self, tmp_path, capsys) -> None:
        assert main(["obs", "ls", "--ledger-dir", str(tmp_path / "void")]) == 0
        assert "no ledger entries" in capsys.readouterr().out
