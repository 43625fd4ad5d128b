"""The command-line interface, end to end through tmp datasets."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import RunLedger, RunRecord


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

    def test_missing_dataset_raises(self, tmp_path) -> None:
        with pytest.raises(FileNotFoundError):
            main(["analyze", str(tmp_path / "nope")])


class TestPredict:
    def test_prints_metrics(self, saved_dataset, capsys) -> None:
        assert main(["predict", str(saved_dataset)]) == 0
        output = capsys.readouterr().out
        assert "auc=" in output
        assert "log_income_usd" in output


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
        assert main([
            "report", "--domains", "60", "--seed", "3",
            "--json-out", str(out), "--no-ledger",
        ]) == 0
        assert calls == ["digest", "json"]
        assert out.read_text(encoding="utf-8").startswith("{")

    def test_store_choice_is_invisible_in_output(self, tmp_path, capsys) -> None:
        argv = ["report", "--domains", "120", "--seed", "5"]
        assert main([*argv, "--store", "object"]) == 0
        object_out = capsys.readouterr().out
        assert main([*argv, "--store", "columnar"]) == 0
        assert capsys.readouterr().out == object_out


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
