"""Run ledger: atomic appends, stable schema, reference resolution."""

from __future__ import annotations

import io
import json
import logging
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, Tracer, configure
from repro.obs.runledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerRecordError,
    RunLedger,
    RunRecord,
    wall_now,
)
from repro.obs.slo import SLO, SLOResult


def _record(command: str = "crawl", **extra) -> RunRecord:
    return RunRecord(command=command, argv=[command], **extra)


class TestAppend:
    def test_appended_file_is_valid_json_with_schema(self, tmp_path) -> None:
        ledger = RunLedger(tmp_path / "ledger")
        path = ledger.append(_record())
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == LEDGER_SCHEMA_VERSION
        assert payload["command"] == "crawl"
        assert payload["seq"] == 1
        assert payload["run_id"]
        assert path.name == f"run-000001-{payload['run_id']}.json"

    def test_sequence_numbers_increase(self, tmp_path) -> None:
        ledger = RunLedger(tmp_path / "ledger")
        first = ledger.append(_record())
        second = ledger.append(_record("analyze"))
        assert first.name.startswith("run-000001-")
        assert second.name.startswith("run-000002-")

    def test_no_tmp_files_left_behind(self, tmp_path) -> None:
        ledger = RunLedger(tmp_path / "ledger")
        ledger.append(_record())
        leftovers = [
            p for p in ledger.directory.iterdir() if p.name.startswith(".tmp")
        ]
        assert leftovers == []

    def test_run_id_is_a_content_digest(self, tmp_path) -> None:
        ledger = RunLedger(tmp_path / "ledger")
        a = _record(started_at=1.0)
        b = _record(started_at=1.0)
        c = _record(started_at=2.0)
        ledger.append(a)
        ledger.append(b)
        ledger.append(c)
        assert a.run_id == b.run_id  # same content, same id
        assert a.run_id != c.run_id

    def test_nonfinite_values_are_nulled(self, tmp_path) -> None:
        record = _record(extra={"rate": float("inf")})
        path = RunLedger(tmp_path / "ledger").append(record)
        assert json.loads(path.read_text())["extra"]["rate"] is None

    def test_sequence_collision_retries_next_slot(
        self, tmp_path, monkeypatch
    ) -> None:
        """Two writers racing on one sequence number: the loser's hard
        link fails atomically and it takes the next slot."""
        ledger = RunLedger(tmp_path / "ledger")
        ledger.append(_record(started_at=1.0))
        # recreate the race: the scan hands out the already-taken seq 1
        monkeypatch.setattr(ledger, "_next_seq", lambda: 1)
        record = _record(started_at=2.0)
        path = ledger.append(record)
        assert path.name.startswith("run-000002-")
        assert record.seq == 2
        assert len(list(ledger.directory.glob("run-*.json"))) == 2

    def test_git_sha_in_repo_and_outside(self, tmp_path) -> None:
        from repro.obs.runledger import git_sha

        sha = git_sha()  # the test process runs inside this repo
        assert sha is None or len(sha) == 40
        assert git_sha(cwd=tmp_path) is None  # not a repository


class TestCapture:
    def test_capture_snapshots_metrics_spans_and_slos(self) -> None:
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(9)
        tracer = Tracer()
        with tracer.span("crawl"):
            pass
        started = wall_now() - 1.0
        slo = SLO(name="fast", metric="requests_total", threshold=10.0)
        record = RunRecord.capture(
            "crawl",
            argv=["crawl", "--domains", "120"],
            registries=registry,
            tracer=tracer,
            started_at=started,
            dataset_fingerprint="abc123",
            slo_results=[SLOResult(slo=slo, value=9.0, status="pass")],
        )
        assert record.duration_seconds >= 1.0
        assert record.metrics["requests_total"]["samples"][0]["value"] == 9
        assert record.spans[0]["name"] == "crawl"
        assert record.slos[0]["status"] == "pass"
        assert record.dataset_fingerprint == "abc123"
        assert record.slo_failures == []

    def test_slo_failures_lists_violations(self) -> None:
        record = _record()
        record.slos = [
            {"name": "a", "status": "pass"},
            {"name": "b", "status": "fail"},
            {"name": "c", "status": "no_data"},
        ]
        assert record.slo_failures == ["b"]

    def test_from_dict_tolerates_unknown_fields(self) -> None:
        payload = _record().as_dict()
        payload["added_in_schema_9"] = {"x": 1}
        restored = RunRecord.from_dict(payload)
        assert restored.command == "crawl"


#: The per-span-name digest older records carry beside the histogram.
DIGEST_FIELD = "span_summary"


def _older_record(seq: int, crawl_seconds: float, threshold: float) -> dict:
    """A crawl record as earlier schemas wrote it.

    Sharded crawls added ``workers`` and ``shard_count``. Every record
    held each span's totals twice, in :data:`DIGEST_FIELD` and in the
    ``span_duration_seconds`` histogram, with equal values.
    """
    seconds = {"crawl": crawl_seconds, "crawl.3_transactions": crawl_seconds / 2}
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "command": "crawl",
        "argv": ["crawl", "--domains", "120"],
        "run_id": f"{seq:012x}",
        "seq": seq,
        "started_at": 1_700_000_000.0 + seq,
        "duration_seconds": crawl_seconds,
        "git_sha": None,
        "dataset_fingerprint": "abc123",
        "workers": 4,
        "shard_count": 16,
        "metrics": {
            "span_duration_seconds": {
                "type": "histogram",
                "help": "Duration of traced spans",
                "samples": [
                    {
                        "labels": {"span": name},
                        "count": 1,
                        "sum": value,
                        "p50": value,
                        "p90": value,
                        "p99": value,
                    }
                    for name, value in seconds.items()
                ],
            }
        },
        "spans": [{
            "name": "crawl",
            "duration_seconds": crawl_seconds,
            "children": [{
                "name": "crawl.3_transactions",
                "duration_seconds": crawl_seconds / 2,
            }],
        }],
        DIGEST_FIELD: {
            name: {
                "count": 1,
                "total_seconds": value,
                "max_seconds": value,
                "p50": value,
                "p99": value,
            }
            for name, value in seconds.items()
        },
        "slos": [{
            "name": "crawl_wall_clock",
            "status": "pass" if crawl_seconds <= threshold else "fail",
            "value": crawl_seconds,
            "threshold": threshold,
        }],
        "extra": {"exit_code": 0},
    }


def _write_ledger(directory: Path, *payloads: dict) -> Path:
    directory.mkdir()
    for payload in payloads:
        path = directory / f"run-{payload['seq']:06d}-{payload['run_id']}.json"
        path.write_text(json.dumps(payload))
    return directory


class TestOlderRecords:
    """Ledger files written by earlier schemas still load, list, show and diff."""

    @pytest.fixture()
    def ledger_dir(self, tmp_path):
        return _write_ledger(
            tmp_path / "ledger",
            _older_record(1, 1.5, threshold=600.0),
            _older_record(2, 1.5, threshold=0.0),
        )

    def test_worker_fields_are_dropped_on_load(self, ledger_dir) -> None:
        record = RunLedger(ledger_dir).load("1")
        assert record.command == "crawl"
        assert record.dataset_fingerprint == "abc123"
        for dropped in ("workers", "shard_count", DIGEST_FIELD):
            assert dropped not in record.as_dict()

    def test_obs_commands_render_them(self, ledger_dir, capsys) -> None:
        ledger = ["--ledger-dir", str(ledger_dir)]
        assert main(["obs", "ls", *ledger]) == 0
        assert main(["obs", "show", "1", *ledger]) == 0
        assert main(["obs", "diff", "2", "1", *ledger]) == 0
        output = capsys.readouterr().out
        assert output.count("crawl") >= 2
        assert "abc123" in output
        assert "crawl.3_transactions" in output
        assert "span_duration_seconds{span=crawl}.sum" in output


#: Files a ledger directory can end up holding that are not run records.
UNREADABLE_PAYLOADS = {
    "truncated-json": '{"command": "crawl", "seq": ',
    "not-an-object": "[1, 2]",
    "seq-not-an-int": '{"command": "x", "seq": "abc"}',
}


class TestUnreadableFiles:
    """One bad file must not take ``repro obs`` down."""

    @pytest.fixture(params=sorted(UNREADABLE_PAYLOADS))
    def ledger(self, request, tmp_path) -> RunLedger:
        ledger = RunLedger(tmp_path / "ledger")
        ledger.append(_record("crawl", started_at=1.0))
        bad = ledger.directory / "run-000002-badbadbadbad.json"
        bad.write_text(UNREADABLE_PAYLOADS[request.param])
        ledger.append(_record("crawl", started_at=3.0))
        return ledger

    @pytest.fixture()
    def log_stream(self):
        stream = io.StringIO()
        configure(level=logging.INFO, stream=stream)
        yield stream
        configure(level=logging.INFO, stream=sys.stderr)

    def test_records_skip_it_with_a_warning(self, ledger, log_stream) -> None:
        assert [record.seq for record in ledger.records()] == [1, 3]
        warning = log_stream.getvalue()
        assert "ledger.unreadable" in warning
        assert "run-000002-badbadbadbad.json" in warning

    def test_load_raises_a_typed_error(self, ledger) -> None:
        with pytest.raises(LedgerRecordError, match="run-000002-"):
            ledger.load("2")

    def test_obs_ls_lists_the_rest(self, ledger, capsys) -> None:
        assert main(["obs", "ls", "--ledger-dir", str(ledger.directory)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["1", "3"]

    def test_obs_show_exits_two_with_one_line(self, ledger, capsys) -> None:
        code = main(["obs", "show", "2", "--ledger-dir", str(ledger.directory)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("obs: ") and err.count("\n") == 1

    def test_obs_diff_compares_the_runs_around_it(self, ledger, capsys) -> None:
        code = main(["obs", "diff", "1", "3", "--ledger-dir", str(ledger.directory)])
        assert code == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        assert "(seq 1, crawl)" in first_line
        assert "(seq 3, crawl)" in first_line


class TestLoad:
    @pytest.fixture()
    def ledger(self, tmp_path) -> RunLedger:
        ledger = RunLedger(tmp_path / "ledger")
        ledger.append(_record("crawl", started_at=1.0))
        ledger.append(_record("analyze", started_at=2.0))
        ledger.append(_record("report", started_at=3.0))
        return ledger

    def test_latest(self, ledger) -> None:
        assert ledger.load("latest").command == "report"

    def test_negative_index(self, ledger) -> None:
        assert ledger.load("-1").command == "report"
        assert ledger.load("-3").command == "crawl"
        with pytest.raises(FileNotFoundError):
            ledger.load("-4")

    def test_sequence_number(self, ledger) -> None:
        assert ledger.load("2").command == "analyze"
        with pytest.raises(FileNotFoundError):
            ledger.load("17")

    def test_run_id_prefix(self, ledger) -> None:
        target = ledger.records()[0]
        assert ledger.load(target.run_id[:8]).command == target.command

    def test_file_path(self, ledger) -> None:
        path = sorted(ledger.directory.iterdir())[0]
        assert ledger.load(str(path)).command == "crawl"

    def test_records_limit_returns_newest(self, ledger) -> None:
        newest = ledger.records(limit=2)
        assert [r.command for r in newest] == ["analyze", "report"]

    def test_records_limit_zero_returns_none(self, ledger) -> None:
        assert ledger.records(limit=0) == []

    def test_records_negative_limit_raises(self, ledger) -> None:
        with pytest.raises(ValueError, match="limit"):
            ledger.records(limit=-1)

    def test_empty_ledger_raises(self, tmp_path) -> None:
        with pytest.raises(FileNotFoundError):
            RunLedger(tmp_path / "void").load("latest")
