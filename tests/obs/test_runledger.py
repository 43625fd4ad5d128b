"""Run ledger: atomic appends, stable schema, reference resolution."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, Tracer
from repro.obs.runledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    RunRecord,
    span_summary,
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
        assert "crawl" in record.span_summary
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


class TestOlderRecords:
    """Ledger files written when the crawl could still be sharded."""

    @pytest.fixture()
    def ledger_dir(self, tmp_path):
        directory = tmp_path / "ledger"
        directory.mkdir()
        for seq, threshold in ((1, 600.0), (2, 0.0)):
            payload = {
                "schema_version": LEDGER_SCHEMA_VERSION,
                "command": "crawl",
                "argv": ["crawl", "--domains", "120"],
                "run_id": f"{seq:012x}",
                "seq": seq,
                "started_at": 1_700_000_000.0 + seq,
                "duration_seconds": 1.5,
                "git_sha": None,
                "dataset_fingerprint": "abc123",
                "workers": 4,
                "shard_count": 16,
                "metrics": {
                    "requests_total": {
                        "type": "counter",
                        "help": "",
                        "samples": [{"labels": {}, "value": 9}],
                    }
                },
                "spans": [{"name": "crawl", "duration": 1.5}],
                "span_summary": {},
                "slos": [{
                    "name": "crawl_wall_clock",
                    "status": "pass" if threshold else "fail",
                    "value": 1.5,
                    "threshold": threshold,
                }],
                "extra": {"exit_code": 0},
            }
            path = directory / f"run-{seq:06d}-{payload['run_id']}.json"
            path.write_text(json.dumps(payload))
        return directory

    def test_worker_fields_are_dropped_on_load(self, ledger_dir) -> None:
        record = RunLedger(ledger_dir).load("1")
        assert record.command == "crawl"
        assert record.dataset_fingerprint == "abc123"
        assert "workers" not in record.as_dict()
        assert "shard_count" not in record.as_dict()

    def test_obs_commands_render_them(self, ledger_dir, capsys) -> None:
        ledger = ["--ledger-dir", str(ledger_dir)]
        assert main(["obs", "ls", *ledger]) == 0
        assert main(["obs", "show", "1", *ledger]) == 0
        assert main(["obs", "diff", "2", "1", *ledger]) == 0
        output = capsys.readouterr().out
        assert output.count("crawl") >= 2
        assert "abc123" in output


class TestSpanSummary:
    def test_aggregates_per_name(self) -> None:
        ticks = iter([0.0, 1.0, 2.0, 5.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("shard"):
            pass
        with tracer.span("shard"):
            pass
        summary = span_summary(tracer)
        assert summary["shard"]["count"] == 2
        assert summary["shard"]["total_seconds"] == 4.0
        assert summary["shard"]["max_seconds"] == 3.0
        assert summary["shard"]["p50"] == 1.0
        assert summary["shard"]["p99"] == 3.0


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

    def test_empty_ledger_raises(self, tmp_path) -> None:
        with pytest.raises(FileNotFoundError):
            RunLedger(tmp_path / "void").load("latest")
