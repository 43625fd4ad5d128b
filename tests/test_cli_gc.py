"""The CLI's contract with the cyclic collector.

``repro.cli`` builds the simulated world with the collector paused,
freezes it, and counts every collection into the run's registry
(``docs/PERFORMANCE.md``, "Substrate: the collector and the built
world"). Whatever path a command exits by, an in-process caller gets
the collector back as it had it: same enabled state, nothing frozen,
no hook left in ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cli as cli
from repro.cli import main
from repro.simulation.scenario import ScenarioWorld

SMALL = ["--domains", "40", "--seed", "3"]


def _report(tmp_path: Path) -> int:
    return main(["report", *SMALL, "--no-ledger"])


def _killed_crawl(tmp_path: Path) -> int:
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps({"seed": 1, "endpoints": {"explorer": {"kill_at_call": 2}}})
    )
    return main(["crawl", *SMALL, "--faults", str(plan), "--no-ledger"])


def _missing_dataset(tmp_path: Path) -> int:
    return main(["analyze", str(tmp_path / "missing"), "--no-ledger"])


EXIT_PATHS = [(_report, 0), (_killed_crawl, 3), (_missing_dataset, 2)]


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test with the collector on, then off; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    callbacks = list(gc.callbacks)
    yield request.param, callbacks
    gc.unfreeze()
    (gc.enable if was_enabled else gc.disable)()


def _assert_restored(collector) -> None:
    enabled, callbacks = collector
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == 0
    assert gc.callbacks == callbacks


@pytest.mark.parametrize(
    "run,code", EXIT_PATHS, ids=["report", "killed-crawl", "missing-dataset"]
)
def test_collector_state_is_restored(run, code, collector, tmp_path, capsys) -> None:
    assert run(tmp_path) == code
    _assert_restored(collector)


def test_collector_state_is_restored_when_a_handler_raises(
    collector, monkeypatch, capsys
) -> None:
    def broken(*args, **kwargs):
        assert gc.get_freeze_count() > 0  # the world was built and frozen
        raise RuntimeError("analysis failed")

    monkeypatch.setattr(cli, "build_report", broken)
    with pytest.raises(RuntimeError, match="analysis failed"):
        main(["report", *SMALL, "--no-ledger"])
    _assert_restored(collector)


def test_no_automatic_collection_while_the_world_is_built(
    monkeypatch, capsys
) -> None:
    fired: list[str] = []
    building: list[str] = []

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start" and building:
            fired.append(building[-1])

    def watched(name, fn):
        def wrapper(*args, **kwargs):
            building.append(name)
            try:
                assert not gc.isenabled()
                return fn(*args, **kwargs)
            finally:
                building.pop()
        return wrapper

    monkeypatch.setattr(cli, "run_scenario", watched("run_scenario", cli.run_scenario))
    monkeypatch.setattr(
        ScenarioWorld, "run_crawl", watched("run_crawl", ScenarioWorld.run_crawl)
    )
    gc.callbacks.append(on_gc)
    try:
        assert main(["report", "--domains", "200", "--seed", "1", "--no-ledger"]) == 0
    finally:
        gc.callbacks.remove(on_gc)
    assert fired == []


def test_repeated_in_process_reports_leave_nothing_frozen(capsys) -> None:
    for seed in range(10):
        assert main(["report", "--domains", "30", "--seed", str(seed), "--no-ledger"]) == 0
        assert gc.get_freeze_count() == 0


def test_run_record_counts_collections(tmp_path, capsys) -> None:
    ledger = tmp_path / "ledger"
    assert main(["report", *SMALL, "--ledger-dir", str(ledger)]) == 0
    (entry,) = ledger.glob("run-*.json")
    metrics = json.loads(entry.read_text())["metrics"]
    generations = {
        sample["labels"]["generation"]: sample["value"]
        for sample in metrics["gc_collections_total"]["samples"]
    }
    assert set(generations) == {"0", "1", "2"}
    (pause,) = metrics["gc_pause_seconds_total"]["samples"]
    assert pause["value"] >= 0.0
    assert main(["obs", "show", "latest", "--ledger-dir", str(ledger)]) == 0
    shown = capsys.readouterr().out
    assert "gc_collections_total{generation=2}" in shown
    assert "gc_pause_seconds_total" in shown


def _metric_total(metrics: dict, name: str) -> float:
    return sum(sample["value"] for sample in metrics[name]["samples"])


def test_seed_one_substrate_counts_are_unchanged(tmp_path) -> None:
    """Pausing and freezing the collector changes no simulated work.

    The counts of a seed-1, 1,000-domain ``repro report`` in a fresh
    process (the perfbench ``report_cold`` scenario size): keccak digests,
    permutations and absorbed bytes, chain transactions and scenario
    events.
    """
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    ledger = tmp_path / "ledger"
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "report",
            "--domains", "1000", "--seed", "1", "--ledger-dir", str(ledger),
        ],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    (entry,) = ledger.glob("run-*.json")
    metrics = json.loads(entry.read_text())["metrics"]
    assert _metric_total(metrics, "keccak_digests_total") == 2347
    assert _metric_total(metrics, "keccak_permutations_total") == 2347
    assert _metric_total(metrics, "keccak_bytes_total") == 92679
    assert _metric_total(metrics, "chain_transactions_total") == 20837
    assert _metric_total(metrics, "scenario_events_total") == 20355
