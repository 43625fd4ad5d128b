"""Checkpoint store edge cases: torn writes, staleness, GC, round trips,
malformed cursors, and snapshots in the on-disk format of older releases."""

from __future__ import annotations

import json

import pytest

from repro.crawler import CheckpointConfig, CheckpointStore, CrawlState
from repro.crawler.checkpoint import (
    STAGE_DOMAINS,
    STAGE_TRANSACTIONS,
    STAGES,
)
from repro.crawler.storage import dataset_digest
from repro.faults import CrawlKilled, FaultPlan
from repro.faults.plan import EndpointFaultSpec
from repro.obs.metrics import MetricsRegistry
from repro.simulation import ScenarioConfig, run_scenario

from ..core.helpers import make_dataset, make_domain, make_registration, make_tx

FINGERPRINT = "v1:subgraph_page=1000:explorer_page=1000"


def _state(units_done: int = 7, wallets_done: int = 3) -> CrawlState:
    dataset = make_dataset(
        [make_domain("gold", [make_registration("0xa", 100, 465)])],
        [make_tx("0xs", "0xa", 200)],
    )
    return CrawlState(
        stage=STAGE_TRANSACTIONS,
        subgraph_cursor="0xdomain-gold",
        wallets_done=wallets_done,
        units_done=units_done,
        dataset=dataset,
    )


def _store(tmp_path, fingerprint: str = FINGERPRINT, keep: int = 1) -> CheckpointStore:
    return CheckpointStore(
        directory=tmp_path / "ckpt", fingerprint=fingerprint, keep_snapshots=keep
    )


_COUNTERS = {"pipeline": {"checkpoint_writes_total": {"samples": []}}}


class TestRoundTrip:
    def test_write_then_load_restores_everything(self, tmp_path) -> None:
        store = _store(tmp_path)
        written = _state()
        store.write(written, _COUNTERS)
        loaded = store.load()
        assert loaded is not None
        state, counters = loaded
        assert state.cursor_dict() == written.cursor_dict()
        assert dataset_digest(state.dataset) == dataset_digest(written.dataset)
        assert counters == _COUNTERS

    def test_same_unit_count_rewrites_in_place(self, tmp_path) -> None:
        """Stage boundaries checkpoint at an unchanged unit count."""
        store = _store(tmp_path)
        store.write(_state(units_done=7), _COUNTERS)
        moved = _state(units_done=7)
        moved.stage = STAGE_DOMAINS
        store.write(moved, _COUNTERS)
        loaded = store.load()
        assert loaded is not None
        assert loaded[0].stage == STAGE_DOMAINS

    def test_load_reflects_newest_commit(self, tmp_path) -> None:
        store = _store(tmp_path)
        store.write(_state(units_done=7), _COUNTERS)
        store.write(_state(units_done=14, wallets_done=10), _COUNTERS)
        loaded = store.load()
        assert loaded is not None
        assert loaded[0].units_done == 14
        assert loaded[0].wallets_done == 10


class TestDegradedLoads:
    """Every corruption mode degrades to None (fresh crawl), never raises."""

    def test_empty_storage(self, tmp_path) -> None:
        assert _store(tmp_path).load() is None

    def test_directory_exists_but_no_commit(self, tmp_path) -> None:
        store = _store(tmp_path)
        (tmp_path / "ckpt").mkdir()
        assert store.load() is None

    def test_dangling_commit_pointer(self, tmp_path) -> None:
        """LATEST names a snapshot that was never written (torn commit)."""
        store = _store(tmp_path)
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "LATEST").write_text("ckpt-000099\n")
        assert store.load() is None

    def test_mid_write_kill_leaves_previous_snapshot_live(self, tmp_path) -> None:
        """A snapshot dir without state.json (killed mid-write) is never
        committed — LATEST still serves the prior complete snapshot."""
        store = _store(tmp_path)
        store.write(_state(units_done=7), _COUNTERS)
        torn = tmp_path / "ckpt" / "ckpt-000014"
        torn.mkdir()  # the kill landed after mkdir, before any file
        loaded = store.load()
        assert loaded is not None
        assert loaded[0].units_done == 7

    def test_corrupt_state_json(self, tmp_path) -> None:
        store = _store(tmp_path)
        snapshot = store.write(_state(), _COUNTERS)
        (snapshot / "state.json").write_text("{ not json", encoding="utf-8")
        assert store.load() is None

    def test_stale_fingerprint(self, tmp_path) -> None:
        """A snapshot from a crawl with different page sizes is refused."""
        writer = _store(tmp_path, fingerprint="v1:subgraph_page=50:explorer_page=50")
        writer.write(_state(), _COUNTERS)
        reader = _store(tmp_path)  # FINGERPRINT differs
        assert reader.load() is None

    def test_future_format_version_is_stale(self, tmp_path) -> None:
        writer = _store(tmp_path, fingerprint="v999" + FINGERPRINT[2:])
        writer.write(_state(), _COUNTERS)
        assert _store(tmp_path).load() is None

    def test_unknown_stage(self, tmp_path) -> None:
        store = _store(tmp_path)
        snapshot = store.write(_state(), _COUNTERS)
        payload = json.loads((snapshot / "state.json").read_text())
        payload["cursor"]["stage"] = "teleporting"
        (snapshot / "state.json").write_text(json.dumps(payload))
        assert store.load() is None

    @pytest.mark.parametrize("field", ["wallets_done", "tokens_done", "units_done"])
    @pytest.mark.parametrize("value", ["x", None, -1, 1.5, [], True])
    def test_malformed_count_field(self, tmp_path, field, value) -> None:
        store = _store(tmp_path)
        snapshot = store.write(_state(), _COUNTERS)
        payload = json.loads((snapshot / "state.json").read_text())
        payload["cursor"][field] = value
        (snapshot / "state.json").write_text(json.dumps(payload))
        assert store.load() is None

    @pytest.mark.parametrize("cursor", [[], "transactions", 7, None])
    def test_cursor_that_is_not_a_dict(self, tmp_path, cursor) -> None:
        store = _store(tmp_path)
        snapshot = store.write(_state(), _COUNTERS)
        payload = json.loads((snapshot / "state.json").read_text())
        payload["cursor"] = cursor
        (snapshot / "state.json").write_text(json.dumps(payload))
        assert store.load() is None

    def test_unreadable_dataset(self, tmp_path) -> None:
        store = _store(tmp_path)
        snapshot = store.write(_state(), _COUNTERS)
        (snapshot / "dataset" / "domains.jsonl").write_text("not json\n")
        assert store.load() is None


class TestGarbageCollection:
    @staticmethod
    def _snapshot_names(tmp_path) -> list[str]:
        return sorted(
            entry.name
            for entry in (tmp_path / "ckpt").iterdir()
            if entry.is_dir()
        )

    def test_keeps_only_configured_history(self, tmp_path) -> None:
        store = _store(tmp_path, keep=2)
        for units in (7, 14, 21, 28):
            store.write(_state(units_done=units), _COUNTERS)
        assert self._snapshot_names(tmp_path) == ["ckpt-000021", "ckpt-000028"]

    def test_default_keeps_exactly_one(self, tmp_path) -> None:
        store = _store(tmp_path)
        for units in (7, 14):
            store.write(_state(units_done=units), _COUNTERS)
        assert self._snapshot_names(tmp_path) == ["ckpt-000014"]
        loaded = store.load()
        assert loaded is not None and loaded[0].units_done == 14


class TestValidation:
    def test_cadence_must_be_positive(self, tmp_path) -> None:
        with pytest.raises(ValueError):
            CheckpointConfig(directory=tmp_path, every=0)

    def test_keep_snapshots_must_be_positive(self, tmp_path) -> None:
        with pytest.raises(ValueError):
            CheckpointConfig(directory=tmp_path, keep_snapshots=0)

    def test_stage_tuple_is_the_crawl_order(self) -> None:
        assert STAGES[0] == STAGE_DOMAINS
        assert STAGES[-1] == "done"

    def test_default_state_starts_at_the_beginning(self) -> None:
        state = CrawlState()
        assert state.stage == STAGE_DOMAINS
        assert state.units_done == 0
        assert state.dataset.domain_count == 0


# -- resuming a real crawl from snapshots on disk ---------------------------

_KILL_PLAN = FaultPlan(
    seed=0, endpoints={"explorer": EndpointFaultSpec(kill_at_call=20)}
)


@pytest.fixture(scope="module")
def world():
    return run_scenario(ScenarioConfig(n_domains=40, seed=21))


@pytest.fixture(scope="module")
def clean_digest(world) -> str:
    """The digest of an uncheckpointed crawl of ``world``."""
    dataset, _ = world.run_crawl()
    return dataset_digest(dataset)


def _killed_snapshot(world, directory) -> dict:
    """Kill a checkpointed crawl mid-stage-3; return its committed state.json."""
    with pytest.raises(CrawlKilled):
        world.run_crawl(
            fault_plan=_KILL_PLAN,
            checkpoint=CheckpointConfig(directory=directory, every=7),
        )
    payload = json.loads(_state_path(directory).read_text())
    assert payload["cursor"]["stage"] == STAGE_TRANSACTIONS
    assert payload["cursor"]["wallets_done"] > 0
    return payload


def _state_path(directory):
    latest = (directory / "LATEST").read_text().strip()
    return directory / latest / "state.json"


def _resume(world, directory) -> tuple[str, MetricsRegistry]:
    registry = MetricsRegistry()
    dataset, _ = world.run_crawl(
        registry=registry,
        checkpoint=CheckpointConfig(directory=directory, every=7, resume=True),
    )
    return dataset_digest(dataset), registry


class TestResumeFromDisk:
    @pytest.mark.parametrize("value", ["x", None, -1, 1.5, []])
    def test_malformed_cursor_starts_fresh(
        self, world, clean_digest, tmp_path, value
    ) -> None:
        directory = tmp_path / "ckpt"
        payload = _killed_snapshot(world, directory)
        payload["cursor"]["wallets_done"] = value
        _state_path(directory).write_text(json.dumps(payload))
        digest, registry = _resume(world, directory)
        assert registry.value("checkpoint_stale_total") == 1
        assert registry.value("checkpoint_resumes_total") == 0
        assert digest == clean_digest

    def test_serial_snapshot_from_older_release_resumes(
        self, world, clean_digest, tmp_path
    ) -> None:
        """Older releases wrote an (empty) ``shards_done`` map into every
        serial cursor; such a snapshot still resumes where it stopped."""
        directory = tmp_path / "ckpt"
        payload = _killed_snapshot(world, directory)
        payload["cursor"]["shards_done"] = {}
        _state_path(directory).write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
        digest, registry = _resume(world, directory)
        assert registry.value("checkpoint_resumes_total") == 1
        assert registry.value("checkpoint_stale_total") == 0
        assert digest == clean_digest

    def test_sharded_snapshot_from_older_release_is_stale(
        self, world, clean_digest, tmp_path
    ) -> None:
        """A sharded crawl's snapshot (``:shards=N`` fingerprint, per-shard
        results in ``staged.json``) cannot be resumed serially."""
        directory = tmp_path / "ckpt"
        payload = _killed_snapshot(world, directory)
        payload["fingerprint"] += ":shards=16"
        payload["cursor"]["shards_done"] = {STAGE_TRANSACTIONS: [0, 3]}
        state_path = _state_path(directory)
        state_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        (state_path.parent / "staged.json").write_text(
            json.dumps({"transactions": {"0": [], "3": []}, "market_events": {}})
        )
        digest, registry = _resume(world, directory)
        assert registry.value("checkpoint_stale_total") == 1
        assert registry.value("checkpoint_resumes_total") == 0
        assert digest == clean_digest
