"""Delta-aware serving: ETags, 304s, cache migration, the watch poller."""

from __future__ import annotations

import contextlib
import dataclasses
import logging
from collections.abc import Iterator

import pytest

from repro.core import find_hijackable
from repro.crawler.storage import (
    DatasetFormatError,
    append_delta,
    load_dataset,
    save_dataset,
)
from repro.datasets.delta import DatasetDelta
from repro.obs import MetricsRegistry
from repro.serve import DatasetWatcher, ReproApp
from repro.serve.app import NOT_MODIFIED_METRIC
from repro.serve.query import CACHE_MIGRATED_METRIC
from repro.serve.watch import WATCH_POLLS_METRIC
from repro.simulation import ScenarioConfig, stream_scenario


@contextlib.contextmanager
def _watch_log() -> Iterator[list[logging.LogRecord]]:
    """Every record the watcher logs while the block runs, at any level."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append  # type: ignore[method-assign]
    logger = logging.getLogger("repro.serve.watch")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@pytest.fixture(scope="module")
def stream():
    return stream_scenario(ScenarioConfig(n_domains=50, seed=4), batches=4)


def _app(dataset, stream):
    registry = MetricsRegistry()
    return ReproApp(dataset, stream.oracle, registry=registry), registry


def _tx_only_delta(dataset, index: int) -> DatasetDelta:
    template = dataset.transactions[-1]
    return DatasetDelta(
        transactions=(
            dataclasses.replace(
                template,
                tx_hash=f"0xserve-delta-{index}",
                timestamp=template.timestamp + 1 + index,
            ),
        ),
        label=f"tx-only-{index}",
    )


class TestConditionalRequests:
    def test_report_carries_strong_etag(self, stream) -> None:
        app, _ = _app(stream.replay(), stream)
        response = app.handle("GET", "/report")
        etag = response.header("ETag")
        assert response.status == 200
        assert etag is not None and etag.startswith('"') and etag.endswith('"')

    def test_if_none_match_hit_returns_empty_304(self, stream) -> None:
        app, registry = _app(stream.replay(), stream)
        etag = app.handle("GET", "/report").header("ETag")
        conditional = app.handle("GET", "/report", {"If-None-Match": etag})
        assert conditional.status == 304
        assert conditional.body == b""
        assert conditional.header("ETag") == etag
        assert registry.value(NOT_MODIFIED_METRIC) == 1.0

    def test_star_and_case_insensitive_header(self, stream) -> None:
        app, registry = _app(stream.replay(), stream)
        app.handle("GET", "/report/summary")
        assert (
            app.handle("GET", "/report/summary", {"if-none-match": "*"}).status
            == 304
        )
        assert registry.value(NOT_MODIFIED_METRIC) == 1.0

    def test_stale_etag_gets_full_response(self, stream) -> None:
        app, _ = _app(stream.replay(), stream)
        app.handle("GET", "/report")
        response = app.handle("GET", "/report", {"If-None-Match": '"stale"'})
        assert response.status == 200
        assert response.body

    def test_delta_moves_the_etag(self, stream) -> None:
        dataset = stream.replay()
        app, _ = _app(dataset, stream)
        before = app.handle("GET", "/report").header("ETag")
        app.apply_deltas([_tx_only_delta(dataset, 0)])
        after = app.handle("GET", "/report").header("ETag")
        assert before != after
        assert (
            app.handle("GET", "/report", {"If-None-Match": before}).status
            == 200
        )


class TestCacheMigration:
    def test_tx_only_delta_keeps_domain_and_dropcatch(self, stream) -> None:
        dataset = stream.replay()
        app, registry = _app(dataset, stream)
        name = next(
            d.name for d in dataset.iter_domains() if d.name is not None
        )
        app.handle("GET", f"/domain/{name}")
        app.handle("GET", "/query/dropcatch")
        app.handle("GET", "/query/hijackable")
        app.handle("GET", "/report")
        assert len(app._cache) == 4
        app.apply_deltas([_tx_only_delta(dataset, 1)])
        assert len(app._cache) == 2
        assert registry.value(CACHE_MIGRATED_METRIC, outcome="kept") == 2.0
        assert registry.value(CACHE_MIGRATED_METRIC, outcome="dropped") == 2.0

    def test_domain_delta_drops_everything(self, stream) -> None:
        dataset = stream.replay(3)
        app, registry = _app(dataset, stream)
        app.handle("GET", "/query/dropcatch")
        app.handle("GET", "/report")
        app.apply_deltas([stream.deltas[3]])  # batch 4: domain upserts
        assert len(app._cache) == 0
        assert registry.value(CACHE_MIGRATED_METRIC, outcome="kept") == 0.0

    def test_migrated_report_matches_fresh_compute(self, stream) -> None:
        dataset = stream.replay(3)
        app, _ = _app(dataset, stream)
        app.apply_deltas([stream.deltas[3]])
        streamed_body = app.handle("GET", "/report").body
        cold_app, _ = _app(stream.replay(), stream)
        assert streamed_body == cold_app.handle("GET", "/report").body

    def test_columnar_dataset_rejects_deltas(self, stream) -> None:
        from repro.datasets import ColumnarDataset

        dataset = stream.replay()
        app, _ = _app(ColumnarDataset.from_dataset(dataset), stream)
        with pytest.raises(TypeError, match="mutable"):
            app.apply_deltas([_tx_only_delta(dataset, 2)])


class TestHijackableQuery:
    def test_tx_delta_matches_cold_app(self, stream) -> None:
        """The query reads the refreshed report's windows: after a payment
        lands in an exposure window, the body equals a cold app's."""
        dataset = stream.replay()
        app, _ = _app(dataset, stream)
        before = app.handle("GET", "/query/hijackable").body
        window = next(
            window
            for window in find_hijackable(dataset, stream.oracle).windows
            if window.txs
        )
        paid = window.txs[0]
        assert paid.timestamp + 1 <= window.window_end
        delta = DatasetDelta(
            transactions=(
                dataclasses.replace(
                    paid,
                    tx_hash="0xserve-hijack-delta",
                    timestamp=paid.timestamp + 1,
                ),
            ),
            label="tx-into-window",
        )
        app.apply_deltas([delta])
        after = app.handle("GET", "/query/hijackable").body
        cold_dataset = stream.replay()
        cold_dataset.apply_delta(delta)
        cold_app, _ = _app(cold_dataset, stream)
        assert after != before
        assert after == cold_app.handle("GET", "/query/hijackable").body


class TestHttpConditional:
    def test_304_over_real_http(self, stream) -> None:
        """The listener forwards ETag headers and serves empty 304s."""
        from .harness import ServeHarness

        with ServeHarness(stream.replay(), stream.oracle) as harness:
            first = harness.get("/report")
            etag = first.header("ETag")
            assert first.status == 200 and etag is not None
            second = harness.get("/report", headers={"If-None-Match": etag})
            assert second.status == 304
            assert second.body == b""
            assert second.header("ETag") == etag


class TestDatasetWatcher:
    def test_polls_apply_new_log_lines(self, stream, tmp_path) -> None:
        save_dataset(stream.replay(2), tmp_path)
        app, registry = _app(load_dataset(tmp_path), stream)
        watcher = DatasetWatcher(app, tmp_path)
        assert watcher.poll_once() == 0
        for delta in stream.deltas[2:]:
            append_delta(tmp_path, delta)
        assert watcher.poll_once() == 2
        assert watcher.poll_once() == 0
        assert registry.value(WATCH_POLLS_METRIC, outcome="changed") == 1.0
        cold_app, _ = _app(stream.replay(), stream)
        assert (
            app.handle("GET", "/report").body
            == cold_app.handle("GET", "/report").body
        )

    def test_initial_offset_skips_replayed_lines(self, stream, tmp_path) -> None:
        save_dataset(stream.replay(2), tmp_path)
        for delta in stream.deltas[2:]:
            append_delta(tmp_path, delta)
        # the loader replays the whole log; the watcher must not re-apply
        loaded = load_dataset(tmp_path)
        assert loaded.delta_cursor == 2
        app, _ = _app(loaded, stream)
        assert DatasetWatcher(app, tmp_path).poll_once() == 0

    def test_torn_tail_not_consumed(self, stream, tmp_path) -> None:
        save_dataset(stream.replay(3), tmp_path)
        app, _ = _app(load_dataset(tmp_path), stream)
        watcher = DatasetWatcher(app, tmp_path)
        (tmp_path / "deltas.jsonl").write_bytes(b'{"transactions": [{"t')
        assert watcher.poll_once() == 0
        cursor_before = app.dataset.delta_cursor
        append_delta(tmp_path, stream.deltas[3])  # truncates the torn tail
        assert watcher.poll_once() == 1
        assert app.dataset.delta_cursor == cursor_before + 1

    def test_shrunk_log_fast_forwards_without_applying(
        self, stream, tmp_path
    ) -> None:
        save_dataset(stream.replay(2), tmp_path)
        for delta in stream.deltas[2:]:
            append_delta(tmp_path, delta)
        app, _ = _app(load_dataset(tmp_path), stream)
        watcher = DatasetWatcher(app, tmp_path)
        (tmp_path / "deltas.jsonl").write_bytes(b"")  # compacted underneath
        cursor = app.dataset.delta_cursor
        assert watcher.poll_once() == 0
        assert app.dataset.delta_cursor == cursor

    def test_malformed_line_is_a_format_error(self, stream, tmp_path) -> None:
        save_dataset(stream.replay(2), tmp_path)
        append_delta(tmp_path, stream.deltas[2])
        app, _ = _app(load_dataset(tmp_path), stream)
        watcher = DatasetWatcher(app, tmp_path)
        with (tmp_path / "deltas.jsonl").open("a", encoding="utf-8") as handle:
            handle.write("[1,2]\n")
        with pytest.raises(DatasetFormatError, match=r"deltas\.jsonl:2: malformed"):
            watcher.poll_once()
        assert app.dataset.delta_cursor == 1

    @staticmethod
    def _valid_bad_valid(
        stream, tmp_path
    ) -> tuple[DatasetWatcher, ReproApp, MetricsRegistry]:
        """A watcher over a log of: valid delta, malformed line, valid delta."""
        save_dataset(stream.replay(2), tmp_path)
        app, registry = _app(load_dataset(tmp_path), stream)
        watcher = DatasetWatcher(app, tmp_path, poll_interval=0.01)
        append_delta(tmp_path, stream.deltas[2])
        with (tmp_path / "deltas.jsonl").open("a", encoding="utf-8") as handle:
            handle.write("[1,2]\n")
        append_delta(tmp_path, stream.deltas[3])
        return watcher, app, registry

    def test_malformed_line_stops_watching_for_good(self, stream, tmp_path) -> None:
        watcher, app, registry = self._valid_bad_valid(stream, tmp_path)
        with _watch_log() as records:
            with pytest.raises(DatasetFormatError, match=r"deltas\.jsonl:2: malformed"):
                watcher.poll_once()
            # the line before the bad one is applied; the offset stays there
            assert app.dataset.delta_cursor == 1
            errors = [r.getMessage() for r in records if r.levelno >= logging.ERROR]
            assert len(errors) == 1
            assert errors[0].startswith("watch.malformed line=deltas.jsonl:2 ")
            records.clear()
            for _ in range(3):
                assert watcher.poll_once() == 0
            assert records == []
        assert app.dataset.delta_cursor == 1
        assert registry.value(WATCH_POLLS_METRIC, outcome="malformed") == 1.0
        # not skipped: a restart rejects the same line
        with pytest.raises(DatasetFormatError, match=r"deltas\.jsonl:2: malformed"):
            load_dataset(tmp_path)

    def test_background_loop_ends_on_malformed_line(self, stream, tmp_path) -> None:
        watcher, app, registry = self._valid_bad_valid(stream, tmp_path)
        with _watch_log() as records:
            watcher.start()
            thread = watcher._thread
            assert thread is not None
            try:
                thread.join(timeout=10)
                assert not thread.is_alive()
            finally:
                watcher.stop()
        events = [r.getMessage().split(" ", 1)[0] for r in records]
        assert events.count("watch.malformed") == 1
        assert "watch.poll_failed" not in events
        assert app.dataset.delta_cursor == 1
        assert registry.value(WATCH_POLLS_METRIC, outcome="malformed") == 1.0

    def test_background_thread_lifecycle(self, stream, tmp_path) -> None:
        save_dataset(stream.replay(), tmp_path)
        app, _ = _app(load_dataset(tmp_path), stream)
        with DatasetWatcher(app, tmp_path, poll_interval=0.01) as watcher:
            assert watcher._thread is not None
        assert watcher._thread is None
