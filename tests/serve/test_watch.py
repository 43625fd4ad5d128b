"""The watcher and the loader read one delta-log framing.

``load_deltas`` skips blank lines, so ``delta_cursor`` counts delta
lines, not newlines; the watcher's first offset and every poll must
agree with that count, or a poll re-applies deltas the loader already
replayed.
"""

from __future__ import annotations

import pytest

from repro.crawler.storage import (
    DELTAS_FILE,
    DatasetFormatError,
    append_delta,
    load_dataset,
    save_dataset,
)
from repro.obs import MetricsRegistry
from repro.serve import DatasetWatcher, ReproApp
from repro.simulation import ScenarioConfig, stream_scenario


@pytest.fixture(scope="module")
def stream():
    return stream_scenario(ScenarioConfig(n_domains=50, seed=4), batches=4)


def _app(dataset, stream) -> ReproApp:
    return ReproApp(dataset, stream.oracle, registry=MetricsRegistry())


def _report(app: ReproApp) -> bytes:
    return app.handle("GET", "/report").body


def _log_with_blank_lines(stream, directory) -> None:
    """Base batch 1 plus deltas 2..4, with blank lines before, between
    and after the delta lines."""
    save_dataset(stream.replay(1), directory)
    for delta in stream.deltas[1:]:
        append_delta(directory, delta)
    path = directory / DELTAS_FILE
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"\n" * 5 + lines[0] + b"  \n" + b"".join(lines[1:]) + b"\n\n")


class TestBlankLines:
    def test_first_poll_applies_nothing_the_loader_replayed(
        self, stream, tmp_path
    ) -> None:
        _log_with_blank_lines(stream, tmp_path)
        app = _app(load_dataset(tmp_path), stream)
        assert app.dataset.delta_cursor == 3
        watcher = DatasetWatcher(app, tmp_path)
        assert watcher.poll_once() == 0
        fresh = load_dataset(tmp_path)
        assert app.dataset.delta_cursor == fresh.delta_cursor == 3
        assert len(app.dataset.market_events) == len(fresh.market_events)
        assert _report(app) == _report(_app(fresh, stream))

    def test_poll_after_blank_lines_applies_only_the_new_line(
        self, stream, tmp_path
    ) -> None:
        _log_with_blank_lines(stream, tmp_path)
        app = _app(load_dataset(tmp_path), stream)
        watcher = DatasetWatcher(app, tmp_path)
        extra = stream.deltas[-1]
        cursor = append_delta(tmp_path, extra)
        assert cursor == 4
        assert watcher.poll_once() == 1
        assert watcher.poll_once() == 0
        fresh = load_dataset(tmp_path)
        assert app.dataset.delta_cursor == fresh.delta_cursor == cursor

    def test_malformed_line_number_counts_blank_lines(
        self, stream, tmp_path
    ) -> None:
        _log_with_blank_lines(stream, tmp_path)
        app = _app(load_dataset(tmp_path), stream)
        watcher = DatasetWatcher(app, tmp_path)
        with (tmp_path / DELTAS_FILE).open("ab") as handle:
            handle.write(b"not json\n")
        # 5 blank, 1 delta, 1 blank, 2 deltas, 2 blank: the bad line is 12
        with pytest.raises(DatasetFormatError, match=f"{DELTAS_FILE}:12"):
            watcher.poll_once()
        assert app.dataset.delta_cursor == 3
        with pytest.raises(DatasetFormatError, match=f"{DELTAS_FILE}:12"):
            load_dataset(tmp_path)
