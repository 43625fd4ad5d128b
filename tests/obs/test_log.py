"""Structured logging: event + key=value formatting."""

from __future__ import annotations

import io
import logging
import sys

import pytest

from repro.obs import get_logger
from repro.obs.log import configure
from repro.obs import log as log_module


def _restore_defaults() -> None:
    log_module._configured = False
    configure(level=logging.INFO)


@pytest.fixture()
def captured():
    stream = io.StringIO()
    configure(level=logging.DEBUG, stream=stream)
    yield stream
    _restore_defaults()


class TestStructuredLogger:
    def test_event_and_fields(self, captured) -> None:
        get_logger("crawler").info("crawl.finished", domains=31, recovery=0.999)
        line = captured.getvalue().strip()
        assert "INFO repro.crawler crawl.finished" in line
        assert "domains=31" in line
        assert "recovery=0.999" in line

    def test_values_with_spaces_are_quoted(self, captured) -> None:
        get_logger("cli").warning("dataset.note", reason="missing rows")
        assert 'reason="missing rows"' in captured.getvalue()

    def test_float_formatting_is_compact(self, captured) -> None:
        get_logger("x").info("tick", elapsed=1.23456789)
        assert "elapsed=1.23457" in captured.getvalue()

    def test_level_filtering(self, captured) -> None:
        configure(level=logging.WARNING)
        get_logger("x").debug("invisible", a=1)
        get_logger("x").error("visible", b=2)
        text = captured.getvalue()
        assert "invisible" not in text
        assert "visible" in text

    def test_namespacing(self) -> None:
        assert get_logger("crawler")._logger.name == "repro.crawler"
        assert get_logger("repro.core")._logger.name == "repro.core"


class TestDefaultHandler:
    def test_follows_sys_stderr_when_it_is_replaced(self, monkeypatch) -> None:
        first, second = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stderr", first)
        _restore_defaults()
        get_logger("x").info("before.swap")
        # a test harness or a daemonizing caller swaps stderr and closes it
        monkeypatch.setattr(sys, "stderr", second)
        first.close()
        get_logger("x").info("after.swap", n=1)
        text = second.getvalue()
        assert "INFO repro.x after.swap n=1" in text
        assert "--- Logging error ---" not in text
