"""Structured logging: ``event key=value`` lines over stdlib logging.

Replaces bare ``print()`` progress output across the library (the CI
lint enforces this — ``print`` is only allowed in ``cli.py``, which owns
the user-facing report output, and inside this package). Messages are an
event name plus key=value fields, which keeps them grep-able and lets a
log shipper parse them without a regex museum::

    from repro.obs.log import get_logger
    log = get_logger("crawler")
    log.info("crawl.finished", domains=3_100_000, recovery=0.999)
    # 2026-08-06T12:00:00 INFO repro.crawler crawl.finished domains=3100000 recovery=0.999

Handlers attach to the ``repro`` logger once, lazily, and write to
stderr so piped CLI output (reports, CSVs) stays clean.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, TextIO

__all__ = ["get_logger"]

_ROOT_NAME = "repro"
_configured = False


def _format_field(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if " " in text or "=" in text or '"' in text:
        escaped = text.replace('"', '\\"')
        return f'"{escaped}"'
    return text


def _ensure_configured() -> None:
    """Attach the default stderr handler once, without touching levels."""
    if not _configured:
        configure()


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted, as
    the standard library's last-resort handler does, so replacing (and
    closing) ``sys.stderr`` after the first log line loses nothing."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self) -> TextIO:
        return sys.stderr


def configure(
    level: int | str = logging.INFO, stream: TextIO | None = None
) -> logging.Logger:
    """Attach the structured handler to the ``repro`` logger.

    Without ``stream`` the handler writes to the current ``sys.stderr``
    at each record; an explicit ``stream`` is bound once. Re-invoking
    only replaces the handler when ``stream`` is given; otherwise it
    just adjusts the level.
    """
    global _configured
    root = logging.getLogger(_ROOT_NAME)
    if _configured and stream is None:
        root.setLevel(level)
        return root
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream) if stream is not None else _StderrHandler()
    handler.setFormatter(
        logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s %(message)s",
            datefmt="%Y-%m-%dT%H:%M:%S",
        )
    )
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    _configured = True
    return root


class StructuredLogger:
    """Event + fields facade over one stdlib logger."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    def _emit(self, level: int, event: str, fields: dict[str, Any]) -> None:
        _ensure_configured()
        if not self._logger.isEnabledFor(level):
            return
        parts = [event]
        parts.extend(f"{key}={_format_field(value)}" for key, value in fields.items())
        self._logger.log(level, " ".join(parts))

    def debug(self, event: str, **fields: Any) -> None:
        """Emit a DEBUG-level event line."""
        self._emit(logging.DEBUG, event, fields)

    def info(self, event: str, **fields: Any) -> None:
        """Emit an INFO-level event line."""
        self._emit(logging.INFO, event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        """Emit a WARNING-level event line."""
        self._emit(logging.WARNING, event, fields)

    def error(self, event: str, **fields: Any) -> None:
        """Emit an ERROR-level event line."""
        self._emit(logging.ERROR, event, fields)


def get_logger(name: str) -> StructuredLogger:
    """A structured logger under the ``repro`` namespace."""
    qualified = name if name.startswith(_ROOT_NAME) else f"{_ROOT_NAME}.{name}"
    return StructuredLogger(logging.getLogger(qualified))
