"""Span-based tracing for nested pipeline stages.

A :class:`Tracer` times a tree of named spans against an injectable
clock: wall time (``time.perf_counter``, the default) for real runs, or
any zero-argument callable — e.g. a simulation's shared
:class:`~repro.explorer.api.VirtualClock` ``.now`` — so backoff sleeps
and simulated phases are measured in the same time base the code under
test experiences.

Spans record exceptions (the error is noted, the span is closed, and the
exception propagates) and optionally feed a ``span_duration_seconds``
histogram in a :class:`~repro.obs.metrics.MetricsRegistry`, so trace
timings and exported metrics can never disagree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from .metrics import MetricsRegistry

__all__ = ["Span", "Tracer", "span_lines"]

SPAN_DURATION_METRIC = "span_duration_seconds"


class Span:
    """One timed stage; children are stages that ran inside it."""

    __slots__ = ("name", "start", "end", "children", "error", "attributes")

    def __init__(self, name: str, start: float, **attributes: object) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.children: list[Span] = []
        self.error: str | None = None
        self.attributes: dict[str, object] = dict(attributes)

    @property
    def duration(self) -> float | None:
        """Seconds from start to end, or ``None`` while still open."""
        return None if self.end is None else self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready mapping of this span and its children."""
        entry: dict[str, Any] = {
            "name": self.name,
            "duration_seconds": self.duration,
        }
        if self.attributes:
            entry["attributes"] = dict(self.attributes)
        if self.error is not None:
            entry["error"] = self.error
        if self.children:
            entry["children"] = [child.as_dict() for child in self.children]
        return entry

    def iter_tree(self) -> Iterator["Span"]:
        """Yield this span then all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_tree()


class Tracer:
    """Builds a span tree; safe to leave enabled everywhere (cheap)."""

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._duration_metric = (
            registry.histogram(
                SPAN_DURATION_METRIC,
                "Duration of traced spans",
                labels=("span",),
            )
            if registry is not None
            else None
        )

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a child span of the current span (or a new root)."""
        node = Span(name, self.clock(), **attributes)
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        try:
            yield node
        except BaseException as exc:
            node.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            node.end = self.clock()
            self._stack.pop()
            if self._duration_metric is not None:
                self._duration_metric.labels(span=name).observe(
                    node.end - node.start
                )

    # -- inspection --------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        """Yield every recorded span, depth-first from the roots."""
        for root in self.roots:
            yield from root.iter_tree()

    def find(self, name: str) -> Span | None:
        """First span with ``name`` in depth-first order."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def as_dict(self) -> list[dict[str, Any]]:
        """JSON-ready list of root span trees."""
        return [root.as_dict() for root in self.roots]

    def tree_lines(self) -> list[str]:
        """Human-readable tree with per-span durations (CLI ``--trace``)."""
        return span_lines(self.as_dict())


def span_lines(spans: list[dict[str, Any]], depth: int = 0) -> list[str]:
    """Render span trees of the :meth:`Tracer.as_dict` shape, one line each.

    The format of ``--trace`` and ``repro obs show``: the name indented
    two spaces per level, the duration (``(open)`` while unfinished),
    and an ``[error: ...]`` marker for spans that raised. Ledger
    records are read from disk, so a missing name renders as ``?``.
    """
    lines: list[str] = []
    for span in spans:
        duration = span.get("duration_seconds")
        timing = "(open)" if duration is None else f"{duration:.3f}s"
        marker = f"  [error: {span['error']}]" if span.get("error") else ""
        label = f"{'  ' * depth}{span.get('name', '?')}"
        lines.append(f"{label:<44s} {timing:>10s}{marker}")
        lines.extend(span_lines(span.get("children", ()), depth + 1))
    return lines
