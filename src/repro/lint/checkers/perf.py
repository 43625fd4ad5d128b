"""Perf checker: analyses must read the index, not rescan the dataset.

The analysis layer scales because every §4 pass reads the shared
:class:`~repro.core.context.AnalysisContext` — per-address bisect
windows, grouped payment lists, the memoized event list — instead of
walking ``dataset.transactions`` end to end. One stray full scan in a
per-event loop quietly reintroduces the O(events × txs) behaviour the
index exists to remove.

* ``perf-full-tx-scan`` — iterating ``<anything>.transactions`` (a
  ``for`` loop or comprehension) inside ``repro.core``, outside the
  index layer itself. Route the query through the analysis context; a
  deliberate whole-log pass (descriptive stats, the reference scan
  implementation) carries a ``# lint: ignore[perf-full-tx-scan]``
  suppression with its reason.
* ``perf-row-object-hot-loop`` — iterating ``<anything>.market_events``
  the same way. The columnar store answers ordered/windowed event
  queries straight off its timestamp column
  (``AnalysisContext.market_events_until``); a raw loop materializes
  every row object even when the dataset is column-backed. An
  accepted once-per-report scan carries a
  ``# lint: ignore[perf-row-object-hot-loop]`` suppression with its
  reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Rule
from ..registry import Checker, register
from ..source import SourceFile

__all__ = []

#: Modules that ARE the index layer — they scan so nobody else has to.
INDEX_LAYER_MODULES = frozenset(
    {"repro.core.context", "repro.datasets.dataset"}
)


def _is_tx_list(node: ast.expr) -> bool:
    """``<expr>.transactions`` — the raw transaction log attribute."""
    return isinstance(node, ast.Attribute) and node.attr == "transactions"


def _is_event_list(node: ast.expr) -> bool:
    """``<expr>.market_events`` — the raw market-event log attribute."""
    return isinstance(node, ast.Attribute) and node.attr == "market_events"


@register
class PerfChecker(Checker):
    """Flag full row-object scans inside the analysis layer."""

    name = "perf"
    rules = (
        Rule(
            "perf-full-tx-scan",
            "full scan of dataset.transactions in repro.core;"
            " query the AnalysisContext instead",
        ),
        Rule(
            "perf-row-object-hot-loop",
            "full scan of dataset.market_events in repro.core;"
            " use AnalysisContext.market_events_until / column accessors",
        ),
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Flag for-loops and comprehensions over the raw row logs."""
        if source.tree is None:
            return
        check_txs = self.enabled("perf-full-tx-scan")
        check_events = self.enabled("perf-row-object-hot-loop")
        if not (check_txs or check_events):
            return
        module = source.module
        if (
            module is None
            or not module.startswith("repro.core")
            or module in INDEX_LAYER_MODULES
        ):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.For):
                targets = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                targets = [generator.iter for generator in node.generators]
            else:
                continue
            for target in targets:
                if check_txs and _is_tx_list(target):
                    yield self.finding(
                        source, "perf-full-tx-scan",
                        target.lineno, target.col_offset,
                        "iterating the full transaction log; use the shared"
                        " AnalysisContext (incoming_window / payments /"
                        " transactions_until)",
                    )
                if check_events and _is_event_list(target):
                    yield self.finding(
                        source, "perf-row-object-hot-loop",
                        target.lineno, target.col_offset,
                        "iterating the full market-event log materializes"
                        " every row object; use AnalysisContext"
                        ".market_events_until or the columnar accessors",
                    )
