"""Retry-discipline checker: crawler clients must not sleep by hand.

All crawl-time waiting is owned by the shared retry policy
(:class:`repro.faults.retry.RetryingCaller`): deterministic seeded
backoff, a per-call retry *budget*, and circuit-breaker cooldowns. A
client that calls ``clock.sleep`` directly re-creates exactly the bug
the policy removed — unbounded, unaccounted, unreplayable waiting that
no metric and no budget can see.

* ``retry-direct-sleep`` — a ``*.sleep(...)`` call inside
  ``repro.crawler`` outside the shared policy. Clients express waiting
  as a :class:`~repro.faults.retry.RetryPolicy` and let the caller
  sleep; an intentional exception carries a
  ``# lint: ignore[retry-direct-sleep]`` suppression with its reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Rule
from ..registry import Checker, register
from ..source import SourceFile

__all__ = []

#: Packages whose modules may never sleep directly. The shared policy
#: (repro.faults.retry) is the single place allowed to call sleep on a
#: clock — it lives outside these packages by construction.
RESTRICTED_PACKAGES = ("repro.crawler",)


@register
class RetryDisciplineChecker(Checker):
    """Flag direct sleep calls in crawler clients."""

    name = "retry_discipline"
    rules = (
        Rule(
            "retry-direct-sleep",
            "direct clock.sleep in a crawler client; waiting belongs to"
            " the shared repro.faults.retry policy",
        ),
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Flag every ``<expr>.sleep(...)`` call in restricted modules."""
        if source.tree is None or not self.enabled("retry-direct-sleep"):
            return
        module = source.module
        if module is None or not module.startswith(RESTRICTED_PACKAGES):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "sleep":
                yield self.finding(
                    source, "retry-direct-sleep",
                    node.lineno, node.col_offset,
                    "crawler code must not sleep directly; express the wait"
                    " as a RetryPolicy and let repro.faults.retry's"
                    " RetryingCaller drive the clock",
                )
