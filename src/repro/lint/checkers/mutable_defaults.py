"""Mutable-default-argument checker.

``def f(seen=[])`` shares one list across every call — state leaks
between invocations and, in this codebase, between *scenario runs*,
which silently breaks seed-for-seed reproducibility. Flags list/dict/
set displays, comprehensions, and bare ``list()``/``dict()``/``set()``
calls used as parameter defaults. The fix is the ``None`` sentinel
idiom.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Rule
from ..registry import Checker, register
from ..source import SourceFile

__all__ = []

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})


def _is_mutable(node: ast.expr) -> bool:
    """Syntactically-certain mutable value used as a default."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


@register
class MutableDefaultsChecker(Checker):
    """Flag mutable values in function-parameter defaults."""

    name = "mutable-defaults"
    rules = (
        Rule(
            "mutable-default",
            "mutable default argument shared across calls; use None sentinel",
        ),
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Inspect every function/lambda default in the file."""
        if source.tree is None or not self.enabled("mutable-default"):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if _is_mutable(default):
                    yield self.finding(
                        source, "mutable-default", default.lineno, default.col_offset,
                        f"{name}() has a mutable default; it is created once and"
                        " shared across calls — default to None instead",
                    )
