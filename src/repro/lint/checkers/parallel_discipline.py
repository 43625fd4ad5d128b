"""Parallel-merge discipline: completion order must never become data.

The determinism guarantee of :mod:`repro.parallel` — byte-identical
output at any worker count — survives only if per-shard results are
merged in a canonical order. Two patterns break it:

* ``par-unordered-merge`` — accumulating ``as_completed(...)`` results
  into *ordered* output: appending/extending a list inside the loop, or
  materializing the iterator with ``list()``/``tuple()``/``enumerate()``
  or a comprehension. Completion order is scheduler noise; collect into
  a dict keyed by submission index (or yield ``(index, result)`` pairs)
  and canonicalize at the end.
* ``par-unstable-shard-hash`` — ``hash(key) % n`` shard assignment. The
  builtin ``hash`` is salted per process (PYTHONHASHSEED), so a worker
  and a resumed parent would disagree about shard membership. Use
  :func:`repro.parallel.shard_of` (SHA-256-based) instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Rule
from ..registry import Checker, register
from ..source import SourceFile

__all__ = []

#: Mutating calls that bake iteration order into a sequence.
ORDERED_ACCUMULATORS = frozenset({"append", "extend", "insert", "write"})

#: Builtins that materialize an iterator in iteration order.
ORDER_MATERIALIZERS = frozenset({"enumerate", "list", "sorted", "tuple"})


def _is_as_completed(node: ast.expr) -> bool:
    """A direct ``as_completed(...)`` / ``futures.as_completed(...)`` call."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "as_completed"
    return isinstance(func, ast.Attribute) and func.attr == "as_completed"


def _completion_ordered(node: ast.expr) -> bool:
    """Whether iterating ``node`` yields results in completion order.

    ``as_completed(...)`` itself, or ``enumerate(as_completed(...))`` —
    wrapping in ``enumerate`` numbers the *completion* order, which is
    exactly the value that must never be used as a key.
    """
    if _is_as_completed(node):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "enumerate"
        and any(_is_as_completed(arg) for arg in node.args)
    )


@register
class ParallelDisciplineChecker(Checker):
    """Flag nondeterministic merges and process-salted shard hashing."""

    name = "parallel-discipline"
    rules = (
        Rule(
            "par-unordered-merge",
            "as_completed() results accumulated into ordered output;"
            " key by submission index and merge canonically",
        ),
        Rule(
            "par-unstable-shard-hash",
            "hash() % n shard assignment varies per process;"
            " use repro.parallel.shard_of",
        ),
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Walk the AST once, dispatching loops, calls, and mod-ops."""
        if source.tree is None:
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.For):
                yield from self._check_loop(source, node)
            elif isinstance(node, ast.Call):
                yield from self._check_materializer(source, node)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                yield from self._check_comprehension(source, node)
            elif isinstance(node, ast.BinOp):
                yield from self._check_shard_hash(source, node)

    # -- rule bodies -----------------------------------------------------------

    def _check_loop(self, source: SourceFile, node: ast.For) -> Iterator[Finding]:
        """Ordered accumulation inside a ``for ... in as_completed()`` body.

        Dict assignment keyed by the submitted index and ``yield`` are
        the sanctioned collection patterns — both erase completion
        order — so only order-sensitive mutators are flagged.
        """
        if not self.enabled("par-unordered-merge"):
            return
        if not _completion_ordered(node.iter):
            return
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in ORDERED_ACCUMULATORS
            ):
                yield self.finding(
                    source, "par-unordered-merge", inner.lineno, inner.col_offset,
                    f".{inner.func.attr}() inside an as_completed() loop bakes"
                    " completion order into the output; collect into a dict"
                    " keyed by submission index and merge in sorted order",
                )

    def _check_materializer(
        self, source: SourceFile, node: ast.Call
    ) -> Iterator[Finding]:
        """``list(as_completed(...))`` and friends."""
        if not self.enabled("par-unordered-merge"):
            return
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ORDER_MATERIALIZERS
            and any(_is_as_completed(arg) for arg in node.args)
        ):
            if node.func.id == "sorted":
                return  # an explicit canonicalization, exactly the fix
            yield self.finding(
                source, "par-unordered-merge", node.lineno, node.col_offset,
                f"{node.func.id}() over as_completed() materializes completion"
                " order; collect keyed by submission index instead",
            )

    def _check_comprehension(
        self,
        source: SourceFile,
        node: ast.ListComp | ast.GeneratorExp | ast.DictComp,
    ) -> Iterator[Finding]:
        """List/generator comprehensions over ``as_completed(...)``.

        Dict comprehensions are exempt: a dict keyed by submission
        index is the sanctioned pattern.
        """
        if not self.enabled("par-unordered-merge"):
            return
        if isinstance(node, ast.DictComp):
            return
        for generator in node.generators:
            if _completion_ordered(generator.iter):
                yield self.finding(
                    source, "par-unordered-merge",
                    generator.iter.lineno, generator.iter.col_offset,
                    "comprehension over as_completed() preserves completion"
                    " order; collect into a dict keyed by submission index",
                )

    def _check_shard_hash(
        self, source: SourceFile, node: ast.BinOp
    ) -> Iterator[Finding]:
        """``hash(x) % n`` — process-salted shard assignment."""
        if not self.enabled("par-unstable-shard-hash"):
            return
        if not isinstance(node.op, ast.Mod):
            return
        left = node.left
        if (
            isinstance(left, ast.Call)
            and isinstance(left.func, ast.Name)
            and left.func.id == "hash"
        ):
            yield self.finding(
                source, "par-unstable-shard-hash", node.lineno, node.col_offset,
                "hash() is salted per process (PYTHONHASHSEED), so hash(key)"
                " % n assigns different shards in different processes; use"
                " repro.parallel.shard_of",
            )
