"""Determinism checker: no ambient randomness, no wall clock, no set order.

The paper's numbers (241,283 dropcaught domains, the 2,633
misdirected-transaction set, Table 1) must re-derive bit-for-bit from a
seed. Three ways a diff can creep in:

* ``det-unseeded-random`` — calls through the ``random`` module's
  *global* RNG (``random.random()``, ``random.choice()``, ...). These
  share hidden process state; any new call site reorders every draw
  after it. Use an explicit ``random.Random(seed)`` instance.
* ``det-wall-clock`` — ``time.time()``, ``datetime.now()`` and friends
  outside :mod:`repro.obs`. Simulated time comes from the chain /
  :class:`VirtualClock`; only the telemetry layer may read real time.
* ``det-set-order`` — iterating a ``set`` into ordered output
  (``for``, ``list()``, ``",".join()``) without ``sorted()``. Set
  order varies across processes (string-hash randomization), so it can
  never feed a report, a file, or an RNG.

``det-unseeded-random`` and ``det-wall-clock`` resolve the file's
import aliases first, so ``import time as t; t.time()`` and ``from
time import perf_counter as pc; pc()`` are the same violation as
``time.time()``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Rule
from ..registry import Checker, register
from ..source import SourceFile, dotted_parts, import_map

__all__ = []

#: ``random`` module functions that use the hidden global RNG.
GLOBAL_RNG_FUNCTIONS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)

#: ``(module, attribute)`` calls that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "process_time"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Builtins that consume an iterable order-insensitively — safe on sets.
ORDER_INSENSITIVE = frozenset(
    {"all", "any", "frozenset", "len", "max", "min", "set", "sorted", "sum"}
)

#: Builtins that preserve iteration order — unsafe on sets.
ORDER_SENSITIVE = frozenset({"enumerate", "list", "tuple"})


def _is_set_like(node: ast.expr) -> bool:
    """Syntactically certain to be a set: literal, comprehension, call, op."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_like(node.left) or _is_set_like(node.right)
    return False


@register
class DeterminismChecker(Checker):
    """Flag ambient randomness, wall-clock reads, and set-order leaks."""

    name = "determinism"
    rules = (
        Rule(
            "det-unseeded-random",
            "call through the global random-module RNG; use random.Random(seed)",
        ),
        Rule(
            "det-wall-clock",
            "wall-clock read outside repro.obs; use chain time / VirtualClock",
        ),
        Rule(
            "det-set-order",
            "set iterated into ordered output without sorted()",
        ),
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Walk the AST once, dispatching each node to the three rules."""
        if source.tree is None:
            return
        obs_exempt = bool(source.module and source.module.startswith("repro.obs"))
        imports = import_map(source.tree, source.package)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(source, node, imports, obs_exempt)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(source, node)
            elif isinstance(node, ast.For):
                yield from self._check_iteration(source, node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    yield from self._check_iteration(source, generator.iter)

    # -- rule bodies -----------------------------------------------------------

    def _check_call(
        self,
        source: SourceFile,
        node: ast.Call,
        imports: dict[str, str],
        obs_exempt: bool,
    ) -> Iterator[Finding]:
        """Global-RNG and wall-clock calls, plus order-sensitive consumers."""
        func = node.func
        if (
            self.enabled("det-set-order")
            and isinstance(func, ast.Attribute)
            and func.attr == "join"
            and any(_is_set_like(arg) for arg in node.args)
        ):
            yield self.finding(
                source, "det-set-order", node.lineno, node.col_offset,
                "str.join() over a set has no stable order; wrap in sorted()",
            )
        if (
            self.enabled("det-set-order")
            and isinstance(func, ast.Name)
            and func.id in ORDER_SENSITIVE
            and any(_is_set_like(arg) for arg in node.args)
        ):
            yield self.finding(
                source, "det-set-order", node.lineno, node.col_offset,
                f"{func.id}() over a set has no stable order; wrap in sorted()",
            )
        parts = dotted_parts(func)
        if parts is None:
            return
        if parts[0] in imports:
            parts = imports[parts[0]].split(".") + parts[1:]
        if len(parts) < 2:
            return
        owner, attr = parts[-2:]
        if (
            self.enabled("det-unseeded-random")
            and parts == ["random", attr]
            and attr in GLOBAL_RNG_FUNCTIONS
        ):
            yield self.finding(
                source, "det-unseeded-random", node.lineno, node.col_offset,
                f"random.{attr}() uses the shared global RNG;"
                " draw from an explicit random.Random(seed)",
            )
        if (
            self.enabled("det-wall-clock")
            and not obs_exempt
            and parts[0] in ("time", "datetime", "date")
            and (owner, attr) in WALL_CLOCK_CALLS
        ):
            yield self.finding(
                source, "det-wall-clock", node.lineno, node.col_offset,
                f"{owner}.{attr}() reads the wall clock outside repro.obs;"
                " simulated time must come from the chain or VirtualClock",
            )

    def _check_import_from(
        self, source: SourceFile, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        """``from random import choice`` hides the global RNG — flag it."""
        if not self.enabled("det-unseeded-random"):
            return
        if node.module == "random" and node.level == 0:
            for alias in node.names:
                if alias.name in GLOBAL_RNG_FUNCTIONS:
                    yield self.finding(
                        source, "det-unseeded-random", node.lineno, node.col_offset,
                        f"importing random.{alias.name} binds the shared global"
                        " RNG; use a random.Random(seed) instance",
                    )

    def _check_iteration(
        self, source: SourceFile, iter_node: ast.expr
    ) -> Iterator[Finding]:
        """``for x in {...}`` / comprehension over a bare set expression."""
        if not self.enabled("det-set-order"):
            return
        if _is_set_like(iter_node):
            yield self.finding(
                source, "det-set-order", iter_node.lineno, iter_node.col_offset,
                "iteration over a set has no stable order; wrap in sorted()",
            )
