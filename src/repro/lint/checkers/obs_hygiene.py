"""Obs-hygiene checker: structured output only, no swallowed failures.

Successor to ``tools/check_no_print.py`` (that script is now a shim
over this checker). Three rules:

* ``obs-no-print`` — ``print()`` in library code. Results go to stdout
  through the CLI layer; progress goes to stderr through
  :mod:`repro.obs.log`, so piped CLI output stays machine-readable.
  Exempt: any file named ``cli.py`` (owns the user-facing report) and
  the :mod:`repro.obs` package itself. Files outside ``src/repro``
  (``tools/``, ``benchmarks/``) are scripts and may print.
* ``obs-swallowed-exception`` — a bare ``except:`` anywhere, or an
  ``except Exception:`` / ``except BaseException:`` handler whose body
  is only ``pass``/``...``. Either would silently eat crawler retry
  failures that the metrics layer is supposed to count.
* ``obs-span-unclosed`` — a ``.span(...)`` call used outside a ``with``
  statement. A span opened without the context manager never records
  its end instant; when the telemetry later crosses an executor
  boundary (worker → parent merge), the open span serializes with no
  duration and poisons every aggregate built from the merged trace.
  The :mod:`repro.obs` package itself is exempt: the tracing layer and
  tests of it manipulate spans directly by design.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Rule
from ..registry import Checker, register
from ..source import SourceFile

__all__ = []

#: File names whose stdout output is the product, not stray debugging.
PRINT_EXEMPT_FILES = frozenset({"cli.py"})

#: Packages allowed to print (the logging layer writes its own output).
PRINT_EXEMPT_PACKAGES = ("repro.obs",)

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _is_noop_body(body: list[ast.stmt]) -> bool:
    """True when a handler body is only ``pass`` / ``...`` statements."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            if stmt.value.value is Ellipsis:
                continue
        return False
    return True


@register
class ObsHygieneChecker(Checker):
    """Ban ``print()`` in library code and silently-swallowed exceptions."""

    name = "obs-hygiene"
    rules = (
        Rule(
            "obs-no-print",
            "print() in library code; route output through repro.obs.log",
        ),
        Rule(
            "obs-swallowed-exception",
            "bare except or pass-only broad handler swallows failures",
        ),
        Rule(
            "obs-span-unclosed",
            ".span(...) outside a with-statement never closes; open spans"
            " cross executor merges with no duration",
        ),
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Apply every rule to one file."""
        if source.tree is None:
            return
        in_obs = source.module is not None and source.module.startswith(
            PRINT_EXEMPT_PACKAGES
        )
        check_print = (
            self.enabled("obs-no-print")
            and source.module is not None
            and not in_obs
            and source.path.rsplit("/", 1)[-1] not in PRINT_EXEMPT_FILES
        )
        check_spans = self.enabled("obs-span-unclosed") and not in_obs
        managed = self._with_context_exprs(source.tree) if check_spans else set()
        for node in ast.walk(source.tree):
            if (
                check_print
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    source, "obs-no-print", node.lineno, node.col_offset,
                    "print() in library code — use repro.obs.log",
                )
            elif isinstance(node, ast.ExceptHandler) and self.enabled(
                "obs-swallowed-exception"
            ):
                yield from self._check_handler(source, node)
            elif (
                check_spans
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in managed
            ):
                yield self.finding(
                    source, "obs-span-unclosed", node.lineno, node.col_offset,
                    ".span(...) must be a `with` context manager — an"
                    " unclosed span breaks worker telemetry merges",
                )

    @staticmethod
    def _with_context_exprs(tree: ast.AST) -> set[int]:
        """Node ids of every expression used directly as a with-item."""
        managed: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    managed.add(id(item.context_expr))
        return managed

    def _check_handler(
        self, source: SourceFile, node: ast.ExceptHandler
    ) -> Iterator[Finding]:
        """Bare ``except:`` always; broad types only when the body is a no-op."""
        if node.type is None:
            yield self.finding(
                source, "obs-swallowed-exception", node.lineno, node.col_offset,
                "bare except: catches KeyboardInterrupt and SystemExit too;"
                " name the exception type",
            )
            return
        if (
            isinstance(node.type, ast.Name)
            and node.type.id in _BROAD_EXCEPTIONS
            and _is_noop_body(node.body)
        ):
            yield self.finding(
                source, "obs-swallowed-exception", node.lineno, node.col_offset,
                f"except {node.type.id}: pass swallows the failure;"
                " log it or narrow the type",
            )
