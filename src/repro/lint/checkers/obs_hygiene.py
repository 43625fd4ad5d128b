"""Obs-hygiene checker: structured output only, no swallowed failures.

Three rules:

* ``obs-no-print`` — ``print()`` in library code. Results go to stdout
  through the CLI layer; progress goes to stderr through
  :mod:`repro.obs.log`, so piped CLI output stays machine-readable.
  Exempt: any file named ``cli.py`` (owns the user-facing report) and
  the :mod:`repro.obs` package itself. Files outside ``src/repro``
  (``tools/``, ``benchmarks/``) are scripts and may print.
* ``obs-swallowed-exception`` — a bare ``except:`` anywhere, or an
  ``except Exception:`` / ``except BaseException:`` handler whose body
  is only ``pass``/``...`` or only ``return <constant>``. Either would
  silently eat crawler retry failures that the metrics layer is
  supposed to count; a constant return also turns a bug into an
  ordinary-looking answer ("no such transaction").
* ``obs-span-unclosed`` — a ``.span(...)`` call used outside a ``with``
  statement. A span opened without the context manager never records
  its end instant, so it has no duration: it is missing from the
  ``span_duration_seconds`` histogram and every SLO and ledger
  comparison read from it.
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


def _is_noop(stmt: ast.stmt) -> bool:
    """True for ``pass`` and a bare ``...``."""
    if isinstance(stmt, ast.Pass):
        return True
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis
    )


def _swallows(body: list[ast.stmt]) -> bool:
    """True when a handler body does nothing but, at most, return a constant."""
    rest = [stmt for stmt in body if not _is_noop(stmt)]
    if not rest:
        return True
    return (
        len(rest) == 1
        and isinstance(rest[0], ast.Return)
        and (rest[0].value is None or isinstance(rest[0].value, ast.Constant))
    )


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
            "bare except, or a broad handler that only passes or returns"
            " a constant, swallows failures",
        ),
        Rule(
            "obs-span-unclosed",
            ".span(...) outside a with-statement never closes, so it"
            " records no duration",
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
                    " unclosed span records no duration",
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
        """Bare ``except:`` always; broad types only when the body swallows."""
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
            and _swallows(node.body)
        ):
            yield self.finding(
                source, "obs-swallowed-exception", node.lineno, node.col_offset,
                f"except {node.type.id}: with a pass or constant-return body"
                " swallows the failure; log it or narrow the type",
            )
