"""Public-API coverage checker: docstrings and type annotations.

Applies to library modules (``src/repro/**``) only. A *public*
function is a module-level ``def`` or a method of a public class whose
name has no leading underscore; dunders are exempt (their contracts
are the language's). Two rules:

* ``api-docstring`` — every public function carries a docstring; the
  analyses mirror specific paper sections and figures, and the
  docstring is where that mapping lives.
* ``api-annotation`` — every public function annotates each parameter
  (``self``/``cls`` excepted) and its return type. The layer
  boundaries are duck-typed substitutes for real services; the
  annotations are the machine-readable half of that interface.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from ..findings import Finding, Rule
from ..registry import Checker, register
from ..source import SourceFile

__all__ = []

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_SKIP_FIRST_ARG = frozenset({"self", "cls"})


def _has_docstring(node: _FunctionNode) -> bool:
    """True when the function body starts with a string literal."""
    return ast.get_docstring(node, clean=False) is not None


def _is_overload(node: _FunctionNode) -> bool:
    """``@overload`` stubs carry their docs on the implementation."""
    for decorator in node.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else None
        if isinstance(decorator, ast.Name):
            name = decorator.id
        if name == "overload":
            return True
    return False


def _unannotated_params(node: _FunctionNode, *, method: bool) -> list[str]:
    """Names of parameters missing annotations (``self``/``cls`` skipped)."""
    args = node.args
    ordered: list[ast.arg] = list(args.posonlyargs) + list(args.args)
    missing: list[str] = []
    for index, arg in enumerate(ordered):
        if method and index == 0 and arg.arg in _SKIP_FIRST_ARG:
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    for arg in args.kwonlyargs:
        if arg.annotation is None:
            missing.append(arg.arg)
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append("*" + args.vararg.arg)
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append("**" + args.kwarg.arg)
    return missing


@register
class PublicApiChecker(Checker):
    """Require docstrings + full annotations on the library's public surface."""

    name = "public-api"
    rules = (
        Rule("api-docstring", "public function lacks a docstring"),
        Rule("api-annotation", "public function lacks type annotations"),
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Visit module-level functions and methods of public classes."""
        if source.tree is None or source.module is None:
            return
        if not source.module.startswith("repro"):
            return
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(source, node, owner=None)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield from self._check_function(
                            source, member, owner=node.name
                        )

    def _check_function(
        self, source: SourceFile, node: _FunctionNode, owner: str | None
    ) -> Iterator[Finding]:
        """Apply both rules to one public function or method."""
        if node.name.startswith("_") or _is_overload(node):
            return
        label = f"{owner}.{node.name}" if owner else node.name
        if self.enabled("api-docstring") and not _has_docstring(node):
            yield self.finding(
                source, "api-docstring", node.lineno, node.col_offset,
                f"public function {label}() has no docstring",
            )
        if self.enabled("api-annotation"):
            missing = _unannotated_params(node, method=owner is not None)
            if node.returns is None:
                missing.append("return")
            if missing:
                yield self.finding(
                    source, "api-annotation", node.lineno, node.col_offset,
                    f"public function {label}() is missing annotations:"
                    f" {', '.join(missing)}",
                )
