"""Parsed source files and ``# lint: ignore[...]`` suppressions.

Each file is parsed once (AST + token stream) and shared by every
checker, so adding a checker costs one tree walk, not one parse.

Suppression syntax, on the offending line::

    noisy = list(some_set)  # lint: ignore[det-set-order] membership only
    anything_goes()         # lint: ignore

``ignore[rule, rule2]`` silences just those rules on that line;
``ignore`` with no bracket silences every rule on that line. Text
after the closing bracket is free-form and should say *why* the
violation is intentional.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["SourceFile", "module_name_for", "parse_suppressions"]

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9_,\- ]+)\])?")

#: Sentinel meaning "every rule is suppressed on this line".
ALL_RULES = "*"


def parse_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids suppressed there (``{'*'}`` = all).

    Uses the token stream, not a regex over raw lines, so the marker
    only counts inside real comments — a ``# lint: ignore`` inside a
    string literal is data, not a directive.
    """
    suppressions: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            if match.group(1) is None:
                rules = frozenset({ALL_RULES})
            else:
                rules = frozenset(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )
            line = token.start[0]
            suppressions[line] = suppressions.get(line, frozenset()) | rules
    except tokenize.TokenError:
        pass  # unterminated source; the parse-error finding covers it
    return suppressions


def module_name_for(path: Path) -> str | None:
    """Dotted module name for files under a ``src/repro`` tree, else None.

    ``src/repro/crawler/pipeline.py`` -> ``repro.crawler.pipeline``;
    package ``__init__.py`` maps to the package itself. Scripts outside
    the library (``tools/``, ``benchmarks/``) get ``None`` — checkers
    that enforce library-only rules key off this.
    """
    parts = path.parts
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro" and anchor > 0 and parts[anchor - 1] == "src":
            dotted = list(parts[anchor:-1])
            stem = path.stem
            if stem != "__init__":
                dotted.append(stem)
            return ".".join(dotted)
    return None


def package_of(module: str | None, path: str) -> str | None:
    """A module's enclosing package (itself for ``__init__`` files)."""
    if module is None:
        return None
    if Path(path).stem == "__init__":
        return module
    parent, _, _ = module.rpartition(".")
    return parent or module


def dotted_parts(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def import_map(tree: ast.AST, package: str | None) -> dict[str, str]:
    """Every name an import binds in ``tree`` -> the dotted target it names.

    ``import time as t`` maps ``t`` to ``time``, ``from time import
    perf_counter as pc`` maps ``pc`` to ``time.perf_counter``, and
    relative imports resolve against ``package`` (skipped when it is
    None or they climb past the root). Star imports bind nothing.
    """
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(node, package)
            if base is None:
                continue
            for alias in node.names:
                if alias.name != "*":
                    imports[alias.asname or alias.name] = f"{base}.{alias.name}"
    return imports


def _import_base(node: ast.ImportFrom, package: str | None) -> str | None:
    """Dotted package an ``ImportFrom`` pulls names out of."""
    if node.level == 0:
        return node.module
    if package is None:
        return None
    parts = package.split(".")
    if node.level - 1 >= len(parts):
        return None
    base = parts[: len(parts) - (node.level - 1)]
    if node.module:
        base += node.module.split(".")
    return ".".join(base)


@dataclass
class SourceFile:
    """One file's text plus everything checkers derive from it."""

    path: str
    text: str
    module: str | None = None
    tree: ast.Module | None = field(default=None, repr=False)
    parse_error: SyntaxError | None = None
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_path(cls, path: Path, display: str | None = None) -> "SourceFile":
        """Read and parse ``path``; ``display`` overrides the report path.

        An unreadable or non-UTF-8 file never raises: it yields a
        source whose ``parse_error`` is set, which the runner reports
        as a structured ``parse-error`` finding (path + location) while
        still exiting nonzero — a corrupt file must fail the gate, not
        crash it.
        """
        name = display or str(path)
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            broken = cls(path=name, text="", module=module_name_for(path))
            broken.parse_error = SyntaxError(
                f"cannot decode as UTF-8 (byte offset {exc.start})"
            )
            return broken
        except OSError as exc:
            broken = cls(path=name, text="", module=module_name_for(path))
            broken.parse_error = SyntaxError(f"cannot read: {exc}")
            return broken
        return cls.from_text(text, path=name, module=module_name_for(path))

    @classmethod
    def from_text(
        cls, text: str, path: str = "<string>", module: str | None = None
    ) -> "SourceFile":
        """Build from an in-memory string (the unit-test entry point)."""
        source = cls(path=path, text=text, module=module)
        try:
            source.tree = ast.parse(text)
        except SyntaxError as exc:
            source.parse_error = exc
        source.suppressions = parse_suppressions(text)
        return source

    @property
    def package(self) -> str | None:
        """The module's enclosing package (itself for ``__init__`` files)."""
        return package_of(self.module, self.path)

    def is_suppressed(self, line: int, rule: str) -> bool:
        """True if ``rule`` is silenced on ``line`` by an ignore comment."""
        rules = self.suppressions.get(line)
        if not rules:
            return False
        return ALL_RULES in rules or rule in rules
