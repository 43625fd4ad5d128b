"""Module facts and the import index of the whole-program analyzer.

Two strictly separated stages:

1. **Extraction** — :func:`extract_facts` parses ONE file into a
   :class:`ModuleFacts` record: the import map, the ``__all__`` export
   list, outbound symbol references (imports and module-attribute
   chains), and the suppression comments. Facts are plain data, a pure
   function of the file's text.
2. **Linking** — :class:`ProgramGraph` joins the per-module facts into
   the whole-program view :mod:`~repro.lint.flow.deadcode` queries: the
   modules by dotted id, plus every import binding as an alias
   ``<module>.<local> -> <target>``, so a reference made through a
   re-export can be chased back to the defining module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..source import (
    ALL_RULES,
    dotted_parts,
    import_map,
    package_of,
    parse_suppressions,
)

__all__ = [
    "ModuleFacts",
    "ProgramGraph",
    "extract_facts",
]


@dataclass
class ModuleFacts:
    """Everything the dead-API pass needs from one file."""

    path: str
    module: str | None
    imports: dict[str, str] = field(default_factory=dict)
    exports: list[dict] | None = None
    refs: list[str] = field(default_factory=list)
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    silenced: set[int] = field(default_factory=set)
    parse_error: dict | None = None

    @property
    def module_id(self) -> str:
        """Dotted module name, or the display path for scripts."""
        return self.module if self.module is not None else self.path

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Whether a ``# lint: ignore`` comment silences ``rule`` here.

        A line that answers yes is recorded in :attr:`silenced`, so the
        engine can report the suppressions that silenced nothing.
        """
        rules = self.suppressions.get(line)
        if not rules or not (ALL_RULES in rules or rule in rules):
            return False
        self.silenced.add(line)
        return True


def _exports(tree: ast.Module) -> list[dict] | None:
    """The module-level ``__all__`` list, with per-entry line numbers."""
    exports = None
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        if not isinstance(node.value, (ast.List, ast.Tuple)):
            continue
        exports = [
            {"name": element.value, "line": element.lineno}
            for element in node.value.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        ]
    return exports


def _lazy_imports(tree: ast.Module, package: str | None) -> dict[str, str]:
    """The bindings a package's lazy export map makes, as import targets.

    ``__getattr__, __dir__ = lazy_exports(__name__, {"survival":
    ("kaplan_meier",)})`` (:mod:`repro._lazy`) binds ``kaplan_meier``
    as ``from .survival import kaplan_meier`` would, only on first
    use, and ``survival`` as the submodule itself. Only a literal map
    at module level is read.
    """
    imports: dict[str, str] = {}
    if package is None:
        return imports
    for node in tree.body:
        call = node.value if isinstance(node, ast.Assign) else None
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "lazy_exports"
            and len(call.args) == 2
            and isinstance(call.args[1], ast.Dict)
        ):
            continue
        for key, names in zip(call.args[1].keys, call.args[1].values):
            if not (isinstance(key, ast.Constant) and isinstance(names, ast.Tuple)):
                continue
            module = f"{package}.{key.value}"
            imports[key.value] = module
            for name in names.elts:
                if isinstance(name, ast.Constant):
                    imports[name.value] = f"{module}.{name.value}"
    return imports


def _refs(tree: ast.Module, imports: dict[str, str]) -> list[str]:
    """Outbound dotted symbol references: import targets and their attributes."""
    refs = set(imports.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = dotted_parts(node)
            if parts is not None and parts[0] in imports:
                refs.add(".".join([imports[parts[0]], *parts[1:]]))
    return sorted(refs)


def extract_facts(path: str, module: str | None, text: str) -> ModuleFacts:
    """Distill one file into its :class:`ModuleFacts` (pure function)."""
    facts = ModuleFacts(path=path, module=module)
    facts.suppressions = parse_suppressions(text)
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        facts.parse_error = {
            "line": exc.lineno or 1,
            "column": max((exc.offset or 1) - 1, 0),
            "message": exc.msg or "invalid syntax",
        }
        return facts
    package = package_of(module, path)
    facts.imports = import_map(tree, package) | _lazy_imports(tree, package)
    facts.exports = _exports(tree)
    facts.refs = _refs(tree, facts.imports)
    return facts


class ProgramGraph:
    """The linked whole-program view: modules by id plus import aliases.

    Module ids are dotted names (the display path for scripts outside
    ``src/repro``). ``aliases`` maps ``<module>.<local>`` to the dotted
    target its import names, so ``repro.crawler.save_dataset`` chases to
    ``repro.crawler.storage.save_dataset``. Modules that failed to parse
    are left out.
    """

    def __init__(self, modules: list[ModuleFacts]) -> None:
        self.modules: dict[str, ModuleFacts] = {}
        self.aliases: dict[str, str] = {}
        for facts in sorted(modules, key=lambda m: m.path):
            if facts.parse_error is not None:
                continue
            module_id = facts.module_id
            self.modules[module_id] = facts
            for local, target in facts.imports.items():
                self.aliases.setdefault(f"{module_id}.{local}", target)
