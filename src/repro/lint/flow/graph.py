"""Module facts and the whole-program graph of the flow analyzer.

The flow passes (:mod:`~repro.lint.flow.taint`,
:mod:`~repro.lint.flow.exceptions`, :mod:`~repro.lint.flow.deadcode`)
are *interprocedural*: they need to know who calls whom across module
boundaries. This module supplies that in two strictly separated stages:

1. **Extraction** — :func:`extract_facts` parses ONE file and distills
   everything the passes will ever ask about it into a
   :class:`ModuleFacts` record: the import map, every function's call
   sites (with the exception guards around them), direct nondeterminism
   sources, ``raise`` sites, class bases and attribute types, the
   ``__all__`` export list, and outbound symbol references. Facts are
   plain data, a pure function of the file's text.
2. **Linking** — :class:`ProgramGraph` joins the per-module facts into
   a name-resolved call graph: import aliases are chased through
   re-exports, ``self.attr`` receivers resolve through dataclass field
   annotations and ``self.x = ClassName(...)`` assignments, annotated
   parameters and locals resolve to their class's methods, and the
   class table answers subclass queries for exception-guard matching.

Resolution is deliberately best-effort: a call whose receiver cannot be
typed statically contributes no edge (never a false edge), so every
pass errs toward silence rather than noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from ..checkers.determinism import (
    GLOBAL_RNG_FUNCTIONS,
    ORDER_SENSITIVE,
    WALL_CLOCK_CALLS,
    _is_set_like,
)
from ..source import ALL_RULES, parse_suppressions

__all__ = [
    "ModuleFacts",
    "ProgramGraph",
    "extract_facts",
]

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"

#: Marker for a bare ``except:`` handler (catches everything).
CATCH_ALL = "*"

#: Builtin guard names that catch any exception the analyzer models.
_BROAD_GUARDS = frozenset({"Exception", "BaseException"})


@dataclass
class FunctionFacts:
    """One function or method: its call sites, raises, and taint sources.

    ``calls``/``raises`` entries carry the exception *guards* active at
    the site — the handler types of every enclosing ``try`` whose body
    contains it — so the escape pass can subtract what a caller already
    catches.
    """

    name: str
    line: int
    column: int
    is_public: bool
    calls: list[dict] = field(default_factory=list)
    raises: list[dict] = field(default_factory=list)
    sources: list[dict] = field(default_factory=list)


@dataclass
class ClassFacts:
    """One class: resolved base names and statically-typed attributes."""

    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: list[str] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the flow passes need from one file."""

    path: str
    module: str | None
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
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


def _package_of(module: str | None, path: str) -> str | None:
    """Enclosing package for relative-import resolution."""
    if module is None:
        return None
    if path.endswith("__init__.py"):
        return module
    parent, _, _ = module.rpartition(".")
    return parent or module


class _Extractor:
    """One-pass recursive AST walker producing a :class:`ModuleFacts`."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        self.package = _package_of(facts.module, facts.path)
        self.module_id = facts.module_id
        self.top_level: set[str] = set()

    # -- import resolution -----------------------------------------------------

    def _collect_imports(self, tree: ast.Module) -> None:
        """Map every locally-bound import name to its dotted target."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.facts.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.facts.imports[local] = f"{base}.{alias.name}"

    def _import_base(self, node: ast.ImportFrom) -> str | None:
        """Dotted package an ``ImportFrom`` pulls names out of."""
        if node.level == 0:
            return node.module
        if self.package is None:
            return None
        parts = self.package.split(".")
        if node.level - 1 > len(parts):
            return None
        base = parts[: len(parts) - (node.level - 1)]
        if not base:
            return None
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    # -- expression helpers ----------------------------------------------------

    def _flatten(self, node: ast.expr) -> list[str] | None:
        """``a.b.c`` -> ``["a", "b", "c"]``; None for anything fancier."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            return parts
        return None

    def _resolve_dotted(self, parts: list[str], scope: "_Scope") -> str | None:
        """Resolve a name chain to a program-level dotted symbol."""
        root, rest = parts[0], parts[1:]
        if root in scope.param_types and not rest:
            return None
        if root in self.facts.imports:
            return ".".join([self.facts.imports[root]] + rest)
        if root in self.top_level:
            return ".".join([f"{self.module_id}.{root}"] + rest)
        if not rest:
            return None
        return None

    def _callee_record(
        self, node: ast.expr, scope: "_Scope"
    ) -> dict | None:
        """Encode a call target for link-time resolution."""
        parts = self._flatten(node)
        if parts is None:
            return None
        root, rest = parts[0], parts[1:]
        if root == "self" and scope.class_name is not None and rest:
            return {"kind": "self", "owner": scope.class_name, "attrs": rest}
        if root in scope.param_types and rest:
            return {
                "kind": "typed",
                "type": scope.param_types[root],
                "attrs": rest,
            }
        if root in scope.var_types and rest:
            return {"kind": "typed", "type": scope.var_types[root], "attrs": rest}
        dotted = self._resolve_dotted(parts, scope)
        if dotted is not None:
            return {"kind": "dotted", "target": dotted}
        return None

    def _annotation_type(self, node: ast.expr | None) -> str | None:
        """Resolve an annotation expression to a dotted class name."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):  # Optional[T] / list[T): use T
            return None
        parts = self._flatten(node)
        if parts is None:
            return None
        root, rest = parts[0], parts[1:]
        if root in self.facts.imports:
            return ".".join([self.facts.imports[root]] + rest)
        if root in self.top_level:
            return ".".join([f"{self.module_id}.{root}"] + rest)
        return None

    # -- reference collection --------------------------------------------------

    def _collect_refs(self, tree: ast.Module) -> None:
        """Outbound dotted symbol references, for the dead-API pass."""
        refs: set[str] = set()
        for target in self.facts.imports.values():
            refs.add(target)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                parts = self._flatten(node)
                if parts is None or parts[0] not in self.facts.imports:
                    continue
                dotted = ".".join([self.facts.imports[parts[0]]] + parts[1:])
                refs.add(dotted)
        self.facts.refs = sorted(refs)

    def _collect_exports(self, tree: ast.Module) -> None:
        """The module-level ``__all__`` list, with per-entry line numbers."""
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "__all__" not in targets:
                continue
            if not isinstance(node.value, (ast.List, ast.Tuple)):
                continue
            exports = []
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    exports.append(
                        {"name": element.value, "line": element.lineno}
                    )
            self.facts.exports = exports

    # -- structural walk -------------------------------------------------------

    def run(self, tree: ast.Module) -> None:
        """Extract everything from one parsed module."""
        self._collect_imports(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.top_level.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.top_level.add(node.name)
        self._collect_exports(tree)
        self._collect_refs(tree)
        module_scope = _Scope(function=MODULE_BODY, class_name=None)
        self.facts.functions[MODULE_BODY] = FunctionFacts(
            name=MODULE_BODY, line=1, column=0, is_public=False
        )
        for node in tree.body:
            self._visit_statement(node, module_scope, guards=())

    def _visit_statement(
        self, node: ast.stmt, scope: "_Scope", guards: tuple
    ) -> None:
        """Dispatch one statement inside ``scope`` under ``guards``."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_function(node, scope)
            return
        if isinstance(node, ast.ClassDef):
            self._visit_class(node, scope)
            return
        if isinstance(node, ast.Try):
            handler_types = self._handler_types(node, scope)
            body_guards = guards + (handler_types,)
            for child in node.body:
                self._visit_statement(child, scope, body_guards)
            for handler in node.handlers:
                for child in handler.body:
                    self._visit_statement(child, scope, guards)
            for child in node.orelse + node.finalbody:
                self._visit_statement(child, scope, guards)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node, scope, guards)
        self._record_assignment_types(node, scope)
        for child in ast.iter_child_nodes(node):
            self._visit_expression_tree(child, scope, guards)
            if isinstance(child, ast.stmt):
                self._visit_statement(child, scope, guards)

    def _visit_expression_tree(
        self, node: ast.AST, scope: "_Scope", guards: tuple
    ) -> None:
        """Record calls and taint sources inside one expression tree."""
        if isinstance(node, ast.stmt):
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_call(sub, scope, guards)
            elif isinstance(sub, ast.For):
                pass
            elif isinstance(
                sub, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                for generator in sub.generators:
                    if _is_set_like(generator.iter):
                        self._record_source(
                            scope, "set-order", "comprehension over a set",
                            generator.iter.lineno,
                        )

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, scope: "_Scope"
    ) -> None:
        """Enter a function/method: fresh facts record, fresh local scope."""
        qualname = (
            f"{scope.class_name}.{node.name}" if scope.class_name else node.name
        )
        if scope.function not in (MODULE_BODY, None) and scope.class_name is None:
            qualname = f"{scope.function}.{node.name}"
        is_public = not node.name.startswith("_") and not (
            scope.class_name or ""
        ).startswith("_")
        param_types: dict[str, str] = {}
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            annotation = self._annotation_type(arg.annotation)
            if annotation is not None:
                param_types[arg.arg] = annotation
        inner = _Scope(
            function=qualname,
            class_name=scope.class_name,
            param_types=param_types,
        )
        self.facts.functions[qualname] = FunctionFacts(
            name=qualname,
            line=node.lineno,
            column=node.col_offset,
            is_public=is_public,
        )
        if scope.class_name and qualname.split(".")[-1] != MODULE_BODY:
            owner = self.facts.classes.get(scope.class_name)
            if owner is not None:
                owner.methods.append(node.name)
        for child in node.body:
            self._visit_statement(child, inner, guards=())

    def _visit_class(self, node: ast.ClassDef, scope: "_Scope") -> None:
        """Enter a class: record bases, typed attributes, then methods."""
        qualname = (
            f"{scope.class_name}.{node.name}" if scope.class_name else node.name
        )
        bases = []
        for base in node.bases:
            parts = self._flatten(base)
            if parts is None:
                continue
            resolved = self._resolve_dotted(parts, scope)
            bases.append(resolved if resolved is not None else ".".join(parts))
        facts = ClassFacts(name=qualname, line=node.lineno, bases=bases)
        self.facts.classes[qualname] = facts
        class_scope = _Scope(function=scope.function, class_name=qualname)
        for child in node.body:
            if isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                annotation = self._annotation_type(child.annotation)
                if annotation is not None:
                    facts.attr_types[child.target.id] = annotation
            self._visit_statement(child, class_scope, guards=())
        self._collect_self_assignments(node, facts, class_scope)

    def _collect_self_assignments(
        self, node: ast.ClassDef, facts: ClassFacts, scope: "_Scope"
    ) -> None:
        """``self.x = ClassName(...)`` / ``self.x: T`` inside any method."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.AnnAssign):
                target = sub.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    annotation = self._annotation_type(sub.annotation)
                    if annotation is not None:
                        facts.attr_types.setdefault(target.attr, annotation)
            elif isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                constructed = self._flatten(sub.value.func)
                if constructed is None:
                    continue
                resolved = self._resolve_dotted(constructed, scope)
                if resolved is None:
                    continue
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        facts.attr_types.setdefault(target.attr, resolved)

    # -- per-site records ------------------------------------------------------

    def _handler_types(self, node: ast.Try, scope: "_Scope") -> list[str]:
        """Exception types the handlers of one ``try`` can catch."""
        caught: list[str] = []
        for handler in node.handlers:
            if handler.type is None:
                caught.append(CATCH_ALL)
                continue
            types = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for expr in types:
                parts = self._flatten(expr)
                if parts is None:
                    continue
                resolved = self._resolve_dotted(parts, scope)
                caught.append(resolved if resolved else ".".join(parts))
        return caught

    def _function_facts(self, scope: "_Scope") -> FunctionFacts:
        return self.facts.functions[scope.function]

    def _record_call(
        self, node: ast.Call, scope: "_Scope", guards: tuple
    ) -> None:
        """One call site: callee record, guards, and taint sources."""
        callee = self._callee_record(node.func, scope)
        flat_guards = sorted({g for group in guards for g in group})
        if callee is not None:
            callee = dict(callee)
            callee["line"] = node.lineno
            callee["guards"] = flat_guards
            self._function_facts(scope).calls.append(callee)
        self._record_call_sources(node, scope)

    def _record_call_sources(self, node: ast.Call, scope: "_Scope") -> None:
        """Wall-clock, global-RNG, and set-order sources at a call."""
        parts = self._flatten(node.func)
        if parts is not None:
            dotted = None
            root, rest = parts[0], parts[1:]
            if root in self.facts.imports:
                dotted = ".".join([self.facts.imports[root]] + rest)
            elif len(parts) >= 2:
                dotted = ".".join(parts)
            if dotted is not None:
                pieces = dotted.split(".")
                tail = tuple(pieces[-2:]) if len(pieces) >= 2 else ()
                if tail in WALL_CLOCK_CALLS and pieces[0] in (
                    "time", "datetime", "date"
                ):
                    self._record_source(
                        scope, "wall-clock", f"{'.'.join(tail)}()", node.lineno
                    )
                if (
                    len(pieces) == 2
                    and pieces[0] == "random"
                    and pieces[1] in GLOBAL_RNG_FUNCTIONS
                ):
                    self._record_source(
                        scope, "global-rng", f"random.{pieces[1]}()", node.lineno
                    )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ORDER_SENSITIVE
            and any(_is_set_like(arg) for arg in node.args)
        ):
            self._record_source(
                scope, "set-order", f"{node.func.id}() over a set", node.lineno
            )

    def _record_source(
        self, scope: "_Scope", kind: str, detail: str, line: int
    ) -> None:
        self._function_facts(scope).sources.append(
            {"kind": kind, "detail": detail, "line": line}
        )

    def _record_raise(
        self, node: ast.Raise, scope: "_Scope", guards: tuple
    ) -> None:
        """``raise X(...)`` / ``raise X`` with the active guard set."""
        exc = node.exc
        if exc is None:
            return
        if isinstance(exc, ast.Call):
            exc = exc.func
        parts = self._flatten(exc)
        if parts is None:
            return
        resolved = self._resolve_dotted(parts, scope) or ".".join(parts)
        self._function_facts(scope).raises.append(
            {
                "type": resolved,
                "line": node.lineno,
                "guards": sorted({g for group in guards for g in group}),
            }
        )

    def _record_assignment_types(self, node: ast.stmt, scope: "_Scope") -> None:
        """Local ``x = ClassName(...)`` / ``x: T = ...`` type seeds."""
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = self._annotation_type(node.annotation)
            if annotation is not None:
                scope.var_types[node.target.id] = annotation
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            constructed = self._flatten(node.value.func)
            if constructed is None:
                return
            resolved = self._resolve_dotted(constructed, scope)
            if resolved is None:
                return
            for target in node.targets:
                if isinstance(target, ast.Name):
                    scope.var_types[target.id] = resolved


@dataclass
class _Scope:
    """Name-resolution context while walking one function body."""

    function: str
    class_name: str | None
    param_types: dict[str, str] = field(default_factory=dict)
    var_types: dict[str, str] = field(default_factory=dict)


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
    _Extractor(facts).run(tree)
    return facts


class ProgramGraph:
    """The linked whole-program view the flow passes query.

    Function ids are ``<module>.<qualname>`` (``<path>.<qualname>`` for
    scripts outside ``src/repro``); symbol resolution follows import
    aliases through re-exports with a cycle guard, so
    ``repro.crawler.save_dataset`` resolves to the function defined in
    ``repro.crawler.storage``.
    """

    def __init__(self, modules: list[ModuleFacts]) -> None:
        self.modules: dict[str, ModuleFacts] = {}
        self.functions: dict[str, tuple[str, FunctionFacts]] = {}
        self.classes: dict[str, tuple[str, ClassFacts]] = {}
        self.aliases: dict[str, str] = {}
        for facts in sorted(modules, key=lambda m: m.path):
            if facts.parse_error is not None:
                continue
            module_id = facts.module_id
            self.modules[module_id] = facts
            for local, target in facts.imports.items():
                self.aliases.setdefault(f"{module_id}.{local}", target)
            for qualname, function in facts.functions.items():
                self.functions[f"{module_id}.{qualname}"] = (module_id, function)
            for qualname, cls in facts.classes.items():
                self.classes[f"{module_id}.{qualname}"] = (module_id, cls)

    # -- symbol resolution -----------------------------------------------------

    def resolve_symbol(self, dotted: str) -> str | None:
        """Canonical function/class id for a dotted reference, or None."""
        seen: set[str] = set()
        current = dotted
        while current not in seen:
            seen.add(current)
            if current in self.functions or current in self.classes:
                return current
            if current in self.aliases:
                current = self.aliases[current]
                continue
            head, _, tail = current.rpartition(".")
            if not head:
                return None
            resolved_head = self.resolve_symbol(head) if head not in seen else None
            if resolved_head is not None and resolved_head != head:
                current = f"{resolved_head}.{tail}"
                continue
            if resolved_head is not None and resolved_head in self.classes:
                method = self.method_lookup(resolved_head, tail)
                return method
            return None
        return None

    def method_lookup(self, class_id: str, method: str) -> str | None:
        """Resolve ``Class.method`` walking the (linearized) base chain."""
        seen: set[str] = set()
        queue = [class_id]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            module_id, cls = self.classes[current]
            candidate = f"{module_id}.{cls.name}.{method}"
            if candidate in self.functions:
                return candidate
            for base in cls.bases:
                resolved = self.resolve_symbol(base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def attribute_type(self, class_id: str, attr: str) -> str | None:
        """Static type of ``self.<attr>`` on a class, following bases."""
        seen: set[str] = set()
        queue = [class_id]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            _, cls = self.classes[current]
            if attr in cls.attr_types:
                return self.resolve_symbol(cls.attr_types[attr])
            for base in cls.bases:
                resolved = self.resolve_symbol(base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def resolve_callee(self, module_id: str, call: dict) -> str | None:
        """Function id a recorded call site dispatches to, or None."""
        kind = call.get("kind")
        if kind == "dotted":
            resolved = self.resolve_symbol(call["target"])
            if resolved is None:
                return None
            if resolved in self.classes:
                # constructing a class runs its __init__ / __post_init__
                for hook in ("__post_init__", "__init__"):
                    method = self.method_lookup(resolved, hook)
                    if method is not None:
                        return method
                return None
            return resolved
        if kind in ("self", "typed"):
            if kind == "self":
                owner = self.resolve_symbol(f"{module_id}.{call['owner']}")
            else:
                owner = self.resolve_symbol(call["type"])
            attrs = call["attrs"]
            current = owner
            for attr in attrs[:-1]:
                if current is None:
                    return None
                current = self.attribute_type(current, attr)
            if current is None:
                return None
            if kind == "self" and len(attrs) == 1:
                method = self.method_lookup(current, attrs[-1])
                if method is not None:
                    return method
                typed = self.attribute_type(current, attrs[-1])
                return None if typed is None else typed
            return self.method_lookup(current, attrs[-1])
        return None

    # -- derived views ---------------------------------------------------------

    def call_sites(self) -> Iterator[tuple[str, dict, str | None]]:
        """Every recorded call site: (caller id, record, resolved callee)."""
        for function_id in sorted(self.functions):
            module_id, function = self.functions[function_id]
            for call in function.calls:
                yield function_id, call, self.resolve_callee(module_id, call)

    def call_edges(self) -> dict[str, list[tuple[str, int]]]:
        """Resolved call graph: caller id -> sorted (callee id, line)."""
        edges: dict[str, list[tuple[str, int]]] = {}
        for caller, call, callee in self.call_sites():
            if callee is None or callee == caller:
                continue
            edges.setdefault(caller, []).append((callee, call["line"]))
        for caller in edges:
            edges[caller] = sorted(set(edges[caller]))
        return edges

    def reverse_edges(self) -> dict[str, list[tuple[str, int]]]:
        """Callee id -> sorted (caller id, call line)."""
        reverse: dict[str, list[tuple[str, int]]] = {}
        for caller, targets in self.call_edges().items():
            for callee, line in targets:
                reverse.setdefault(callee, []).append((caller, line))
        for callee in reverse:
            reverse[callee] = sorted(set(reverse[callee]))
        return reverse

    # -- exception taxonomy ----------------------------------------------------

    def is_exception_subtype(self, exc: str, base: str) -> bool:
        """Whether exception id ``exc`` is ``base`` or derives from it."""
        if exc == base:
            return True
        seen: set[str] = set()
        queue = [exc]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            if current == base or current.rsplit(".", 1)[-1] == base:
                return True
            resolved = self.resolve_symbol(current)
            if resolved is None or resolved not in self.classes:
                continue
            _, cls = self.classes[resolved]
            queue.extend(cls.bases)
        return False

    def guard_catches(self, guard: str, exc: str) -> bool:
        """Whether an ``except guard:`` handler absorbs exception ``exc``."""
        if guard == CATCH_ALL:
            return True
        if guard.rsplit(".", 1)[-1] in _BROAD_GUARDS:
            return True
        resolved_guard = self.resolve_symbol(guard) or guard
        resolved_exc = self.resolve_symbol(exc) or exc
        if self.is_exception_subtype(resolved_exc, resolved_guard):
            return True
        # unresolved symbols: fall back to comparing terminal names
        return resolved_guard.rsplit(".", 1)[-1] == resolved_exc.rsplit(".", 1)[-1]

    def function_module(self, function_id: str) -> str:
        """Module id a function id belongs to."""
        return self.functions[function_id][0]
