"""Layering checker: the import DAG that keeps the substrates honest.

The reproduction substitutes local substrates for mainnet, The Graph,
Etherscan, and OpenSea. That substitution is only honest while data
flows one way — the chain must never reach *up* into the crawler that
is supposed to crawl it. The enforced tower (lower layers must not
import higher ones)::

    obs, lint                                   (foundation, imports nothing)
    chain                                       (the ledger)
    datasets, ens, indexer, oracle              (protocol + data models)
    crawler, explorer, faults,                  (services over the protocol;
    marketplace, simulation                      faults wraps its peers)
    core                                        (the paper's analyses)
    serve, wallets                              (query server /
                                                 Appendix-B study)
    cli                                         (user interface, imports all)

Two rules:

* ``layering-upward`` — a module imports a package in a *higher* layer.
* ``layering-cycle`` — the package-level import graph has a cycle
  (peer imports inside one layer are allowed precisely until they
  close a loop).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Rule
from ..registry import Checker, register
from ..source import SourceFile

__all__ = ["LAYERS"]

#: Top-level package -> layer number; imports may only point downward.
LAYERS: dict[str, int] = {
    "obs": 0,
    "lint": 0,
    "chain": 1,
    "datasets": 2,
    "ens": 2,
    "indexer": 2,
    "oracle": 2,
    "crawler": 3,
    "explorer": 3,
    "faults": 3,
    "marketplace": 3,
    "simulation": 3,
    "core": 4,
    "serve": 5,      # resident query server over core's analyses
    "wallets": 5,
    "cli": 6,
}


def _top_package(module: str) -> str | None:
    """``repro.crawler.pipeline`` -> ``crawler``; bare ``repro`` -> None."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return parts[1]


def resolve_import(
    source: SourceFile, node: ast.Import | ast.ImportFrom
) -> list[tuple[str, int]]:
    """Dotted ``repro.*`` module targets of one import, with line numbers.

    Relative imports are resolved against the file's package; ``from
    . import x`` yields one target per alias (each could be a module).
    """
    targets: list[tuple[str, int]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "repro" or alias.name.startswith("repro."):
                targets.append((alias.name, node.lineno))
        return targets
    if node.level == 0:
        if node.module == "repro":
            targets.extend(
                (f"repro.{alias.name}", node.lineno) for alias in node.names
            )
        elif node.module and node.module.startswith("repro."):
            targets.append((node.module, node.lineno))
        return targets
    # relative: climb level-1 packages up from the file's package
    package = source.package
    if package is None:
        return targets
    parts = package.split(".")
    if node.level - 1 >= len(parts):
        return targets
    base = parts[: len(parts) - (node.level - 1)]
    if node.module:
        targets.append((".".join(base + node.module.split(".")), node.lineno))
    else:
        targets.extend(
            (".".join(base + [alias.name]), node.lineno) for alias in node.names
        )
    return targets


@register
class LayeringChecker(Checker):
    """Enforce the one-way import tower over ``repro``'s packages."""

    name = "layering"
    rules = (
        Rule(
            "layering-upward",
            "module imports a package from a higher layer",
        ),
        Rule(
            "layering-cycle",
            "package-level import cycle",
        ),
    )

    def __init__(self, enabled_rules: frozenset[str] | None = None) -> None:
        """Accumulates the package import graph across files for finish()."""
        super().__init__(enabled_rules)
        # package -> imported package -> first (path, line) seen
        self._edges: dict[str, dict[str, tuple[str, int]]] = {}

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Flag upward imports and record every package edge."""
        if source.tree is None or source.module is None:
            return
        importer = _top_package(source.module)
        if importer is None or importer not in LAYERS:
            return
        importer_layer = LAYERS[importer]
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target, line in resolve_import(source, node):
                imported = _top_package(target)
                if imported is None or imported == importer:
                    continue
                if imported not in LAYERS:
                    continue
                edges = self._edges.setdefault(importer, {})
                edges.setdefault(imported, (source.path, line))
                if self.enabled("layering-upward") and (
                    LAYERS[imported] > importer_layer
                ):
                    yield self.finding(
                        source, "layering-upward", line, node.col_offset,
                        f"repro.{importer} (layer {importer_layer}) imports"
                        f" repro.{imported} (layer {LAYERS[imported]});"
                        " dependencies must point downward",
                    )

    def finish(self) -> Iterator[Finding]:
        """Detect cycles in the accumulated package graph (DFS, sorted)."""
        if not self.enabled("layering-cycle"):
            return
        seen: set[str] = set()
        reported: set[frozenset[str]] = set()
        for start in sorted(self._edges):
            if start in seen:
                continue
            stack: list[tuple[str, list[str]]] = [(start, [start])]
            while stack:
                package, trail = stack.pop()
                for imported in sorted(self._edges.get(package, {})):
                    if imported in trail:
                        cycle = trail[trail.index(imported) :] + [imported]
                        key = frozenset(cycle)
                        if key in reported:
                            continue
                        reported.add(key)
                        path, line = self._edges[package][imported]
                        yield Finding(
                            path=path,
                            line=line,
                            column=0,
                            rule="layering-cycle",
                            message="package import cycle: "
                            + " -> ".join(f"repro.{name}" for name in cycle),
                            severity=self.rule("layering-cycle").severity,
                        )
                    else:
                        stack.append((imported, trail + [imported]))
                seen.add(package)
