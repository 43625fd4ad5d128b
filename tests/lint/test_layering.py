"""Layering checker: upward imports and package cycles."""

from __future__ import annotations

import textwrap

from repro.lint import SourceFile
from repro.lint.checkers.layering import LAYERS
from repro.lint.runner import lint_sources


def _source(module: str, text: str) -> SourceFile:
    path = "src/" + module.replace(".", "/") + ".py"
    return SourceFile.from_text(textwrap.dedent(text), path=path, module=module)


class TestUpward:
    def test_chain_importing_crawler_is_flagged(self) -> None:
        result = lint_sources(
            [_source("repro.chain.chain", "from repro.crawler import pipeline\n")],
            rules=["layering"],
        )
        assert [f.rule for f in result.findings] == ["layering-upward"]
        assert "repro.chain" in result.findings[0].message

    def test_relative_upward_import_is_flagged(self) -> None:
        result = lint_sources(
            [_source("repro.ens.registrar", "from ..simulation import scenario\n")],
            rules=["layering"],
        )
        assert [f.rule for f in result.findings] == ["layering-upward"]

    def test_downward_import_is_allowed(self) -> None:
        result = lint_sources(
            [_source("repro.core.report", "from ..chain.types import Address\n")],
            rules=["layering"],
        )
        assert result.findings == []

    def test_peer_import_within_layer_is_allowed(self) -> None:
        assert LAYERS["ens"] == LAYERS["oracle"]
        result = lint_sources(
            [_source("repro.ens.pricing", "from ..oracle.ethusd import EthUsdOracle\n")],
            rules=["layering"],
        )
        assert result.findings == []

    def test_intra_package_import_is_allowed(self) -> None:
        result = lint_sources(
            [_source("repro.chain.chain", "from .types import Address\n")],
            rules=["layering"],
        )
        assert result.findings == []


class TestCycles:
    def test_peer_cycle_is_flagged(self) -> None:
        result = lint_sources(
            [
                _source("repro.ens.registry", "from repro.oracle import ethusd\n"),
                _source("repro.oracle.ethusd", "from repro.ens import registry\n"),
            ],
            rules=["layering"],
        )
        assert "layering-cycle" in [f.rule for f in result.findings]
        [cycle] = [f for f in result.findings if f.rule == "layering-cycle"]
        assert "repro.ens" in cycle.message and "repro.oracle" in cycle.message

    def test_cycle_reported_once(self) -> None:
        result = lint_sources(
            [
                _source("repro.ens.a", "from repro.oracle import x\n"),
                _source("repro.ens.b", "from repro.oracle import y\n"),
                _source("repro.oracle.z", "from repro.ens import a\n"),
            ],
            rules=["layering-cycle"],
        )
        cycles = [f for f in result.findings if f.rule == "layering-cycle"]
        assert len(cycles) == 1

    def test_acyclic_peers_are_clean(self) -> None:
        result = lint_sources(
            [
                _source("repro.indexer.subgraph", "from repro.ens import registry\n"),
                _source("repro.ens.pricing", "from repro.oracle import ethusd\n"),
            ],
            rules=["layering"],
        )
        assert result.findings == []


class TestLayerTable:
    def test_every_repro_package_is_assigned(self) -> None:
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        packages = {
            child.name
            for child in root.iterdir()
            if child.is_dir() and (child / "__init__.py").exists()
        }
        packages.add("cli")
        assert packages <= set(LAYERS)

    def test_tower_matches_the_documented_dag(self) -> None:
        assert LAYERS["chain"] < LAYERS["ens"]
        assert LAYERS["ens"] < LAYERS["crawler"]
        assert LAYERS["crawler"] < LAYERS["core"]
        assert LAYERS["core"] < LAYERS["cli"]
        assert LAYERS["obs"] < LAYERS["chain"]
