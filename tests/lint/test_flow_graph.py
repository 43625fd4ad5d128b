"""Fact extraction and import-alias linking (repro.lint.flow.graph)."""

from __future__ import annotations

from repro.lint.flow.graph import ProgramGraph

from .conftest import make_facts


class TestExtraction:
    def test_imports_absolute_and_aliased(self) -> None:
        facts = make_facts(
            "repro.core.fixture",
            """
            import time
            import json as j
            from repro.obs import MetricsRegistry
            from . import helpers
            from ..chain import registry as reg
            """,
        )
        assert facts.imports["time"] == "time"
        assert facts.imports["j"] == "json"
        assert facts.imports["MetricsRegistry"] == "repro.obs.MetricsRegistry"
        assert facts.imports["helpers"] == "repro.core.helpers"
        assert facts.imports["reg"] == "repro.chain.registry"

    def test_exports_carry_line_numbers(self) -> None:
        facts = make_facts(
            "repro.core.fixture",
            """
            __all__ = [
                "first",
                "second",
            ]
            """,
        )
        assert facts.exports == [
            {"name": "first", "line": 3},
            {"name": "second", "line": 4},
        ]

    def test_no_dunder_all_means_exports_none(self) -> None:
        facts = make_facts("repro.core.fixture", "x = 1\n")
        assert facts.exports is None

    def test_syntax_error_yields_parse_error_facts(self) -> None:
        facts = make_facts("repro.core.fixture", "def broken(:\n")
        assert facts.parse_error is not None
        assert facts.parse_error["line"] == 1


class TestLinking:
    def test_alias_chase_through_reexport(self) -> None:
        storage = make_facts(
            "repro.crawler.storage",
            """
            def save_dataset(rows):
                return rows
            """,
        )
        package = make_facts(
            "repro.crawler",
            """
            from .storage import save_dataset
            __all__ = ["save_dataset"]
            """,
            path="src/repro/crawler/__init__.py",
        )
        user = make_facts(
            "repro.core.fixture",
            """
            from repro.crawler import save_dataset

            def run():
                save_dataset([])
            """,
        )
        graph = ProgramGraph([storage, package, user])
        assert (
            graph.aliases["repro.core.fixture.save_dataset"]
            == "repro.crawler.save_dataset"
        )
        assert (
            graph.aliases["repro.crawler.save_dataset"]
            == "repro.crawler.storage.save_dataset"
        )
        assert "repro.crawler.save_dataset" in user.refs

    def test_lazy_export_map_links_like_an_import(self) -> None:
        package = make_facts(
            "repro.crawler",
            """
            from .._lazy import lazy_exports
            __all__ = ["save_dataset"]
            __getattr__, __dir__ = lazy_exports(
                __name__, {"storage": ("save_dataset",)}
            )
            """,
            path="src/repro/crawler/__init__.py",
        )
        graph = ProgramGraph([package])
        assert (
            graph.aliases["repro.crawler.save_dataset"]
            == "repro.crawler.storage.save_dataset"
        )
        assert graph.aliases["repro.crawler.storage"] == "repro.crawler.storage"
        assert "repro.crawler.storage.save_dataset" in package.refs

    def test_lazy_export_map_must_be_a_literal(self) -> None:
        package = make_facts(
            "repro.crawler",
            """
            from .._lazy import lazy_exports
            MAP = {"storage": ("save_dataset",)}
            __getattr__, __dir__ = lazy_exports(__name__, MAP)
            """,
            path="src/repro/crawler/__init__.py",
        )
        assert "save_dataset" not in package.imports

    def test_parse_error_modules_are_skipped(self) -> None:
        broken = make_facts("repro.core.broken", "def broken(:\n")
        graph = ProgramGraph([broken])
        assert graph.modules == {}
