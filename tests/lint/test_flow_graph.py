"""Fact extraction and program-graph linking (repro.lint.flow.graph)."""

from __future__ import annotations

from repro.lint.flow.graph import (
    CATCH_ALL,
    MODULE_BODY,
    ProgramGraph,
)

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

    def test_call_sites_recorded_once(self) -> None:
        # a call inside nested compound statements must not double-record
        facts = make_facts(
            "repro.core.fixture",
            """
            def f():
                for i in range(3):
                    if i:
                        g(i)

            def g(i):
                return i
            """,
        )
        calls = [
            c for c in facts.functions["f"].calls if c.get("target", "").endswith("g")
        ]
        assert len(calls) == 1

    def test_raise_records_guards(self) -> None:
        facts = make_facts(
            "repro.core.fixture",
            """
            def f():
                try:
                    raise ValueError("inner")
                except ValueError:
                    pass
                raise KeyError("outer")
            """,
        )
        raises = facts.functions["f"].raises
        assert {r["type"] for r in raises} == {"ValueError", "KeyError"}
        guarded = next(r for r in raises if r["type"] == "ValueError")
        unguarded = next(r for r in raises if r["type"] == "KeyError")
        assert guarded["guards"] == ["ValueError"]
        assert unguarded["guards"] == []

    def test_bare_except_records_catch_all(self) -> None:
        facts = make_facts(
            "repro.core.fixture",
            """
            def f():
                try:
                    g()
                except:
                    pass

            def g():
                pass
            """,
        )
        call = facts.functions["f"].calls[0]
        assert call["guards"] == [CATCH_ALL]

    def test_wall_clock_source_recorded(self) -> None:
        facts = make_facts(
            "repro.core.fixture",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        sources = facts.functions["stamp"].sources
        assert sources == [
            {"kind": "wall-clock", "detail": "time.time()", "line": 5}
        ]

    def test_module_body_pseudo_function_exists(self) -> None:
        facts = make_facts("repro.core.fixture", "x = 1\n")
        assert MODULE_BODY in facts.functions

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
            graph.resolve_symbol("repro.crawler.save_dataset")
            == "repro.crawler.storage.save_dataset"
        )
        edges = graph.call_edges()
        assert ("repro.crawler.storage.save_dataset", 5) in edges[
            "repro.core.fixture.run"
        ]

    def test_self_attribute_typed_by_annotation(self) -> None:
        api = make_facts(
            "repro.explorer.api",
            """
            class EtherscanAPI:
                def txlist(self, addr):
                    return []
            """,
        )
        client = make_facts(
            "repro.crawler.client",
            """
            from repro.explorer.api import EtherscanAPI

            class Client:
                api: EtherscanAPI

                def fetch(self, addr):
                    return self.api.txlist(addr)
            """,
        )
        graph = ProgramGraph([api, client])
        edges = graph.call_edges()
        assert ("repro.explorer.api.EtherscanAPI.txlist", 8) in edges[
            "repro.crawler.client.Client.fetch"
        ]

    def test_self_attribute_typed_by_constructor_assignment(self) -> None:
        api = make_facts(
            "repro.explorer.api",
            """
            class EtherscanAPI:
                def txlist(self, addr):
                    return []
            """,
        )
        client = make_facts(
            "repro.crawler.client",
            """
            from repro.explorer.api import EtherscanAPI

            class Client:
                def __init__(self):
                    self.api = EtherscanAPI()

                def fetch(self, addr):
                    return self.api.txlist(addr)
            """,
        )
        graph = ProgramGraph([api, client])
        edges = graph.call_edges()
        assert any(
            callee == "repro.explorer.api.EtherscanAPI.txlist"
            for callee, _ in edges["repro.crawler.client.Client.fetch"]
        )

    def test_method_lookup_walks_bases(self) -> None:
        base = make_facts(
            "repro.core.base",
            """
            class Base:
                def shared(self):
                    return 1
            """,
        )
        derived = make_facts(
            "repro.core.derived",
            """
            from repro.core.base import Base

            class Derived(Base):
                pass
            """,
        )
        graph = ProgramGraph([base, derived])
        assert (
            graph.method_lookup("repro.core.derived.Derived", "shared")
            == "repro.core.base.Base.shared"
        )

    def test_exception_subtype_across_modules(self) -> None:
        errors = make_facts(
            "repro.faults.errors",
            """
            class TransientInjectedError(Exception):
                pass
            """,
        )
        api = make_facts(
            "repro.explorer.api",
            """
            from repro.faults.errors import TransientInjectedError

            class RateLimitError(TransientInjectedError):
                pass
            """,
        )
        graph = ProgramGraph([errors, api])
        assert graph.is_exception_subtype(
            "repro.explorer.api.RateLimitError",
            "repro.faults.errors.TransientInjectedError",
        )
        assert not graph.is_exception_subtype(
            "repro.faults.errors.TransientInjectedError",
            "repro.explorer.api.RateLimitError",
        )

    def test_constructor_call_resolves_to_init(self) -> None:
        widget = make_facts(
            "repro.core.widget",
            """
            class Widget:
                def __init__(self):
                    self.size = 1
            """,
        )
        user = make_facts(
            "repro.core.fixture",
            """
            from repro.core.widget import Widget

            def build():
                return Widget()
            """,
        )
        graph = ProgramGraph([widget, user])
        edges = graph.call_edges()
        assert any(
            callee == "repro.core.widget.Widget.__init__"
            for callee, _ in edges["repro.core.fixture.build"]
        )

    def test_unresolvable_call_contributes_no_edge(self) -> None:
        user = make_facts(
            "repro.core.fixture",
            """
            def run(thing):
                return thing.whatever()
            """,
        )
        graph = ProgramGraph([user])
        assert "repro.core.fixture.run" not in graph.call_edges()

    def test_parse_error_modules_are_skipped(self) -> None:
        broken = make_facts("repro.core.broken", "def broken(:\n")
        graph = ProgramGraph([broken])
        assert graph.modules == {}
