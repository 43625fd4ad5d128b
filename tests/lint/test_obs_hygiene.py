"""Obs-hygiene checker: no print, no swallowed failures, closed spans."""

from __future__ import annotations

import pytest


class TestNoPrint:
    def test_flags_print_in_library_module(self, rule_ids) -> None:
        assert "obs-no-print" in rule_ids(
            """
            def report():
                print("hello")
            """,
            rules=["obs-hygiene"],
        )

    def test_print_in_string_or_comment_is_fine(self, rule_ids) -> None:
        assert rule_ids(
            """
            # print("not a call")
            text = 'print("still not a call")'
            """
        ) == []

    def test_cli_module_is_exempt(self, rule_ids) -> None:
        assert rule_ids(
            "print('the report')\n",
            module="repro.cli",
            path="src/repro/cli.py",
        ) == []

    def test_obs_package_is_exempt(self, rule_ids) -> None:
        assert rule_ids(
            "print('handler output')\n",
            module="repro.obs.log",
            path="src/repro/obs/log.py",
        ) == []

    def test_scripts_outside_library_may_print(self, rule_ids) -> None:
        assert rule_ids(
            "print('benchmark result')\n",
            module=None,
            path="benchmarks/bench_thing.py",
        ) == []

    def test_suppression_comment(self, rule_ids) -> None:
        assert rule_ids(
            """
            print("x")  # lint: ignore[obs-no-print] debugging aid kept on purpose
            """,
            rules=["obs-hygiene"],
        ) == []


class TestSwallowedException:
    def test_flags_bare_except(self, rule_ids) -> None:
        assert "obs-swallowed-exception" in rule_ids(
            """
            try:
                fetch()
            except:
                handle()
            """
        )

    def test_flags_pass_only_broad_handler(self, rule_ids) -> None:
        assert "obs-swallowed-exception" in rule_ids(
            """
            try:
                fetch()
            except Exception:
                pass
            """
        )

    def test_broad_handler_with_logic_is_allowed(self, rule_ids) -> None:
        assert rule_ids(
            """
            def fetch_one():
                try:
                    return fetch()
                except Exception as exc:
                    log.warning("fetch.failed", error=str(exc))
                    return None
            """,
            rules=["obs-hygiene"],
        ) == []

    @pytest.mark.parametrize("handler", ["Exception", "BaseException"])
    @pytest.mark.parametrize("body", ["return None", "return", "return False"])
    def test_flags_constant_return_broad_handler(self, rule_ids, handler, body) -> None:
        assert "obs-swallowed-exception" in rule_ids(
            f"""
            def lookup(tx_hash):
                try:
                    return chain.get_receipt(tx_hash)
                except {handler}:
                    {body}
            """,
            rules=["obs-hygiene"],
        )

    def test_narrow_constant_return_handler_is_allowed(self, rule_ids) -> None:
        assert rule_ids(
            """
            def lookup(tx_hash):
                try:
                    return chain.get_receipt(tx_hash)
                except (ValueError, UnknownAccount):
                    return None
            """,
            rules=["obs-hygiene"],
        ) == []

    def test_broad_handler_returning_a_computed_value_is_allowed(
        self, rule_ids
    ) -> None:
        assert rule_ids(
            """
            def describe(value):
                try:
                    return format(value)
                except Exception as exc:
                    return repr(exc)
            """,
            rules=["obs-hygiene"],
        ) == []

    def test_narrow_pass_handler_is_allowed(self, rule_ids) -> None:
        assert rule_ids(
            """
            try:
                fetch()
            except KeyError:
                pass
            """
        ) == []


class TestSpanUnclosed:
    def test_flags_span_call_outside_with(self, rule_ids) -> None:
        assert "obs-span-unclosed" in rule_ids(
            """
            def leak(tracer):
                span = tracer.span("crawl.3_transactions")
                do_work()
            """,
            rules=["obs-hygiene"],
        )

    def test_with_statement_is_the_blessed_form(self, rule_ids) -> None:
        assert rule_ids(
            """
            def traced(tracer):
                with tracer.span("stage", items=3):
                    do_work()
            """,
            rules=["obs-hygiene"],
        ) == []

    def test_multiple_with_items_are_all_recognized(self, rule_ids) -> None:
        assert rule_ids(
            """
            def traced(a, b):
                with a.span("outer"), b.span("inner"):
                    do_work()
            """,
            rules=["obs-hygiene"],
        ) == []

    def test_span_passed_as_argument_is_flagged(self, rule_ids) -> None:
        # handing the unopened context manager around still leaks it
        assert "obs-span-unclosed" in rule_ids(
            """
            def leak(tracer):
                schedule(tracer.span("deferred"))
            """,
            rules=["obs-hygiene"],
        )

    def test_obs_package_is_exempt(self, rule_ids) -> None:
        assert rule_ids(
            """
            def open_root(tracer):
                node = tracer.span("raw-manipulation")
            """,
            module="repro.obs.tracing",
            path="src/repro/obs/tracing.py",
            rules=["obs-hygiene"],
        ) == []

    def test_unrelated_span_free_calls_pass(self, rule_ids) -> None:
        assert rule_ids(
            """
            def fine(thing):
                thing.spawn("not-a-span")
            """,
            rules=["obs-hygiene"],
        ) == []
