"""lint-stale-ignore: suppression comments that silence nothing."""

from __future__ import annotations


class TestStaleIgnore:
    def test_stale_named_ignore_is_flagged(self, lint_text) -> None:
        result = lint_text(
            """
            x = 1  # lint: ignore[det-set-order] nothing here iterates a set
            """
        )
        [finding] = result.findings
        assert finding.rule == "lint-stale-ignore"
        assert finding.line == 2
        assert "det-set-order" in finding.message

    def test_stale_blanket_ignore_is_flagged(self, rule_ids) -> None:
        assert rule_ids("x = 1  # lint: ignore\n") == ["lint-stale-ignore"]

    def test_working_suppression_is_not_stale(self, lint_text) -> None:
        result = lint_text(
            """
            import random

            x = random.random()  # lint: ignore[det-unseeded-random] fixture
            """
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_narrowed_run_cannot_judge_staleness(self, lint_text) -> None:
        result = lint_text(
            "x = 1  # lint: ignore[det-set-order]\n",
            rules=["mutable-default"],
        )
        assert result.findings == []

    def test_parse_error_files_are_skipped(self, lint_text) -> None:
        result = lint_text(
            """
            def broken(:  # lint: ignore[det-set-order]
                pass
            """
        )
        assert [f.rule for f in result.findings] == ["parse-error"]

    def test_flow_rule_suppressions_are_not_judged(self, lint_text) -> None:
        # per-file runs cannot prove a flow suppression dead — the flow
        # engine owns that judgement
        result = lint_text(
            "x = 1  # lint: ignore[flow-dead-api] judged by --flow\n"
        )
        assert result.findings == []

    def test_staleness_report_is_not_self_suppressible(self, rule_ids) -> None:
        assert rule_ids(
            "x = 1  # lint: ignore[lint-stale-ignore]\n"
        ) == ["lint-stale-ignore"]

    def test_mixed_real_and_stale_lines(self, lint_text) -> None:
        result = lint_text(
            """
            import random

            a = random.random()  # lint: ignore[det-unseeded-random] fixture
            b = 2  # lint: ignore[det-unseeded-random] stale
            """
        )
        [finding] = result.findings
        assert finding.rule == "lint-stale-ignore"
        assert finding.line == 5


class TestStaleFlowIgnore:
    """The --flow run judges the suppressions naming only flow-* rules."""

    API = """
        __all__ = [
            "used",  # lint: ignore[flow-dead-api] plugin contract
        ]

        def used():
            return 1
        """

    def test_suppression_of_a_live_export_is_stale(self, flow_run) -> None:
        result = flow_run(
            {
                "repro.core.api": self.API,
                "repro.core.user": "from repro.core.api import used\n",
            }
        )
        [finding] = result.findings
        assert finding.rule == "lint-stale-ignore"
        assert (finding.path, finding.line) == ("src/repro/core/api.py", 3)
        assert "flow-dead-api" in finding.message
        assert result.exit_code == 1

    def test_stale_taint_and_escape_suppressions(self, flow_rule_ids) -> None:
        # both rules are gone from the flow engine, so a leftover
        # suppression naming either one silences nothing
        assert flow_rule_ids(
            {
                "repro.core.report": """
                def build_report(rows):  # lint: ignore[flow-det-taint] stale
                    return sorted(rows)  # lint: ignore[flow-exc-escape] stale
                """
            }
        ) == ["lint-stale-ignore", "lint-stale-ignore"]

    def test_suppressions_naming_other_rules_are_left_alone(
        self, flow_rule_ids
    ) -> None:
        # per-file rules and blanket ignores are the per-file run's to judge
        assert flow_rule_ids(
            {
                "repro.core.misc": """
                a = 1  # lint: ignore[det-set-order] judged per-file
                b = 2  # lint: ignore
                c = 3  # lint: ignore[flow-dead-api, det-set-order] mixed
                """
            }
        ) == []
