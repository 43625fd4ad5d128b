"""Framework mechanics: suppression, sorting, reporters, rule selection."""

from __future__ import annotations

import pytest

from repro.lint import (
    SourceFile,
    all_checkers,
    all_rules,
    render_text,
)
from repro.lint.runner import lint_sources
from repro.lint.source import parse_suppressions


class TestSuppressions:
    def test_bracketed_rule_list(self) -> None:
        mapping = parse_suppressions("x = 1  # lint: ignore[a-rule, b-rule]\n")
        assert mapping == {1: frozenset({"a-rule", "b-rule"})}

    def test_blanket_ignore(self) -> None:
        mapping = parse_suppressions("x = 1  # lint: ignore\n")
        assert mapping == {1: frozenset({"*"})}

    def test_marker_inside_string_is_data(self) -> None:
        mapping = parse_suppressions("x = '# lint: ignore[a]'\n")
        assert mapping == {}

    def test_suppressed_findings_are_counted(self) -> None:
        source = SourceFile.from_text(
            "def f(a=[]):  # lint: ignore[mutable-default] why: test\n    pass\n",
            path="src/repro/core/x.py",
            module="repro.core.x",
        )
        result = lint_sources([source], rules=["mutable-defaults"])
        assert result.findings == []
        assert result.suppressed == 1

    def test_blanket_ignore_suppresses_everything_on_line(self) -> None:
        source = SourceFile.from_text(
            "def f(a=[]):  # lint: ignore\n    pass\n",
            path="src/repro/core/x.py",
            module="repro.core.x",
        )
        result = lint_sources([source], rules=["mutable-defaults"])
        assert result.findings == []

    def test_other_lines_are_not_suppressed(self) -> None:
        source = SourceFile.from_text(
            "# lint: ignore[mutable-default]\ndef f(a=[]):\n    pass\n",
            path="src/repro/core/x.py",
            module="repro.core.x",
        )
        result = lint_sources([source], rules=["mutable-defaults"])
        assert len(result.findings) == 1


class TestDeterministicOutput:
    def _sources(self) -> list[SourceFile]:
        noisy = (
            "import random\n"
            "def f(a=[]):\n"
            "    print(random.random())\n"
        )
        return [
            SourceFile.from_text(noisy, path="src/repro/core/b.py", module="repro.core.b"),
            SourceFile.from_text(noisy, path="src/repro/core/a.py", module="repro.core.a"),
        ]

    def test_findings_sorted_by_path_line_column_rule(self) -> None:
        result = lint_sources(self._sources())
        keys = [f.sort_key for f in result.findings]
        assert keys == sorted(keys)
        assert result.findings[0].path == "src/repro/core/a.py"

    def test_two_runs_render_identically(self) -> None:
        first = render_text(lint_sources(self._sources()))
        second = render_text(lint_sources(self._sources()))
        assert first == second


class TestReporters:
    def test_text_lines_carry_location_and_rule(self) -> None:
        source = SourceFile.from_text(
            "def f(a=[]):\n    pass\n",
            path="src/repro/core/x.py",
            module="repro.core.x",
        )
        text = render_text(lint_sources([source], rules=["mutable-default"]))
        assert "src/repro/core/x.py:1:" in text
        assert "[mutable-default]" in text
        assert "1 error(s)" in text


class TestParseErrors:
    def test_unparsable_file_yields_parse_error_finding(self) -> None:
        source = SourceFile.from_text(
            "def broken(:\n", path="src/repro/core/x.py", module="repro.core.x"
        )
        result = lint_sources([source])
        assert [f.rule for f in result.findings] == ["parse-error"]
        assert result.exit_code == 1


class TestRuleSelection:
    def test_unknown_rule_raises(self) -> None:
        with pytest.raises(ValueError, match="unknown rule"):
            lint_sources([], rules=["not-a-rule"])

    def test_checker_name_enables_all_its_rules(self) -> None:
        source = SourceFile.from_text(
            "import random\nx = random.random()\nimport time\ny = time.time()\n",
            path="src/repro/core/x.py",
            module="repro.core.x",
        )
        result = lint_sources([source], rules=["determinism"])
        assert {f.rule for f in result.findings} == {
            "det-unseeded-random",
            "det-wall-clock",
        }

    def test_registry_exposes_five_checkers(self) -> None:
        names = set(all_checkers())
        assert {
            "determinism",
            "layering",
            "mutable-defaults",
            "obs-hygiene",
            "public-api",
        } <= names

    def test_rule_catalogue_is_sorted_and_unique(self) -> None:
        ids = [rule.id for _, rule in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
