"""The text report must be byte-identical regardless of input order."""

from __future__ import annotations

import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import SourceFile, lint_sources, render_text
from repro.lint.flow import flow_sources

from .conftest import make_facts

#: Inline fixtures with known findings across several files.
FILES = {
    "src/repro/core/alpha.py": """
        import random

        def draw():
            return random.random()
        """,
    "src/repro/core/beta.py": """
        def f(values=[]):
            return values
        """,
    "src/repro/core/gamma.py": """
        import time

        def now():
            return time.time()
        """,
    "src/repro/core/delta.py": "x = 1\n",
}

FLOW_MODULES = {
    "repro.core.report": """
        __all__ = ["build_report"]

        def build_report():
            return {}
        """,
    "repro.core.metrics": """
        __all__ = ["unused"]

        def unused():
            return 1
        """,
    "repro.core.clean": "y = 2\n",
}


def sources_in(order: list[str]) -> list[SourceFile]:
    return [
        SourceFile.from_text(
            textwrap.dedent(FILES[path]),
            path=path,
            module="repro.core." + path.rsplit("/", 1)[-1][:-3],
        )
        for path in order
    ]


permutations = st.permutations(sorted(FILES))
flow_permutations = st.permutations(sorted(FLOW_MODULES))


class TestPerFileReporters:
    @given(order=permutations)
    @settings(max_examples=20, deadline=None)
    def test_text_independent_of_input_order(self, order) -> None:
        reference = lint_sources(sources_in(sorted(FILES)))
        shuffled = lint_sources(sources_in(list(order)))
        assert render_text(shuffled) == render_text(reference)

    def test_repeated_runs_are_byte_identical(self) -> None:
        one = lint_sources(sources_in(sorted(FILES)))
        two = lint_sources(sources_in(sorted(FILES)))
        assert render_text(one) == render_text(two)


class TestFlowReporters:
    @given(order=flow_permutations)
    @settings(max_examples=20, deadline=None)
    def test_flow_output_independent_of_module_order(self, order) -> None:
        reference, _ = flow_sources(
            [make_facts(m, FLOW_MODULES[m]) for m in sorted(FLOW_MODULES)]
        )
        shuffled, _ = flow_sources(
            [make_facts(m, FLOW_MODULES[m]) for m in order]
        )
        assert render_text(shuffled) == render_text(reference)

    def test_flow_findings_are_sorted(self) -> None:
        result, _ = flow_sources(
            [make_facts(m, FLOW_MODULES[m]) for m in sorted(FLOW_MODULES)]
        )
        keys = [f.sort_key for f in result.findings]
        assert keys == sorted(keys)
        assert result.findings, "fixtures should produce findings"
