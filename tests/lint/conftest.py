"""Shared helpers: lint inline source-string fixtures."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import LintResult, SourceFile
from repro.lint.flow import flow_sources
from repro.lint.flow.graph import extract_facts
from repro.lint.runner import lint_sources


@pytest.fixture()
def lint_text():
    """Lint one dedented source string; returns the LintResult."""

    def run(
        text: str,
        module: str | None = "repro.core.fixture",
        path: str = "src/repro/core/fixture.py",
        rules: list[str] | None = None,
    ) -> LintResult:
        source = SourceFile.from_text(
            textwrap.dedent(text), path=path, module=module
        )
        return lint_sources([source], rules=rules)

    return run


def make_facts(module: str, text: str, path: str | None = None):
    """Extract :class:`ModuleFacts` from a dedented source string.

    ``path`` defaults to the ``src/repro`` location the dotted module
    name implies, so inline fixtures resolve exactly like real files.
    """
    if path is None:
        path = "src/" + module.replace(".", "/") + ".py"
    return extract_facts(path, module, textwrap.dedent(text))


@pytest.fixture()
def flow_run():
    """Run the flow passes over ``{module: source}`` inline fixtures."""

    def run(modules: dict[str, str]):
        facts = [make_facts(mod, text) for mod, text in modules.items()]
        result, _ = flow_sources(facts)
        return result

    return run


@pytest.fixture()
def flow_rule_ids(flow_run):
    """Like ``flow_run`` but returns just the violated rule ids."""

    def run(modules: dict[str, str]) -> list[str]:
        return [f.rule for f in flow_run(modules).findings]

    return run


@pytest.fixture()
def rule_ids(lint_text):
    """Like lint_text but returns just the list of violated rule ids."""

    def run(text: str, **kwargs) -> list[str]:
        return [f.rule for f in lint_text(text, **kwargs).findings]

    return run
