"""Static analysis enforcing the reproduction's structural invariants.

The paper's numbers only reproduce while three properties hold
machine-checkably: runs are bit-for-bit deterministic, the substrate
layers only depend downward (``repro.chain`` must never reach up into
the crawler that crawls it), and failures are counted rather than
swallowed. This package is a small pluggable AST/tokenize framework —
checker registry, per-file :class:`Finding` records, line-level
``# lint: ignore[rule-id] reason`` suppressions, a deterministic text
reporter — plus five built-in checkers:

* ``determinism`` — global-RNG calls, wall-clock reads, set-order leaks,
* ``layering`` — the package import DAG, upward imports and cycles,
* ``obs-hygiene`` — ``print()`` in library code, swallowed exceptions,
* ``mutable-defaults`` — shared mutable default arguments,
* ``public-api`` — docstring/annotation coverage of the public surface.

Run it as ``python -m repro.lint`` (``--flow`` for the whole-program
passes of :mod:`repro.lint.flow`), or in-process::

    from repro.lint import lint_paths
    result = lint_paths(["src"])
    assert result.exit_code == 0, [f.render() for f in result.findings]

See ``docs/LINTING.md`` for the rule catalogue and the
checker-authoring recipe.
"""

from .findings import Finding, Rule, Severity
from .registry import Checker, all_checkers, all_rules, register
from .reporters import render_text
from .runner import LintResult, lint_paths
from .source import SourceFile

__all__ = [
    "Checker",
    "Finding",
    "LintResult",
    "Rule",
    "Severity",
    "SourceFile",
    "all_checkers",
    "all_rules",
    "lint_paths",
    "register",
    "render_text",
]
