"""Built-in checkers; importing this package populates the registry.

Each module registers one :class:`~repro.lint.registry.Checker` via the
``@register`` decorator. To add a checker, drop a module here and list
it in the import below (see ``docs/LINTING.md`` for the recipe).
"""

from . import (  # noqa: F401  (imports register the checkers)
    determinism,
    layering,
    mutable_defaults,
    obs_hygiene,
    perf,
    public_api,
    retry_discipline,
)

__all__ = ["layering"]
