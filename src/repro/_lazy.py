"""Package exports that load their submodule on first use (PEP 562).

A package ``__init__`` names the submodules a command may never call,
each with the names it re-exports, and binds what
:func:`lazy_exports` returns as its module-level ``__getattr__`` and
``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "survival": ("KaplanMeierCurve", "kaplan_meier"),
    })

``from repro.core import kaplan_meier`` then imports
``repro.core.survival`` at that moment, and ``repro.core.survival``
works as an attribute before anything imported it. Write the map as a
literal: ``python -m repro.lint --flow`` reads it as the imports it
stands for. Each submodule keeps its own imports at its top, so the
layering checker sees them as before.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, submodules: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``'s lazy ``submodules``.

    ``submodules`` maps a submodule name to the names the package
    re-exports from it. A resolved name is bound on the package, so
    ``__getattr__`` runs once per name.
    """
    owner = {name: module for module, names in submodules.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None and name not in submodules:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = importlib.import_module(f"{package}.{module or name}")
        if module is None:
            return loaded
        value = getattr(loaded, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner) | set(submodules))

    return __getattr__, __dir__
