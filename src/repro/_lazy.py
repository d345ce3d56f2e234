"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists ``{name: submodule}`` and binds the returned function as
its module-level ``__getattr__``.  ``from repro.backend import
function_to_c`` then imports :mod:`repro.backend.cgen` on first use, so
importing a light submodule such as :mod:`repro.backend.meta` no longer
loads every sibling through the package ``__init__``.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """A module ``__getattr__`` for *package* that resolves each name in
    *exports* from its submodule (relative to *package*) on first access and
    caches it on the package."""

    def __getattr__(name: str):
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
