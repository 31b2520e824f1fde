"""Lazy package re-exports (PEP 562).

A package ``__init__`` that lists ``name -> submodule`` in a table and
sets ``__getattr__ = lazy_exports(__name__, table)`` keeps
``from package import name`` working while importing a submodule only
when one of its names is first asked for.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, str]) -> Callable[[str], object]:
    """Module ``__getattr__`` resolving ``name`` from
    ``package.<exports[name]>`` and caching it on the package."""

    def __getattr__(name: str):
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
