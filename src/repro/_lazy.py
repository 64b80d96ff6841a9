"""Lazy package re-exports (PEP 562).

A package root that re-exports names from its submodules would otherwise
import its whole subtree on first touch: ``python -m repro.shard.worker``
would pay for the asyncio service stack, the experiments and scipy before
running a single slice.  :func:`lazy_exports` instead returns a module
``__getattr__``/``__dir__`` pair that imports a submodule only when one
of its names is first read, then caches the value in the package
namespace so later reads are plain attribute lookups.  Reading a
submodule's name (``repro.engine``) imports that submodule, as the eager
roots did.

Usage, in a package ``__init__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".core": ("EnvelopeService", "request_key"),
        ".metrics": ("ServiceMetrics",),
    })

Keep a ``TYPE_CHECKING`` import block of the same names next to it so
type checkers and IDEs still see them.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Build a package's ``__getattr__`` and ``__dir__``.

    Parameters
    ----------
    package:
        The package's ``__name__``.
    exports:
        Relative submodule name (``".core"``) → the names re-exported from
        it.  A name may appear under one submodule only.
    """
    table: Dict[str, str] = {}
    for module_name, names in exports.items():
        for name in names:
            if name in table:
                raise ValueError(f"{package}: {name!r} is exported twice")
            table[name] = module_name

    def __getattr__(name: str) -> Any:
        module_name = table.get(name)
        if module_name is not None:
            value = getattr(importlib.import_module(module_name, package), name)
            setattr(sys.modules[package], name, value)
            return value
        # ``import repro; repro.engine...`` kept working while the roots
        # imported eagerly; a submodule is still one attribute read away.
        if not name.startswith("_") and importlib.util.find_spec(f"{package}.{name}"):
            return importlib.import_module(f"{package}.{name}")
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
