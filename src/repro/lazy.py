"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' public names
eagerly makes every import of the package, or of any module inside it,
load all of those submodules.  :func:`lazy_exports` keeps the names
importable from the package but loads a submodule only when one of its
names is first read; the value is then cached in the package namespace,
so later reads are plain attribute lookups.

Usage, at the end of a package ``__init__``::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "config": ("EngineConfig", "FetchInput"),
        "dual": ("DualBlockEngine",),
    })

``from package import *`` binds every name in ``__all__``, ``dir()``
lists them, and an unknown name raises :class:`AttributeError`.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``exports`` maps each submodule (relative to the package) to the
    names it exports.  A name equal to its submodule's name exports the
    submodule itself.
    """
    where = {name: submodule for submodule, names in exports.items()
             for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            submodule = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__, list(where)
