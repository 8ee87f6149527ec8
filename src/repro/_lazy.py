"""Package roots that import nothing until one of their public names is used.

Each root declares one table -- submodule -> the public names it defines --
and installs the PEP 562 hooks built here over it, so ``import repro.core``
loads no submodule and a spawned serving worker pays only for the modules
it runs.  A new public name is added to its root's table and nowhere else:
``__all__`` is derived from the table.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, table: Dict[str, Sequence[str]]) -> Tuple[
        Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` over ``table``.

    ``table`` maps a submodule, relative to ``package`` (``".cluster"``), to
    the names it defines.  A name's first lookup imports its submodule and
    stores the object in the package's globals, so every later lookup --
    ``from package import name`` on a hot path included -- is a plain dict
    hit that never reaches ``__getattr__`` again.
    """
    owners = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__, list(owners)
