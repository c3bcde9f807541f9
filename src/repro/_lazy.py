"""Package exports that import nothing until they are used (PEP 562)."""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict) -> tuple:
    """``(__getattr__, __all__)`` for ``package``, whose public names
    ``table`` lists once each as ``{submodule: (name, ...)}``.

    Importing the package imports none of its submodules.  The first
    access to a listed name imports the submodule that defines it and
    binds the name on the package, so later accesses skip this hook.
    Any other public name resolves to the submodule of that name, so
    ``repro.engine`` works whether or not something imported it first.
    The hook keeps its name-to-submodule map as ``__getattr__.owners``.
    """
    owners = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        if name in owners:
            module = importlib.import_module("." + owners[name], package)
            value = getattr(module, name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module("." + name, package)
            except ModuleNotFoundError as exc:
                if exc.name != "%s.%s" % (package, name):
                    raise
        raise AttributeError("module %r has no attribute %r"
                             % (package, name))

    __getattr__.owners = owners
    return __getattr__, list(owners)
