"""Package namespaces that import a submodule on first use of a name.

A package ``__init__`` lists its public names by the submodule that
defines them and hands the table to :func:`namespace` (PEP 562):
``from repro.parallel import run_pioblast`` then imports
``repro.parallel.pioblast`` and nothing else the package holds, so a
fresh process compiles only the modules its job runs.
"""

from __future__ import annotations

import importlib
import sys
import types


class _Namespace(types.ModuleType):
    """A package whose exported names win over same-named submodules.

    Importing a submodule binds it on its package.  ``translate`` in
    :mod:`repro.blast` and ``critical_path`` in :mod:`repro.obs` are
    each a submodule and a function of the same name, and the package
    name means the function — as it did when the package imported both
    eagerly.
    """

    def __setattr__(self, name: str, value) -> None:
        if (isinstance(value, types.ModuleType)
                and name in self.__dict__.get("__all__", ())):
            return
        super().__setattr__(name, value)


def namespace(package: str, exports: dict[str, tuple[str, ...]]):
    """Make ``package`` resolve its names lazily.

    ``exports`` maps a submodule (relative to ``package``) to the
    public names it defines.  Returns ``(__all__, __getattr__,
    __dir__)`` for the package to bind.
    """
    module = sys.modules[package]
    owner = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        sub = owner.get(name)
        if sub is None:
            # A submodule is an attribute of its package once imported;
            # reaching it through the package imports it.
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(module, name, value)  # later lookups skip __getattr__
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(module), *owner})

    module.__class__ = _Namespace
    return list(owner), __getattr__, __dir__
