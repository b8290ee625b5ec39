"""The package namespaces resolve their names on first use (PEP 562).

Each name must resolve to what the package exported when it imported
its submodules eagerly; which modules a fresh process loads is
``tools/import_census.py``'s gate.
"""

import importlib
import sys

import pytest

LAZY = (
    "repro",
    "repro.blast",
    "repro.parallel",
    "repro.hier",
    "repro.service",
    "repro.obs",
    "repro.experiments",
)


@pytest.mark.parametrize("package", LAZY)
def test_every_exported_name_resolves_and_is_listed(package):
    mod = importlib.import_module(package)
    listed = dir(mod)
    for name in mod.__all__:
        getattr(mod, name)  # raises if the table names the wrong module
        assert name in listed, name


@pytest.mark.parametrize("package", LAZY)
def test_star_import_binds_every_exported_name(package):
    ns: dict = {}
    exec(f"from {package} import *", ns)
    mod = sys.modules[package]
    for name in mod.__all__:
        assert ns[name] is getattr(mod, name), name


@pytest.mark.parametrize("package", LAZY)
def test_unknown_name_raises_attribute_error(package):
    mod = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        mod.no_such_name
    assert not hasattr(mod, "no_such_name")


def test_names_resolve_to_their_defining_modules():
    from repro.blast.engine import BlastSearch
    from repro.hier.elastic import ElasticConfig as FromElastic
    from repro.parallel.pioblast import run_pioblast

    import repro
    import repro.hier
    import repro.parallel

    assert repro.BlastSearch is BlastSearch
    assert repro.parallel.run_pioblast is run_pioblast
    assert repro.hier.ElasticConfig is FromElastic


def test_submodules_stay_reachable_through_their_package():
    import repro.blast

    karlin = importlib.import_module("repro.blast.karlin")
    assert repro.blast.karlin is karlin
    from repro.parallel import warmdb

    assert warmdb is sys.modules["repro.parallel.warmdb"]


@pytest.mark.parametrize(
    "package, name",
    [
        ("repro.blast", "translate"),
        ("repro.blast", "formatdb"),
        ("repro.obs", "critical_path"),
    ],
)
def test_export_wins_over_the_same_named_submodule(package, name):
    """The first import of ``repro.blast.translate`` binds the module
    on its package; the package name still means the function."""
    submodule = importlib.import_module(f"{package}.{name}")
    pkg = sys.modules[package]
    setattr(pkg, name, submodule)  # as the import system does
    value = getattr(pkg, name)
    assert callable(value) and value is getattr(submodule, name)
