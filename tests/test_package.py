"""The package namespace: each submodule stays reachable under its own name."""
import importlib
import pkgutil
import sys

import softlog


def test_no_package_attribute_shadows_a_submodule():
    """``softlog.<name>`` is the submodule ``<name>`` for every submodule, so
    ``import softlog.refine as R`` gives the module, never a function that
    the package re-exports under the same name."""
    names = [info.name for info in pkgutil.iter_modules(softlog.__path__)]
    assert {"infer", "logic", "refine"} <= set(names)
    for name in names:
        importlib.import_module(f"softlog.{name}")
        assert getattr(softlog, name) is sys.modules[f"softlog.{name}"], name
