"""The package namespace: each submodule stays reachable under its own name."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import softlog


def test_no_package_attribute_shadows_a_submodule():
    """``softlog.<name>`` is the submodule ``<name>`` for every submodule, so
    ``import softlog.infer as I`` gives the module, never a function that
    the package re-exports under the same name."""
    names = [info.name for info in pkgutil.iter_modules(softlog.__path__)]
    assert {"infer", "logic", "search"} <= set(names)
    for name in names:
        importlib.import_module(f"softlog.{name}")
        assert getattr(softlog, name) is sys.modules[f"softlog.{name}"], name


def test_import_loads_only_numpy_beyond_the_standard_library():
    """numpy is the one runtime dependency: importing the package in a fresh
    interpreter loads no other third-party module, even where one (SciPy,
    say) is installed."""
    src = str(Path(softlog.__file__).parents[1])
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import softlog\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "softlog" in out and "numpy" in out
    third_party = [m for m in out if m not in sys.stdlib_module_names]
    assert sorted(third_party) == ["numpy", "softlog"]


def test_modules_import_each_other_relatively():
    """No module imports ``softlog`` by absolute name, so a second checkout
    of the package can be imported beside this one under another name (an
    in-process A/B of two versions)."""
    absolute = []
    for path in sorted(Path(softlog.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno}" for name in names
                         if name.split(".")[0] == "softlog"]
    assert absolute == []


def test_every_json_writer_refuses_nan():
    """Every ``json.dump`` and ``json.dumps`` call passes ``allow_nan=False``:
    a NaN is an error, never written as the non-JSON ``NaN``.  An undefined
    metric is None where it arises."""
    writers, loose = set(), []
    for path in sorted(Path(softlog.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
                writers.add(path.name)
                if not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                           and k.value.value is False for k in node.keywords):
                    loose.append(f"{path.name}:{node.lineno}")
    assert {"cli.py", "run.py"} <= writers
    assert loose == []
