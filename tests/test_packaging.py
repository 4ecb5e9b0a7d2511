import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(source):
    """Top-level names of every absolute import in a module, or in every
    module of a package directory, function-level imports included."""
    names = set()
    for path in [source] if source.is_file() else source.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_every_third_party_import_is_a_declared_dependency():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    # each dependency's distribution name is also the name it is imported by
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in project["dependencies"]}
    imported = imported_top_level_modules(ROOT / "src" / "mapsched")
    third_party = imported - set(sys.stdlib_module_names) - {"mapsched"}
    # scipy is the tests' oracle only: the package designs with numpy alone
    assert third_party == {"numpy", "orjson"}
    assert third_party <= declared, f"imported but not declared: {sorted(third_party - declared)}"


# runs `maps` with scipy blocked: an import of it raises ImportError
_NO_SCIPY_CHILD = """
import sys
sys.modules["scipy"] = None
from mapsched.cli import main
code = main(sys.argv[1:])
assert not [m for m in sys.modules if m.startswith("scipy.")], "a scipy module loaded"
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [["run", "{scenario}", "--out", "{out}"], ["certify"],
                                  ["gains"], ["compare", "{scenario}", "--out", "{out}"],
                                  ["ident", "{samples}"]],
                         ids=["run", "certify", "gains", "compare", "ident"])
def test_runtime_needs_no_scipy(tmp_path, argv):
    # the design (ZOH map, Riccati and Lyapunov solves), the run and the
    # identification are numpy, math and orjson: every subcommand, on a
    # short scenario or four samples, succeeds in a process that cannot
    # import scipy
    scenario = tmp_path / "short.cfg"
    scenario.write_text("duration = 0.2\n")
    samples = tmp_path / "samples.csv"
    samples.write_text("voltage,velocity\n-4,-41.0\n-2,-9.8\n2,9.3\n4,40.0\n")
    args = [a.format(scenario=scenario, out=tmp_path / "out", samples=samples) for a in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_console_script_and_version_are_the_package_s():
    # tier-1 runs from the source tree and never installs the package, so
    # nothing else checks what an install would make of pyproject.toml
    import tomllib

    import mapsched
    from mapsched import cli

    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    module, _, attr = project["scripts"]["maps"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
    assert project["version"] == mapsched.__version__


def test_truth_plant_imports_neither_numpy_nor_scipy():
    # the truth plant is scalar float arithmetic and `math`, so no BLAS
    # kernel rounds it and a run's truth is the same on every one
    imported = imported_top_level_modules(ROOT / "src" / "mapsched" / "plant.py")
    assert imported and not imported & {"numpy", "scipy"}, sorted(imported)


def test_only_cli_imports_json_and_csv_writers():
    # every format `maps` prints or writes lives in `cli`, the one module
    # that writes files; `ident` reads its samples with csv
    imported = {path.name: imported_top_level_modules(path)
                for path in sorted((ROOT / "src" / "mapsched").glob("*.py"))}
    assert {name for name, modules in imported.items() if modules & {"json", "orjson"}} \
        == {"cli.py"}
    assert {name for name, modules in imported.items() if "csv" in modules} \
        == {"cli.py", "ident.py"}


# imports the module does not use, kept because the benchmark's tracer
# (perfbench/tracing.py) looks the names up on that module; an entry goes
# when the tracer stops naming it
TRACED_REEXPORTS = {("harness.py", "kf_predict"), ("harness.py", "kf_update")}


def unused_imports(path):
    """(line, name) of each name an import statement of the module binds,
    at any level, that no expression of the module reads: an `ast.Name`
    reads it, on its own or as the head of an attribute chain."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_import_of_a_module_is_used():
    # no ruff or pyflakes here: an F401 check of the package's modules
    # (__init__.py imports to re-export)
    unused = [(path.name, line, name)
              for path in sorted((ROOT / "src" / "mapsched").glob("*.py"))
              if path.name != "__init__.py"
              for line, name in unused_imports(path)]
    stray = [f"{module}:{line} {name}" for module, line, name in unused
             if (module, name) not in TRACED_REEXPORTS]
    assert not stray, f"imported but never used: {stray}"


def test_all_names_resolve_and_none_is_a_module():
    # `from mapsched import *` binds the public API, not `os` or the
    # package's submodules
    import mapsched

    assert mapsched.__all__
    for name in mapsched.__all__:
        assert hasattr(mapsched, name), name
        assert not isinstance(getattr(mapsched, name), types.ModuleType), name
    namespace = {}
    exec("from mapsched import *", namespace)
    assert "os" not in namespace and "harness" not in namespace


@pytest.mark.parametrize("given, seen", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_blas_runs_one_thread_unless_the_user_sets_it(given, seen):
    # importing the package pins OpenBLAS's pool to one thread before numpy
    # loads it; a value in the environment wins
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = ("import sys, mapsched, os; assert 'numpy' in sys.modules; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == seen
