import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(package_dir):
    """Top-level names of every absolute import in the package's modules,
    function-level imports included."""
    names = set()
    for path in package_dir.rglob("*.py"):
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
    assert {"numpy", "scipy", "orjson"} <= third_party
    assert third_party <= declared, f"imported but not declared: {sorted(third_party - declared)}"
