"""The package declares every third-party module it imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(package_dir):
    modules = set()
    for path in sorted(package_dir.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def test_every_third_party_import_is_a_declared_dependency():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {
        re.match(r"[A-Za-z0-9._-]+", req).group(0).lower().replace("-", "_")
        for req in project["dependencies"]
    }
    imported = imported_top_level_modules(ROOT / "src" / project["name"])
    third_party = imported - set(sys.stdlib_module_names) - {project["name"]}
    assert "numpy" in third_party  # the scan sees the package's imports
    assert third_party <= declared, f"imported but not in [project] dependencies: {sorted(third_party - declared)}"


def unused_top_level_imports(path):
    """Names that a module's top-level imports bind and its code never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_no_module_imports_a_name_it_never_uses():
    package = ROOT / "src" / "searchbias"
    unused = {
        path.name: sorted(names)
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_top_level_imports(path))
    }
    assert unused == {}


def test_init_exports_exactly_the_names_it_imports_in_sorted_order():
    import searchbias

    path = Path(searchbias.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert searchbias.__all__ == sorted(searchbias.__all__)
    assert sorted(imported) == searchbias.__all__
