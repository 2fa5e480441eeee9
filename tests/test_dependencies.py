"""The package's dependencies, imports, exports and README names agree with its code."""

import ast
import builtins
import dataclasses
import importlib
import inspect
import pkgutil
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


# Names the README shows in code spans that are not package attributes: file
# keys and CSV columns, a test fixture, and the training callback.
README_NAMES = {"image_id", "val_recall_at_10", "val_bias_at_10", "table_cache", "on_epoch"}


def test_readme_names_only_what_the_package_defines():
    """Every call (`f(...)`, `a.b(...)`) and bare snake_case name in a README
    code span is an attribute of a searchbias module or class, a dataclass
    field, a builtin, or one of README_NAMES."""
    import searchbias

    roots = {"searchbias": searchbias}
    for info in pkgutil.iter_modules(searchbias.__path__):
        roots[info.name] = importlib.import_module(f"searchbias.{info.name}")
    classes = {
        value
        for module in list(roots.values())
        for value in vars(module).values()
        if inspect.isclass(value) and value.__module__.startswith("searchbias")
    }
    names = set(dir(builtins)) | README_NAMES
    for module in roots.values():
        names.update(vars(module))
    for cls in classes:
        roots[cls.__name__] = cls
        names.update(dir(cls))
        if dataclasses.is_dataclass(cls):
            names.update(field.name for field in dataclasses.fields(cls))

    def resolves(name):
        head, *rest = name.split(".")
        if not rest:
            return head in names
        obj = roots.get(head)
        for part in rest:
            obj = getattr(obj, part, None)
        return obj is not None

    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    unresolved = []
    for span in re.findall(r"`([^`]+)`", text):
        span = " ".join(span.split())  # a span may wrap across lines
        call = re.fullmatch(r"([A-Za-z_][\w.]*)\(.*\)", span)
        name = call.group(1) if call else span if re.fullmatch(r"[a-z][a-z0-9]*(_[a-z0-9]+)+", span) else None
        if name is not None and not resolves(name):
            unresolved.append(span)
    assert unresolved == []
