"""Dead-code checks on the package source: no unread import, no
unreferenced private module-level function or class, no unreferenced
method, and no exported name that only its own module reads."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cloneopt"
SOURCES = sorted(PACKAGE.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def names_read(tree):
    """Every bare name loaded, roots of attribute chains included."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def references(tree):
    """Every name a file reads: bare names and attributes loaded, and the
    dotted parts of string constants (perfbench names what it traces as
    strings), but not docstrings or other bare string statements, nor
    the strings of an __all__."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skipped |= {id(n) for n in ast.walk(node.value)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped):
            found |= set(node.value.split("."))
    return found


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read_or_exported(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    unused = imported - names_read(tree) - exported(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without reading them"


def test_every_private_definition_is_referenced():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    dead = [
        f"{path.name}::{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not dead, f"private definitions nothing refers to: {dead}"


def test_every_method_is_referenced():
    files = SOURCES + TESTS + DEMOS + sorted((ROOT / "perfbench").rglob("*.py"))
    referenced = set().union(*(references(ast.parse(path.read_text())) for path in files))
    dead = [
        f"{path.name}::{cls.name}.{fn.name}"
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in referenced
    ]
    assert not dead, f"methods and properties nothing refers to: {dead}"


def test_every_export_is_read_outside_its_module():
    # a name in a module's __all__, or in cloneopt.__all__, must be read by
    # cli.py, a demo, perfbench or another module; __init__ only re-exports
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    home = {
        alias.name: PACKAGE / f"{node.module}.py"
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    exports = {(name, home[name]) for name in exported(init)}
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    for path in modules:
        exports |= {(name, path) for name in exported(ast.parse(path.read_text()))}
    readers = modules + DEMOS + sorted((ROOT / "perfbench").glob("*.py"))
    reads = {path: references(ast.parse(path.read_text())) for path in readers}
    unread = sorted(
        f"{path.name}::{name}"
        for name, path in exports
        if not any(name in names for reader, names in reads.items() if reader != path)
    )
    assert not unread, f"exported names only their own module reads: {unread}"
