"""Dead-code checks on the package source: no unread import, no
unreferenced private module-level function or class, no public one that
only the tests read, no unreferenced method, no exported name that only
its own module reads, no constant of
cloneopt.tolerances that no other module reads, no unbounded cache, no
DimensionGuardError raised outside errors.check_limit, and no exception
class defined outside errors.py."""
import ast
import builtins
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


def assignments(tree):
    """Module-level name -> the expression assigned to it."""
    return {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def exported(tree):
    """A module's literal __all__; for __init__, whose __all__ is built
    from its lazy _EXPORTS table (name -> module), that table's keys."""
    values = assignments(tree)
    table = values.get("_EXPORTS", values.get("__all__"))
    return set() if table is None else set(ast.literal_eval(table))


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
    # cli.py, a demo, perfbench or another module; __init__ only re-exports,
    # each name from the module its lazy _EXPORTS table names
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    table = ast.literal_eval(assignments(init)["_EXPORTS"])
    exports = {(name, PACKAGE / f"{table[name]}.py") for name in exported(init)}
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


def test_every_public_definition_is_read_outside_the_tests():
    # a public module-level function or class must be read by the package
    # (outside its own body), a demo or perfbench; what only the tests
    # read belongs in the tests.  __init__ only names the exports of its
    # lazy table, so it reads none of them
    statements = [node for path in SOURCES if path.name != "__init__.py"
                  for node in ast.parse(path.read_text()).body]
    readers = DEMOS + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*(references(ast.parse(path.read_text())) for path in readers))
    unread = [
        node.name
        for node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in read
        and not any(node.name in references(other) for other in statements if other is not node)
    ]
    assert not unread, f"public definitions only the tests read: {unread}"


def test_every_tolerance_is_read_by_another_module():
    # a limit that nothing enforces is dead code; __init__ only names the
    # constants it re-exports, so it reads none of them
    constants = set(assignments(ast.parse((PACKAGE / "tolerances.py").read_text())))
    read = set()
    for path in SOURCES:
        if path.name in ("tolerances.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text())
        read |= names_read(tree) | {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    assert constants, "tolerances defines no constant"
    assert constants <= read, f"tolerances constants no other module reads: {sorted(constants - read)}"


def unbounded_caches(tree):
    """Lines that use functools.cache or call lru_cache with maxsize None."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(node.lineno)
        elif isinstance(node, ast.Call) and "lru_cache" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                found.append(node.lineno)
    return found


def test_no_unbounded_cache():
    # a cache without a bound grows for the life of the process; the
    # package keeps none (the tests' oracles may)
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in unbounded_caches(ast.parse(path.read_text()))
    ]
    assert not found, f"unbounded caches: {found}"
    samples = [
        "@functools.lru_cache(maxsize=None)\ndef f(): pass",
        "@lru_cache(None)\ndef f(): pass",
        "@functools.cache\ndef f(): pass",
        "from functools import cache",
    ]
    assert all(unbounded_caches(ast.parse(s)) for s in samples)
    assert not unbounded_caches(ast.parse("@lru_cache(maxsize=64)\ndef f(): pass"))


def guard_raises(tree):
    """Lines that raise DimensionGuardError themselves, called or bare."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "DimensionGuardError":
                found.append(node.lineno)
    return found


def test_only_check_limit_raises_a_guard():
    # every size refusal goes through errors.check_limit, so each one has
    # the message shape "<what> = <size> exceeds guard <limit>"
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "errors.py"
        for line in guard_raises(ast.parse(path.read_text()))
    ]
    assert not found, f"DimensionGuardError raised outside check_limit: {found}"
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    check = next(node for node in errors.body
                 if isinstance(node, ast.FunctionDef) and node.name == "check_limit")
    assert len(guard_raises(errors)) == len(guard_raises(check)) == 1
    samples = [
        'raise DimensionGuardError(f"side {side} above {limit}")',
        "raise errors.DimensionGuardError('too large') from exc",
        "raise DimensionGuardError",
    ]
    assert all(guard_raises(ast.parse(s)) for s in samples)
    assert not guard_raises(ast.parse("check_limit('side', side, limit)\nraise ValueError('x')"))


def exception_classes(tree):
    """Classes defined on a base that is an exception: a builtin one, or a
    name ending in Error or Exception."""
    def is_exception(base):
        name = getattr(base, "id", getattr(base, "attr", ""))
        builtin = getattr(builtins, name, None)
        return name.endswith(("Error", "Exception")) or (
            isinstance(builtin, type) and issubclass(builtin, BaseException))

    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(is_exception, node.bases))]


def test_only_errors_defines_exceptions():
    # one refusal type per meaning: the CLI turns a ValueError into exit 2
    # and the errors classes into exits 1 and 3, so no module keeps its own
    found = [
        f"{path.name}::{name}"
        for path in SOURCES
        if path.name != "errors.py"
        for name in exception_classes(ast.parse(path.read_text()))
    ]
    assert not found, f"exception classes outside errors.py: {found}"
    samples = [
        "class UsageError(Exception):\n    pass",
        "class Stop(StopIteration): pass",
        "class Bad(errors.CloneOptError): pass",
        "class Refused(ValueError): pass",
    ]
    assert all(exception_classes(ast.parse(s)) for s in samples)
    assert not exception_classes(ast.parse("class Spec(tuple): pass\nclass Channel: pass"))
    assert exception_classes(ast.parse((PACKAGE / "errors.py").read_text()))
