"""What a cloneopt process loads: the package's exports resolve lazily,
each command loads its own set of cloneopt modules (dims and rep no
omega_opt), the exact commands run without numpy, and the CLI parses
argv once, with the argparse tree of the one command it names.  What it
leaves at exit: the process entry freezes the collector's objects, so
the interpreter's final collections walk none, and run() leaves gc as
it found it."""
import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import cloneopt
from cloneopt import cli, omega_opt

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cloneopt import *", namespace)
    assert set(cloneopt.__all__) <= set(namespace)
    for name in cloneopt.__all__:
        module = __import__(f"cloneopt.{cloneopt._EXPORTS[name]}", fromlist=[name])
        assert namespace[name] is getattr(module, name), name


def test_export_table_is_all():
    assert list(cloneopt._EXPORTS) == cloneopt.__all__
    assert set(cloneopt.__all__) <= set(dir(cloneopt))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'maximize_nothing'"):
        cloneopt.maximize_nothing
    assert not hasattr(cloneopt, "maximize_nothing")


def test_submodules_import_by_name():
    from cloneopt import channels, cloner, omega_opt as oo

    assert (channels.__name__, cloner.__name__, oo.__name__) == (
        "cloneopt.channels", "cloneopt.cloner", "cloneopt.omega_opt")


def test_exports_are_not_cached(monkeypatch):
    # a patched function is what the package gives, and unpatching restores it
    original = cloneopt.maximize_brute
    assert "maximize_brute" not in vars(cloneopt)

    def patched(*args):
        return None

    monkeypatch.setattr(omega_opt, "maximize_brute", patched)
    assert cloneopt.maximize_brute is patched
    monkeypatch.undo()
    assert cloneopt.maximize_brute is original


# run in a fresh interpreter: the first line is for the package import
# alone; then cloneopt.cli is imported and each argv runs in a forked
# child, so its line holds what a process that runs only that argv loads.
# A line is [exit code, whether numpy is loaded, the loaded cloneopt
# submodules]
LOADED_SCRIPT = """
import io, json, os, sys, traceback
from contextlib import redirect_stdout
def loaded(code):
    names = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("cloneopt."))
    print(json.dumps([code, "numpy" in sys.modules, names]), flush=True)
import cloneopt
loaded(None)
from cloneopt.cli import run
for argv in sys.argv[1:]:
    if os.fork() == 0:
        try:
            with redirect_stdout(io.StringIO()):
                code = run(argv.split())
            loaded(code)
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(0)
    os.wait()
"""

EXACT_ARGVS = [
    "dims --d 2 --n 1",
    "omega max --d 4 --n 3 --m 12",
    "omega max --d 8 --n 10 --m 31",
    "omega max --d 8 --n 64 --m 64",
    "omega point --weight 3,1,0 --mu 1,1,0",
    "omega su2 --alpha 1 --beta 1/2 --gamma 1/2",
    "rep casimir --weight 2,1,0",
    "rep branch --weight 2,1,0 --n 2",
    "rep multiplicity --weight 2,1 --m 3",
    "rep multiplicity --weight 22,14,10,7,5,3,2,1 --m 64",
    "rep adjoint --d 3 --n 2",
    "cloner constants --d 3 --n 1 --m 4",
]
MATRIX_ARGVS = ["cloner marginal --d 3 --n 1 --m 4", "channel omega --d 2 --n 1 --m 2"]

# the cloneopt submodules that a process running one command loads, by
# the command's group or, for cloner, by group and subcommand
CLI_ALONE = ["cli", "errors", "rep_theory", "serialize", "tolerances"]
WITH_OMEGA = sorted(CLI_ALONE + ["omega_opt"])
MODULES = {
    "dims": CLI_ALONE,
    "rep": CLI_ALONE,
    "omega": WITH_OMEGA,
    "cloner constants": WITH_OMEGA,
    "cloner marginal": sorted(WITH_OMEGA + ["cloner", "tensor_core"]),
    "channel": sorted(WITH_OMEGA + ["channels", "cloner", "tensor_core"]),
}


def expected_modules(argv):
    words = argv.split()
    return MODULES.get(words[0]) or MODULES[" ".join(words[:2])]


def run_child(*argv):
    """A fresh interpreter on argv, on one BLAS thread, importing src/cloneopt."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=60, env=env)


@pytest.fixture(scope="module")
def loaded_rows():
    """LOADED_SCRIPT's lines for the package import, EXACT_ARGVS and MATRIX_ARGVS."""
    proc = run_child("-c", LOADED_SCRIPT, *EXACT_ARGVS, *MATRIX_ARGVS)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(rows) == 1 + len(EXACT_ARGVS) + len(MATRIX_ARGVS), proc.stderr
    return rows


def test_exact_commands_run_without_numpy(loaded_rows):
    # the matrix commands still load it; omega max answers past M = 30, to M = 64
    assert [row[:2] for row in loaded_rows] == (
        [[None, False]] + [[0, False]] * len(EXACT_ARGVS) + [[0, True]] * len(MATRIX_ARGVS))


def test_each_command_loads_its_modules(loaded_rows):
    # dims and rep load no omega_opt; omega, cloner constants and the
    # matrix commands do
    assert loaded_rows[0][2] == []
    got = dict(zip(EXACT_ARGVS + MATRIX_ARGVS, (row[2] for row in loaded_rows[1:])))
    assert got == {argv: expected_modules(argv) for argv in got}


# a value each flag accepts, for an argv that parses
VALID = {"--d": "2", "--n": "1", "--m": "2", "--weight": "2,0", "--mu": "1,0",
         "--alpha": "1", "--beta": "1/2", "--gamma": "1/2"}
INT_FLAGS = ("--d", "--n", "--m", "--seed", "--samples")


def parse_argvs(group, name, flags):
    """Argvs every row's tree must answer as the full tree does: help, a
    missing required flag, a bad int, a bad choice and an unrecognized
    argument."""
    command = [group] if name is None else [group, name]
    required = [f for f in flags if cli._FLAGS[f].get("required")]
    valid = [x for f in required for x in (f, VALID[f])]
    argvs = [command + ["--help"], command + valid[:-2], command,
             command + valid + ["--format", "yaml"], command + valid + ["--bogus", "1"]]
    argvs += [command + valid + [f, "two"] for f in flags if f in INT_FLAGS][:1]
    return argvs


def full_tree(argv):
    """Exit code, stdout and stderr of the full tree on argv, as run maps them."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.build_parser().parse_args(argv)
            code = None
        except SystemExit as exc:
            code = cli.EXIT_OK if exc.code in (0, None) else cli.EXIT_USAGE
    return code, out.getvalue(), err.getvalue()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("row", cli._COMMANDS, ids=lambda r: " ".join(filter(None, r[:2])))
def test_one_row_tree_prints_what_the_full_tree_prints(row):
    argvs = parse_argvs(*row[:2], row[3])
    assert len(argvs) >= 5
    for argv in argvs:
        expected = full_tree(argv)
        assert expected[0] is not None, argv  # every argv here stops the parser
        assert run_cli(argv) == expected, argv


@pytest.mark.parametrize("argv", [[], ["--help"], ["omega"], ["omega", "--help"],
                                  ["omega", "maximum"], ["--d", "2", "dims"]])
def test_argv_naming_no_row_gets_the_full_tree(argv):
    assert run_cli(argv) == full_tree(argv)


@pytest.fixture
def built(monkeypatch):
    """The rows, as (group, subcommand), of every tree build_parser builds."""
    trees = []
    build = cli.build_parser

    def counting(rows=cli._COMMANDS):
        trees.append([r[:2] for r in rows])
        return build(rows)

    monkeypatch.setattr(cli, "build_parser", counting)
    return trees


def test_valid_argv_builds_one_row(built):
    assert run_cli(["rep", "adjoint", "--d", "3", "--n", "2"])[0] == 0
    assert run_cli(["dims", "--d", "3", "--n", "2"])[0] == 0
    assert built == [[("rep", "adjoint")], [("dims", None)]]


def test_invalid_argv_builds_one_tree(built):
    # a refused argv is parsed once too: by its row's tree when it names
    # a row, else by the full tree
    for argv in (["rep", "adjoint", "--d", "3", "--n", "2", "--zzz"], ["dims"],
                 ["cloner", "apply", "--help"], [], ["omega", "maximum"], ["--help"]):
        assert run_cli(argv)[0] in (0, 2), argv
    full = [r[:2] for r in cli._COMMANDS]
    assert built == [[("rep", "adjoint")], [("dims", None)], [("cloner", "apply")],
                     full, full, full]


# runs cloneopt.cli as python -m does, with an atexit hook registered
# first, so that it runs last: after main() returns and before the
# interpreter's final collections.  It prints, to stderr, the frozen
# object count, the objects those collections would walk and whether the
# collector is enabled
EXIT_SCRIPT = """
import atexit, gc, json, runpy, sys
atexit.register(lambda: print(json.dumps(
    [gc.get_freeze_count(), len(gc.get_objects()), gc.isenabled()]), file=sys.stderr))
runpy.run_module("cloneopt.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv", ["dims --d 2 --n 1",
                                  "cloner marginal --d 3 --n 1 --m 6 --state [[1,0],[0,1],[0,0]]"])
def test_exit_leaves_the_collector_nothing_to_walk(argv):
    # without the freezes, 12,878 (dims) and 22,094 objects are left to walk
    proc = run_child("-c", EXIT_SCRIPT, *argv.split())
    assert proc.returncode == 0, proc.stderr
    frozen, tracked, enabled = json.loads(proc.stderr)
    assert frozen > 5000
    assert tracked < 100
    assert enabled


@pytest.mark.parametrize("argv", ["dims --d 2 --n 1", "cloner marginal --d 3 --n 1 --m 6",
                                  "--help", "dims --d 1 --n 1"])
def test_run_leaves_the_collector_as_it_found_it(argv):
    before = gc.get_freeze_count(), gc.isenabled()
    run_cli(argv.split())
    assert (gc.get_freeze_count(), gc.isenabled()) == before
