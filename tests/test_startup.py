"""What a cloneopt process loads: the package's exports resolve lazily,
the exact commands run without numpy, and the CLI parses argv once, with
the argparse tree of the one command it names."""
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


# run in a fresh interpreter: per argv, its exit code and whether numpy
# is loaded after it ran; the first line is for the package import alone
LOADED_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
import cloneopt
print(json.dumps([None, "numpy" in sys.modules]))
from cloneopt.cli import run
for argv in sys.argv[1:]:
    with redirect_stdout(io.StringIO()):
        code = run(argv.split())
    print(json.dumps([code, "numpy" in sys.modules]))
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
]


def test_exact_commands_run_without_numpy():
    # the matrix commands still load it: the last argv is cloner marginal
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    argvs = EXACT_ARGVS + ["cloner marginal --d 3 --n 1 --m 4"]
    proc = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, *argvs],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    # omega max answers past M = 30, to M = 64
    assert rows[:-1] == [[None, False]] + [[0, False]] * len(EXACT_ARGVS)
    assert rows[-1] == [0, True]


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
