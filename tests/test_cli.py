"""CLI surface: subcommands, JSON schema, exit codes, reproducibility."""
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cloneopt import Channel, ClonerSpec, maximize_brute, optimal_cloner
from cloneopt.cli import run
from cloneopt.serialize import (
    channel_from_json,
    channel_to_json,
    fraction_pair,
    matrix_from_json,
    matrix_to_json,
    omega_report_to_json,
)


def capture(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = run(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_dims():
    code, out = capture(["dims", "--d", "3", "--n", "2"])
    assert code == 0
    assert json.loads(out) == {"d": 3, "n": 2, "sym_dimension": 6}


def test_cloner_constants():
    code, out = capture(["cloner", "constants", "--d", "2", "--n", "1", "--m", "2"])
    assert code == 0
    assert json.loads(out) == {
        "gamma": [2, 3],
        "delta_one": [1, 6],
        "overlap": [2, 3],
    }


def test_cloner_marginal_inline_state():
    code, out = capture(
        ["cloner", "marginal", "--d", "2", "--n", "1", "--m", "2",
         "--state", "[[1,0],[0,0]]"]
    )
    assert code == 0
    marg = matrix_from_json(json.loads(out)["marginal"])
    assert np.allclose(marg, np.diag([5 / 6, 1 / 6]), atol=1e-10)


def test_cloner_state_from_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text("[[0,0],[1,0]]")
    code, out = capture(
        ["cloner", "marginal", "--d", "2", "--n", "1", "--m", "2", "--state", str(path)]
    )
    assert code == 0
    marg = matrix_from_json(json.loads(out)["marginal"])
    assert np.allclose(marg, np.diag([1 / 6, 5 / 6]), atol=1e-10)


def test_omega_max():
    code, out = capture(["omega", "max", "--d", "3", "--n", "2", "--m", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["omega_max"] == [7, 5]
    assert doc["unique"] is True
    assert doc["maximizers"] == [{"m": [4, 0, 0], "mu": [2, 0, 0]}]


def test_omega_point_and_su2():
    code, out = capture(["omega", "point", "--weight", "2,0", "--mu", "1,0"])
    assert code == 0
    assert json.loads(out)["omega"] == [4, 3]
    code, out = capture(["omega", "su2", "--alpha", "1", "--beta", "1/2",
                         "--gamma", "1/2"])
    assert code == 0
    assert json.loads(out)["omega"] == [4, 3]


def test_rep_subcommands():
    code, out = capture(["rep", "casimir", "--weight", "2,1,0"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["c1"], doc["c2"], doc["c2_su"]) == (3, 9, [6, 1])
    code, out = capture(["rep", "branch", "--weight", "1,0", "--n", "1"])
    assert json.loads(out)["branches"] == [[2, 0], [1, 1]]
    code, out = capture(["rep", "multiplicity", "--weight", "2,1", "--m", "3"])
    assert json.loads(out)["multiplicity"] == 2
    code, out = capture(["rep", "adjoint", "--d", "3", "--n", "2"])
    assert json.loads(out)["multiplicity"] == 1


def test_channel_subcommands():
    code, out = capture(["channel", "omega", "--d", "2", "--n", "1", "--m", "2"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["omega"] - 4 / 3) < 1e-10
    assert doc["omega_max"] == [4, 3]
    code, out = capture(["channel", "defect", "--d", "2", "--n", "1", "--m", "2",
                         "--samples", "10"])
    assert code == 0
    assert json.loads(out)["estimate"] < 1e-10


@pytest.mark.parametrize("sub", ["delta-one", "defect", "twirl"])
def test_sampled_estimates_print_estimate_samples_seed(sub):
    code, out = capture(["channel", sub, "--d", "2", "--n", "1", "--m", "2",
                         "--samples", "5", "--seed", "4"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["estimate", "samples", "seed"]
    assert (doc["samples"], doc["seed"]) == (5, 4)


def test_verify_all():
    code, out = capture(["verify", "all", "--d", "2", "--n", "1", "--m", "2",
                         "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["failures"] == []


def test_byte_identical_reproducibility():
    argv = ["channel", "delta-one", "--d", "2", "--n", "1", "--m", "2",
            "--samples", "50", "--seed", "3"]
    _, first = capture(argv)
    _, second = capture(argv)
    assert first == second


# stdout at the default 2000 samples, pinned before refinement scored
# each chain's steps ahead; the accept decisions are unchanged by it
@pytest.mark.parametrize("d,n,m,seed,estimate", [
    (2, 1, 2, 0, "0.16666666666666685"),
    (3, 2, 4, 3, "0.2000000000000003"),
    (4, 1, 4, 11, "0.4500000000000006"),
    (2, 3, 7, 1, "0.11428571428571453"),
])
def test_delta_one_stdout_pinned(d, n, m, seed, estimate):
    code, out = capture(["channel", "delta-one", "--d", str(d), "--n", str(n),
                         "--m", str(m), "--seed", str(seed)])
    assert code == 0
    assert out == f'{{"estimate": {estimate}, "samples": 2000, "seed": {seed}}}\n'


def test_exit_codes():
    # usage: missing required flag
    code, _ = capture(["cloner", "constants", "--d", "2", "--n", "1"])
    assert code == 2
    # usage: out-of-range d
    code, _ = capture(["dims", "--d", "9", "--n", "1"])
    assert code == 2
    # guard: dense oracle beyond limit
    code, _ = capture(["cloner", "apply", "--d", "2", "--n", "1", "--m", "13",
                       "--guard", "4096"])
    assert code == 3
    # usage: malformed weight
    code, _ = capture(["rep", "casimir", "--weight", "1,2"])
    assert code == 2


def test_omega_max_guard_exits_3(capsys):
    code = run(["omega", "max", "--d", "8", "--n", "10", "--m", "31"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "all"],
    ["channel", "defect", "--samples", "2"],
    ["channel", "twirl", "--samples", "2"],
])
def test_guard_flag_sets_the_choi_limit(argv, capsys):
    # the Choi matrix of (2, 1, 2) has side 2 * 3 = 6
    size = ["--d", "2", "--n", "1", "--m", "2"]
    assert run(argv + size + ["--guard", "5"]) == 3
    assert "Choi matrix" in capsys.readouterr().err
    assert run(argv + size + ["--guard", "6"]) == 0


ROOT = Path(__file__).resolve().parents[1]


def run_child(*argv, env=None):
    # a separate process, so that a run past the guard is killed at 10 s
    # and every line it writes to stderr (warnings too) is seen; env adds
    # variables to the child's environment
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True, text=True, timeout=10, env=env,
    )


def answer_or_refuse(*argv):
    proc = run_child("-m", "cloneopt.cli", *argv)
    assert proc.returncode in (0, 3)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 3:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("d,n,m", [(2, 1, 64), (2, 63, 64), (8, 1, 2), (8, 1, 64),
                                   (8, 64, 64), (5, 2, 12)])
@pytest.mark.parametrize("sub", ["marginal", "apply", "overlap"])
def test_cloner_edges_answer_or_refuse(sub, d, n, m):
    answer_or_refuse("cloner", sub, "--d", d, "--n", n, "--m", m)


@pytest.mark.parametrize("sub,samples,d,n,m", [
    ("delta-one", 10, 4, 5, 9), ("delta-one", 10, 4, 4, 8),
    ("delta-one", 10, 2, 1, 64), ("delta-one", 10, 8, 1, 2),
    ("defect", 1, 3, 16, 17), ("defect", 1, 2, 1, 64),
    ("twirl", 1, 3, 16, 17), ("twirl", 1, 2, 1, 64),
    ("defect", 1, 3, 1, 33), ("twirl", 1, 2, 26, 64),
])
def test_channel_edges_answer_or_refuse(sub, samples, d, n, m):
    answer_or_refuse("channel", sub, "--d", d, "--n", n, "--m", m, "--samples", samples)


@pytest.mark.parametrize("sub,d,n,m", [
    ("defect", 3, 2, 8), ("twirl", 3, 2, 8), ("defect", 2, 26, 64),
])
def test_channel_answers_past_the_dense_guard(sub, d, n, m):
    # d^M is above the dense guard; the Choi side is 270 and 1755
    code, out = capture(["channel", sub, "--d", str(d), "--n", str(n), "--m", str(m),
                         "--samples", "1"])
    assert code == 0
    assert json.loads(out)["estimate"] < 1e-10


@pytest.mark.parametrize("d,n,m", [(2, 1, 64), (2, 63, 64), (8, 1, 2), (3, 16, 17)])
def test_verify_edges_answer_or_refuse(d, n, m):
    answer_or_refuse("verify", "all", "--d", d, "--n", n, "--m", m)


def test_verify_answers_past_the_dense_guard():
    # 3^8 = 6561 is above the dense guard; the Choi side is 3 * 45 = 135
    proc = run_child("-m", "cloneopt.cli", "verify", "all", "--d", 3, "--n", 1, "--m", 8)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_verify_refuses_before_any_check():
    # (3, 1, 33) passes the Kraus and Choi guards but not the omega
    # domain guard (M <= 30); the refusal comes before the defect samples
    proc = run_child("-m", "cloneopt.cli", "verify", "all", "--d", 3, "--n", 1, "--m", 33)
    assert proc.returncode == 3
    assert proc.stderr == "error: enumeration guard exceeded (M <= 30, d <= 8)\n"


def test_verify_builds_no_dense_matrix(monkeypatch):
    from cloneopt import channels, cloner, tensor_core

    def refuse(*args, **kwargs):
        raise AssertionError("dense d^M construction")

    for module, name in [(tensor_core, "sym_embed"), (cloner, "sym_embed"),
                         (channels, "kron_power")]:
        monkeypatch.setattr(module, name, refuse)
    code, out = capture(["verify", "all", "--d", "2", "--n", "1", "--m", "11"])
    assert code == 0
    assert out == '{"ok": true, "d": 2, "n": 1, "m": 11, "failures": []}\n'


@pytest.mark.parametrize("state", ["[[NaN,0],[1,0]]", "[[1,0],[1e400,0]]",
                                   "[[Infinity,0],[1,0]]"])
@pytest.mark.parametrize("sub", ["apply", "marginal"])
def test_non_finite_state_exits_2(sub, state):
    proc = run_child("-m", "cloneopt.cli", "cloner", sub, "--d", 2, "--n", 1, "--m", 2,
                     "--state", state)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("sub", ["delta-one", "defect"])
def test_samples_below_one_exit_2(sub, samples, capsys):
    code = run(["channel", sub, "--d", "2", "--n", "1", "--m", "2",
                "--samples", str(samples)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: samples must be >= 1, got {samples}\n"


@pytest.mark.parametrize("argv", [
    ["channel", "delta-one"], ["channel", "defect"], ["verify", "all"], ["cloner", "apply"],
])
def test_negative_seed_exits_2(argv, capsys):
    code = run(argv + ["--d", "2", "--n", "1", "--m", "2", "--seed", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -3\n"


def test_seeded_delta_one_does_not_depend_on_the_hash_seed():
    argv = ["-m", "cloneopt.cli", "channel", "delta-one", "--d", 3, "--n", 1, "--m", 2,
            "--samples", 50, "--seed", 7]
    first = run_child(*argv, env={"PYTHONHASHSEED": "0"})
    second = run_child(*argv, env={"PYTHONHASHSEED": "12345"})
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout


def test_table_format():
    code, out = capture(["cloner", "constants", "--d", "2", "--n", "1", "--m", "2",
                         "--format", "table"])
    assert code == 0
    assert "gamma" in out and "[2,3]" in out


# --- serialization round trips ---------------------------------------------


def test_matrix_roundtrip():
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    doc = matrix_to_json(mat)
    assert doc["rows"] == 3 and doc["cols"] == 4
    assert np.allclose(matrix_from_json(doc), mat)


def test_channel_roundtrip():
    channel = optimal_cloner(ClonerSpec(2, 1, 2))
    doc = channel_to_json(channel)
    rebuilt = channel_from_json(doc)
    assert isinstance(rebuilt, Channel)
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert np.max(np.abs(rebuilt.apply(rho) - channel.apply(rho))) < 1e-12


def test_fraction_pair_lowest_terms():
    from fractions import Fraction

    assert fraction_pair(Fraction(4, 6)) == [2, 3]


def test_omega_report_schema():
    doc = omega_report_to_json(maximize_brute(2, 1, 2))
    assert set(doc) == {
        "d", "n", "m_out", "omega_max", "gamma", "delta_one",
        "maximizers", "unique", "count_enumerated",
    }
