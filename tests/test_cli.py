"""CLI surface: subcommands, JSON schema, exit codes, reproducibility."""
import argparse
import hashlib
import inspect
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cloneopt import maximize_brute
from cloneopt.channels import covariance_defect, delta_one_numeric, twirl_choi
from cloneopt.cli import build_parser, run
from cloneopt.serialize import (
    fraction_pair,
    dumps,
    matrix_to_json,
    omega_report_to_json,
)


def matrix_from_json(doc):
    """The complex matrix a matrix_to_json document encodes."""
    entries = np.array(doc["entries"], dtype=float).reshape(-1, 2)
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(doc["rows"], doc["cols"])


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


def test_verify_all_checks_the_exact_maximizer(monkeypatch):
    # verify all holds omega max's maximizer equal to the listing oracle
    from dataclasses import replace

    from cloneopt import omega_opt

    exact = omega_opt.maximize_exact
    monkeypatch.setattr(omega_opt, "maximize_exact", lambda *args: replace(
        exact(*args), count_enumerated=exact(*args).count_enumerated + 1))
    code, out = capture(["verify", "all", "--d", "2", "--n", "1", "--m", "3"])
    assert code == 1
    assert json.loads(out)["failures"] == ["exact-maximizer"]


# sha256 of stdout, recorded before Channel stored its Kraus operators as
# one stack.  channel defect|twirl are left out: their round-off-level
# estimates differ between one and two BLAS threads at some sizes, so
# test_defect_twirl_stdout_digest_pinned pins them at one thread.
STDOUT_DIGESTS = [
    ("verify all --d 2 --n 1 --m 3",
     "8a2a3cfcda9f80934ef1b3d9c0d2e3fd6729533adbd87e6a3316f1cc9f3d99ef"),
    ("verify all --d 3 --n 2 --m 4",
     "951328844fef608fb256aab25cc83d575cc35638fd9d9a795ea1e0d78abd24a0"),
    ("channel omega --d 2 --n 1 --m 3",
     "32650c5fd20458ad4f275d2fe3b6a6ca6750c0f846f503e653e92b5a91ea4064"),
    ("channel omega --d 3 --n 2 --m 4",
     "c629692141bfdc41f6c2c21c370f3f8804820e42daa5de05c82a1b8d9a14bb8c"),
    ("channel delta-one --samples 200 --d 2 --n 1 --m 3",
     "b9ad84f6d7b471509b40c256da868ae8c4ffe9aed5e1320bbcf2e0978b5a8d2c"),
    ("channel delta-one --samples 200 --d 3 --n 2 --m 4",
     "5e3e8b4be1c77439f8a3d3faf4cf2c08bfc236f8e9bc376357604019f2a7a29f"),
    ("cloner apply --d 2 --n 1 --m 3",
     "995c29f1ee45497edb0983db464a96874d582a4bf468d3799f305a9f974ff821"),
    ("cloner apply --d 3 --n 2 --m 4",
     "3bddac62375ef65ce566feabd740f661b46739bdc18731b75006d3d51774daa6"),
    ("cloner marginal --d 2 --n 1 --m 3",
     "0850259471d5f1b3c9b253597f3acfea66fadc1b00b17ba03331f5029b0a661a"),
    ("cloner marginal --d 3 --n 2 --m 4",
     "9c32d0cfc019e6b0b222cc0411514dd2115ed200893f5806f813d18f03ed9b69"),
    ("cloner overlap --d 2 --n 1 --m 3",
     "5f0928b624e4ed1e482921a9ea215eebb21432d7a10bda1d734133da774a67f8"),
    ("cloner overlap --d 3 --n 2 --m 4",
     "4266ba2db766005ed6718e5ef421f527d109075013d6bf9a0fb460e9ad2def62"),
]


@pytest.mark.parametrize("argv,digest", STDOUT_DIGESTS)
def test_stdout_digest_pinned(argv, digest):
    code, out = capture(argv.split() + ["--seed", "5"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout at --samples 5, recorded at one BLAS thread before
# twirl_choi and covariance_defect shared one rotation loop
DEFECT_TWIRL_DIGESTS = {
    "channel defect --d 3 --n 2 --m 4 --seed 0":
        "15fcd76eea60179c3f2253bd06ca62da95592ff65c0e684bd107aa224fcac430",
    "channel defect --d 3 --n 2 --m 4 --seed 7":
        "14d6307a4bdbd1c48bfd6043023d52340da62384be94ae0ee27452c37808d913",
    "channel defect --d 3 --n 1 --m 5 --seed 0":
        "45e153788b423f2332e97677c63102706fcd85015b3ec592856a03c25aafbac1",
    "channel defect --d 3 --n 1 --m 5 --seed 7":
        "828e9d9ff1db36a6c878376de5167b7d27b7c8a3143525b4d03144fe5fd0aa08",
    "channel twirl --d 3 --n 2 --m 4 --seed 0":
        "f2b6ac80fdd0fb757848da2f08db0f1e7dc502107189842fd3e2ce765c4db2c2",
    "channel twirl --d 3 --n 2 --m 4 --seed 7":
        "9be472e0d7dff420ffa9b587c7578719fbf5cfa1c238f323f8ffc4c979fb7056",
    "channel twirl --d 3 --n 1 --m 5 --seed 0":
        "e7e457bfa42cbdcaac953b9d7ffbd9f32e4cb7f61e1efc2d65ea9020ec2f464b",
    "channel twirl --d 3 --n 1 --m 5 --seed 7":
        "f298d95563d28601c04981bd0869b7cb57c719c4d82b1b06daed3303e0ab74cd",
}

# run in the child: one line per argv, its exit code and stdout's sha256
DIGEST_SCRIPT = """
import hashlib, io, sys
from contextlib import redirect_stdout
from cloneopt.cli import build_parser, run
for argv in sys.argv[1:]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv.split())
    print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""


def test_stdout_digests_hold_on_two_blas_threads():
    # only channel defect|twirl depend on the BLAS thread count; every
    # other pinned command prints the same bytes on two threads
    proc = run_child("-c", DIGEST_SCRIPT, *(argv + " --seed 5" for argv, _ in STDOUT_DIGESTS),
                     env={"OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"0 {digest}" for _, digest in STDOUT_DIGESTS]


def test_defect_twirl_stdout_digest_pinned():
    # one child process for all eight, on run_child's one BLAS thread
    proc = run_child("-c", DIGEST_SCRIPT,
                     *(argv + " --samples 5" for argv in DEFECT_TWIRL_DIGESTS))
    assert proc.returncode == 0, proc.stderr
    got = dict(zip(DEFECT_TWIRL_DIGESTS, proc.stdout.splitlines()))
    assert got == {argv: f"0 {digest}" for argv, digest in DEFECT_TWIRL_DIGESTS.items()}


# sha256 of stdout, recorded while dims, rep and cloner constants still
# imported omega_opt at start-up and cloner constants imported numpy
EXACT_DIGESTS = {
    ("cloner constants --d 2 --n 1 --m 2", "json"):
        "8617beb17fd51d5ffaf762cf2b14082e76f79a74175932f5a78c1eb27bc38fd3",
    ("cloner constants --d 2 --n 1 --m 2", "table"):
        "0dba84089d4efc0005281491efaff74a9c6ebc6a47f9f05670bfac1ce177ef55",
    ("cloner constants --d 3 --n 1 --m 4", "json"):
        "78d1e3dd5c957345514dae1c92bb75a06f266f4af4c3303232ceb59100840b02",
    ("cloner constants --d 3 --n 1 --m 4", "table"):
        "774ab3f0c695d267ef59168440e611e2076355818915708d64880b5dfb3fb048",
    ("cloner constants --d 4 --n 3 --m 3", "json"):
        "ed582eab938b39b69f691edbe7191f9066b296fed9088af812a8ab60250ab431",
    ("cloner constants --d 4 --n 3 --m 3", "table"):
        "5661ddcdf60aaef8faa6ab94ab8a19a80c2265f25ffb8dfd08ca36ea4bf94751",
    ("cloner constants --d 8 --n 64 --m 64", "json"):
        "ed582eab938b39b69f691edbe7191f9066b296fed9088af812a8ab60250ab431",
    ("cloner constants --d 8 --n 64 --m 64", "table"):
        "5661ddcdf60aaef8faa6ab94ab8a19a80c2265f25ffb8dfd08ca36ea4bf94751",
    ("dims --d 2 --n 1", "json"):
        "7e2d74e0fe003042fc3db2f8095901ac2b21cd5aa4caf2d244c48ecb9aeefe9e",
    ("dims --d 2 --n 1", "table"):
        "ffe14c9896865ea832dcc24521c923d9ece8fcd238db395ab831a2ca0aed916c",
    ("rep casimir --weight 2,1,0", "json"):
        "090fb0495dd69c276c73ce84e070fc0dff9c99465c3be51b96354e67273c49f2",
    ("rep casimir --weight 2,1,0", "table"):
        "3555be0bae1bb3cf81bd2e7f9fb1e1e1487dd1812f153c748d742453841aeb2a",
    ("omega point --weight 3,1,0 --mu 1,1,0", "json"):
        "35869b1ffb0fb3b10cfe176da5c9ab0b5c2a59ce3eea6fddd5f3572e97e1ad9c",
    ("omega point --weight 3,1,0 --mu 1,1,0", "table"):
        "8bf07299227ffe29baafde058637d90c46d6c52107a459c65b2e479e0fd65f66",
}


@pytest.mark.parametrize("argv,fmt", EXACT_DIGESTS)
def test_exact_stdout_digest_pinned(argv, fmt):
    code, out = capture(argv.split() + ["--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_DIGESTS[argv, fmt]


def test_cloner_constants_refuses_n_0(capsys):
    assert run(["cloner", "constants", "--d", "2", "--n", "0", "--m", "2"]) == 2
    assert capsys.readouterr() == ("", "error: N must be >= 1\n")


# sha256 of stdout at the default 2000 samples and seed 0, recorded while
# each values() call of the sampler held at most 64 states
@pytest.mark.parametrize("argv,digest", [
    ("channel delta-one --d 2 --n 1 --m 4",
     "8a102377d53414f1fec6751075fd96fd331fb47dfe3ac97d75f30ace26dcf30c"),
    ("channel delta-one --d 3 --n 2 --m 4",
     "cef9745647ce3c2fa3811668e4d67fb84867d27c48078c2f81050d499634314c"),
])
def test_delta_one_default_samples_digest_pinned(argv, digest):
    code, out = capture(argv.split() + ["--seed", "0"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    # guard: Kraus entries beyond limit
    code, _ = capture(["cloner", "apply", "--d", "8", "--n", "1", "--m", "64"])
    assert code == 3
    # usage: malformed weight
    code, _ = capture(["rep", "casimir", "--weight", "1,2"])
    assert code == 2


def test_omega_max_answers_past_the_listing_guard(capsys):
    # omega max lists no labels, and prints the listing's report at
    # (8, 10, 31), past M = 30
    assert run(["omega", "max", "--d", "8", "--n", "10", "--m", "31"]) == 0
    out, err = capsys.readouterr()
    assert out == dumps(omega_report_to_json(maximize_brute(8, 10, 31)))
    assert err == ""


@pytest.mark.parametrize("argv,answer", [
    pytest.param("channel defect --samples 1 --d 2 --n 63 --m 64",
                 lambda out: out["estimate"] < 1e-10, id="channel-defect"),
    pytest.param("verify all --d 3 --n 10 --m 11",
                 lambda out: out == {"ok": True, "d": 3, "n": 10, "m": 11, "failures": []},
                 id="verify-all"),
    # a twirl at side 4095 holds three dense matrices of 268 MB; only the refusal is run
    pytest.param("channel twirl --samples 1 --d 3 --n 10 --m 11", None, id="channel-twirl"),
])
def test_choi_limit_is_fixed(argv, answer, capsys):
    # the Choi side limit is 4096 and guards only a dense Choi matrix:
    # channel twirl refuses side 66 * 78 = 5148, while channel defect
    # (side 64 * 65 = 4160) and verify all, which work from the Kraus
    # factor, answer
    code = run(argv.split())
    out, err = capsys.readouterr()
    if answer is None:
        assert (code, out) == (3, "")
        assert err == ("error: Choi matrix of side in_dim * out_dim = 66 * 78 = 5148 "
                       "exceeds guard 4096\n")
    else:
        assert (code, err) == (0, "")
        assert answer(json.loads(out))


ROOT = Path(__file__).resolve().parents[1]


def run_child(*argv, env=None, timeout=10, preexec_fn=None, stdout=subprocess.PIPE):
    # a separate process, so that a run past the guard is killed at 10 s
    # (or timeout) and every line it writes to stderr (warnings too) is
    # seen; env adds variables to the child's environment, preexec_fn
    # runs in the child before it starts, and stdout is where its stdout
    # goes (captured by default).  Children run on one BLAS
    # thread, so their time does not depend on how busy the other cores
    # are: on 2 cores the (3, 1, 33) defect edge took 1.9 s idle and
    # 4.9 s beside one busy process with default threads, 2.5-3.0 s in
    # both with one
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", **(env or {}),
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, *map(str, argv)], stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=timeout, env=env, preexec_fn=preexec_fn,
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
    # (3, 1, 34) needs 595 Kraus operators of 630 x 3 entries, above the
    # 2^20 guard; the refusal comes before the marginal and defect samples
    proc = run_child("-m", "cloneopt.cli", "verify", "all", "--d", 3, "--n", 1, "--m", 34)
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: optimal cloner Kraus entries R * out_dim * in_dim = 595 * 630 * 3 = 1124550 "
        "exceeds guard 1048576\n"
    )


@pytest.mark.parametrize("d,n,m", [(2, 1, 31), (2, 5, 40), (2, 30, 64), (2, 62, 64)])
def test_verify_answers_past_m_30(d, n, m):
    # the Kraus entry guard alone bounds verify all
    code, out = capture(["verify", "all", "--d", str(d), "--n", str(n), "--m", str(m)])
    assert code == 0
    assert out == f'{{"ok": true, "d": {d}, "n": {n}, "m": {m}, "failures": []}}\n'


def test_verify_builds_no_dense_matrix(monkeypatch):
    # every command that builds a channel answers at 2^13 = 8192, above
    # the dense guard, with both d^M constructions patched to raise
    from cloneopt import channels, tensor_core

    def refuse(*args, **kwargs):
        raise AssertionError("dense d^M construction")

    monkeypatch.setattr(tensor_core, "sym_embed", refuse)
    monkeypatch.setattr(channels, "kron_power", refuse)
    sizes = ["--d", "2", "--n", "1", "--m", "13"]
    for argv in (["cloner", "apply"], ["cloner", "marginal"], ["cloner", "overlap"],
                 ["channel", "twirl", "--samples", "2"], ["channel", "defect", "--samples", "2"],
                 ["channel", "omega"], ["channel", "delta-one", "--samples", "50"]):
        assert capture(argv + sizes)[0] == 0, argv
    code, out = capture(["verify", "all"] + sizes)
    assert code == 0
    assert out == '{"ok": true, "d": 2, "n": 1, "m": 13, "failures": []}\n'


@pytest.mark.parametrize("state", ["[[NaN,0],[1,0]]", "[[1,0],[1e400,0]]",
                                   "[[Infinity,0],[1,0]]"])
@pytest.mark.parametrize("sub", ["apply", "marginal"])
def test_non_finite_state_exits_2(sub, state):
    proc = run_child("-m", "cloneopt.cli", "cloner", sub, "--d", 2, "--n", 1, "--m", 2,
                     "--state", state)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# |+> and |0> written with amplitudes whose 2-norm over- or underflows
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("state,same_as", [
    ("[[1e308,0],[1e308,0]]", "[[1,0],[1,0]]"),
    ("[[1e-170,0],[1e-170,0]]", "[[1,0],[1,0]]"),
    ("[[1e-320,0],[0,0]]", "[[1,0],[0,0]]"),
    ("[[1e-160,0],[0,0]]", "[[1,0],[0,0]]"),
])
def test_state_at_the_ends_of_the_float_range_answers(state, same_as):
    argv = ["cloner", "marginal", "--d", "2", "--n", "1", "--m", "2", "--state"]
    code, out = capture(argv + [state])
    assert code == 0
    assert (code, out) == capture(argv + [same_as])


@pytest.mark.parametrize("state", [
    "[[1,0,0],[0,0]]", "[[1]]",
    pytest.param("[[1" + "0" * 400 + ",0],[0,0]]", id="401-digit-int"),  # no float holds it
    # past json's recursion limit: a RecursionError, once a traceback and exit 1
    pytest.param("[" * 100_000, id="nested-100000"),
    # JSON booleans, once read as the numbers 1 and 0
    "[[true,0],[0,0]]", "[[1,0],[0,false]]",
    # bytes are a state file's: one that is not UTF-8 once printed the codec's message
    pytest.param(b"\xff\xfe[[1,0],[0,0]]", id="non-utf-8-file"),
])
def test_malformed_state_pair_exits_2(state, tmp_path, capsys):
    if isinstance(state, bytes):
        path = tmp_path / "state.json"
        path.write_bytes(state)
        state = str(path)
    code = run(["cloner", "marginal", "--d", "2", "--n", "1", "--m", "2", "--state", state])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot parse state {state!r}\n"


@pytest.mark.parametrize("sub", ["apply", "marginal", "overlap"])
def test_bad_state_is_refused_before_the_kraus_guard(sub, capsys):
    # (3, 1, 34) is past the Kraus entry guard; a bad --state exits 2 first
    argv = ["cloner", sub, "--d", "3", "--n", "1", "--m", "34"]
    assert run(argv + ["--state", "[[1,0]]"]) == 2
    assert capsys.readouterr().err == "error: state has 1 amplitudes, expected 3\n"
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith("error: optimal cloner Kraus entries ")


# --state takes [[re, im], ...] alone: a matrix object, once read as the
# state of its entries whatever its shape, is a file name that does not exist
STATE_OBJECT = '{"rows": 2, "cols": 1, "entries": [[1, 0], [0, 0]]}'


@pytest.mark.parametrize("kind", ["missing", "directory", "object"])
@pytest.mark.parametrize("sub", ["apply", "marginal", "overlap"])
def test_unreadable_state_path_exits_2(sub, kind, tmp_path, capsys):
    state = {"missing": tmp_path / "state.json", "directory": tmp_path,
             "object": STATE_OBJECT}[kind]
    code = run(["cloner", sub, "--d", "2", "--n", "1", "--m", "2", "--state", str(state)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read state file '{state}': ")
    assert captured.err.count("\n") == 1


def cap_address_space():
    # 1 GiB of address space, so that a child reading without bound fails
    # at once instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("kind", ["endless", "oversize"])
def test_state_file_past_one_mib_exits_2(kind, tmp_path):
    # the file is read up to one byte past the limit: /dev/zero, once read
    # to its end, grew until a MemoryError
    path = Path("/dev/zero") if kind == "endless" else tmp_path / "state.json"
    if kind == "oversize":
        path.write_text("[[1,0],[0,0]]" + " " * 2**20)
    elif not path.exists():
        pytest.skip("no /dev/zero")
    proc = run_child("-m", "cloneopt.cli", "cloner", "marginal", "--d", 2, "--n", 1, "--m", 2,
                     "--state", path, timeout=5, preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: state file '{path}' holds more than 1048576 bytes\n"


# a large answer in both formats, a verify report and a refusal: a
# python -m cloneopt.cli child prints every byte that run() prints
@pytest.mark.parametrize("argv", [
    "cloner apply --d 5 --n 2 --m 6", "cloner apply --d 5 --n 2 --m 6 --format table",
    "verify all --d 3 --n 1 --m 5", "cloner apply --d 3 --n 1 --m 34",
])
def test_child_prints_what_run_prints(argv):
    proc = run_child("-m", "cloneopt.cli", *argv.split())
    assert (proc.returncode, proc.stdout) == capture(argv.split())


# a reader that is gone before the child writes: once a BrokenPipeError
# traceback and exit 1 on an unbuffered stdout, and "Exception ignored"
# and exit 120 on a buffered one (--help too)
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv,code,err", [
    ("dims --d 2 --n 1", 0, ""),
    ("cloner apply --d 5 --n 2 --m 6", 0, ""),
    ("--help", 0, ""),
    ("dims --d 1 --n 1", 2, "error: d must be in [2, 8], got 1\n"),
])
def test_closed_stdout_exits_with_the_commands_code(argv, code, err, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_child("-m", "cloneopt.cli", *argv.split(), stdout=write,
                         env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, err)


def test_spin_exponent_exits_2_at_once():
    # Fraction("1e10000000") alone took 10.7 s, and 1e100000000 over 100 s
    proc = run_child("-m", "cloneopt.cli", "omega", "su2", "--alpha", "1e100000000",
                     "--beta", "1e100000000", "--gamma", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: cannot parse spin '1e100000000'\n"


def test_spin_forms(capsys):
    argv = ["omega", "su2", "--beta", "1", "--gamma", "1/2", "--alpha"]
    assert run(argv + ["3/2"]) == 0
    assert run(argv + ["1.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ['{"omega": [5, 3]}'] * 2
    assert run(argv + ["15E-1"]) == 2
    assert capsys.readouterr().err == "error: cannot parse spin '15E-1'\n"


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("sub", ["delta-one", "defect"])
def test_samples_below_one_exit_2(sub, samples, capsys):
    code = run(["channel", sub, "--d", "2", "--n", "1", "--m", "2",
                "--samples", str(samples)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: samples must be >= 1, got {samples}\n"


@pytest.mark.parametrize("argv,flag", [
    (["dims"], "--guard"), (["dims"], "--seed"),
    (["cloner", "constants", "--m", "2"], "--guard"),
    (["cloner", "constants", "--m", "2"], "--seed"),
    (["cloner", "marginal", "--m", "2"], "--guard"),
    (["cloner", "overlap", "--m", "2"], "--guard"),
    (["omega", "max", "--m", "2"], "--guard"), (["omega", "max", "--m", "2"], "--seed"),
    (["channel", "omega", "--m", "2"], "--guard"),
    (["channel", "delta-one", "--m", "2"], "--guard"),
    (["cloner", "apply", "--m", "2"], "--guard"),
    (["channel", "twirl", "--m", "2"], "--guard"),
    (["channel", "defect", "--m", "2"], "--guard"),
    (["verify", "all", "--m", "2"], "--guard"),
])
def test_flags_a_command_does_not_read_exit_2(argv, flag, capsys):
    code = run(argv + ["--d", "2", "--n", "1", flag, "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} 4" in captured.err


@pytest.mark.parametrize("argv", [
    ["omega", "point", "--mu", "1,0"], ["rep", "casimir"], ["rep", "branch", "--n", "1"],
    ["rep", "multiplicity", "--m", "3"],
])
def test_weight_of_more_than_8_components_exits_2(argv):
    # weyl_dimension alone took 6 s on 500 components before this refusal
    proc = run_child("-m", "cloneopt.cli", *argv, "--weight", ",".join(["0"] * 1000))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: d must be in [2, 8], got 1000\n"


def test_omega_point_answers_up_to_64_sites(capsys):
    # the answer of the parent, which took labels of any size
    code = run(["omega", "point", "--weight", "64,0", "--mu", "1,0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        '{"m": [64, 0], "mu": [1, 0], "f2": 125, "omega": [22, 1], '
        '"gamma": [11, 32], "delta_one": [21, 64]}\n'
    )


@pytest.mark.parametrize("weight,mu,message", [
    ("65,0", "1,0", "M must be in [0, 64], got 65"),
    ("1000000000000000000000,0", "1,0", "M must be in [0, 64], got 1000000000000000000000"),
    ("100,0", "70,0", "N must be in [0, 64], got 70"),
], ids=["M-65", "M-1e21", "N-70"])
def test_omega_point_beyond_64_sites_exits_2(weight, mu, message, capsys):
    # N = sum(mu) and M = sum(m) obey the --n and --m ranges
    code = run(["omega", "point", "--weight", weight, "--mu", mu])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("weight", ["64,48,32,16,0", "448,384,320,256,192,128,64,0"])
def test_rep_branch_edges_answer_or_refuse(weight):
    # 83,521 and C(71, 7) = 1,329,890,705 summands, both above the guard
    answer_or_refuse("rep", "branch", "--weight", weight, "--n", 64)


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


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_answer_past_the_int_digit_limit_exits_2(fmt, capsys):
    # c2 of this weight has about 6000 digits, past Python's 4300-digit
    # int-to-str limit; the table wrote its first lines before the crash
    code = run(["rep", "casimir", "--weight", "9" * 3000 + ",0", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: Exceeds the limit (4300 digits)")
    assert captured.err.count("\n") == 1


# The CLI surface, recorded from the parser whose commands were wired one
# by one: per command, each option after -h, in order, as (option,
# required, default), then its choices or its help string where it has one
D, N, M = ("--d", True, None), ("--n", True, None), ("--m", True, None)
SEED = ("--seed", False, 0)
FORMAT = ("--format", False, "json", ["json", "table"])
STATE = ("--state", False, None, "inline JSON amplitudes or a file path")
WEIGHT = ("--weight", True, None)
CLI_SURFACE = {
    "dims": [D, N, FORMAT],
    "cloner constants": [D, N, M, FORMAT],
    "cloner apply": [D, N, M, SEED, FORMAT, STATE],
    "cloner marginal": [D, N, M, SEED, FORMAT, STATE],
    "cloner overlap": [D, N, M, SEED, FORMAT, STATE],
    "omega max": [D, N, M, FORMAT],
    "omega point": [WEIGHT, ("--mu", True, None), FORMAT],
    "omega su2": [("--alpha", True, None), ("--beta", True, None), ("--gamma", True, None),
                  FORMAT],
    "rep casimir": [WEIGHT, FORMAT],
    "rep branch": [WEIGHT, N, FORMAT],
    "rep multiplicity": [WEIGHT, M, FORMAT],
    "rep adjoint": [D, N, FORMAT],
    "channel twirl": [D, N, M, SEED, ("--samples", False, 200), FORMAT],
    "channel defect": [D, N, M, SEED, ("--samples", False, 50), FORMAT],
    "channel omega": [D, N, M, SEED, FORMAT],
    "channel delta-one": [D, N, M, SEED, ("--samples", False, 2000), FORMAT],
    "verify all": [D, N, M, SEED, FORMAT],
}
GROUP_HELP = [
    ("dims", "symmetric-subspace dimension"),
    ("cloner", "optimal cloner construction and constants"),
    ("omega", "maximization of the omega functional"),
    ("rep", "highest-weight bookkeeping"),
    ("channel", "channel-level diagnostics of the optimal cloner"),
    ("verify", "run the invariant suite"),
]


def leaf_commands(parser, path=()):
    """(command, parser) of every command that takes options, in parser order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_commands(sub, path + (name,))
            return
    yield " ".join(path), parser


def test_cli_surface_is_pinned():
    parser = build_parser()
    groups = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [(c.dest, c.help) for c in groups._choices_actions] == GROUP_HELP
    surface = {
        command: [
            (a.option_strings[0], a.required, a.default)
            + ((a.choices,) if a.choices else ()) + ((a.help,) if a.help else ())
            for a in sub._actions if a.dest != "help"
        ]
        for command, sub in leaf_commands(parser)
    }
    assert list(surface) == list(CLI_SURFACE)
    assert surface == CLI_SURFACE


@pytest.mark.parametrize("sub,estimate", [("twirl", twirl_choi), ("defect", covariance_defect),
                                          ("delta-one", delta_one_numeric)])
def test_sample_defaults_are_the_library_defaults(sub, estimate):
    # the CLI rows repeat each estimator's default; neither may drift alone
    args = build_parser().parse_args(["channel", sub, "--d", "2", "--n", "1", "--m", "2"])
    assert args.samples == inspect.signature(estimate).parameters["samples"].default


@pytest.mark.parametrize("command", CLI_SURFACE)
def test_help_exits_0(command, capsys):
    assert run(command.split() + ["--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: cloneopt {command} [-h]")


# --- serialization round trips ---------------------------------------------


def test_matrix_roundtrip():
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    doc = matrix_to_json(mat)
    assert doc["rows"] == 3 and doc["cols"] == 4
    assert np.allclose(matrix_from_json(doc), mat)


def test_matrix_to_json_matches_per_entry_floats():
    mat = np.empty((2, 3), dtype=complex)  # set parts apart: complex sums drop -0.0
    mat.real = [[-0.0, 1e308, 1.5], [0.0, 5e-324, -2.25]]
    mat.imag = [[5e-324, -0.0, 0.0], [-1e308, -0.0, 3.0]]
    doc = matrix_to_json(mat)
    entries = [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
    oracle = {"rows": 2, "cols": 3, "entries": entries}
    assert dumps(doc).encode() == dumps(oracle).encode()
    assert dumps(doc).count("-0.0") == dumps(oracle).count("-0.0") > 0


def test_fraction_pair_lowest_terms():
    assert fraction_pair(Fraction(4, 6)) == [2, 3]


def test_omega_report_schema():
    doc = omega_report_to_json(maximize_brute(2, 1, 2))
    assert set(doc) == {
        "d", "n", "m_out", "omega_max", "gamma", "delta_one",
        "maximizers", "unique", "count_enumerated",
    }
