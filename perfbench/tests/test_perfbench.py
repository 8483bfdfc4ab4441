"""Tests of the benchmark itself: decks, tracing, self time and checking.

    python3 -m pytest perfbench/tests -q
"""
import ast
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from children import ChildResult  # noqa: E402


def _sizes(deck):
    return Counter((job["kind"], job["d"], job["n"], job["m"]) for job in deck)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_same_jobs(workload):
    assert jobs.round_jobs(workload, 7, 0) == jobs.round_jobs(workload, 7, 0)
    assert jobs.round_jobs(workload, 7, 3) == jobs.round_jobs(workload, 7, 3)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_other_seed_gives_other_jobs_of_the_same_sizes(workload):
    a, b = jobs.round_jobs(workload, 7, 0), jobs.round_jobs(workload, 8, 0)
    assert a != b
    assert jobs.round_jobs(workload, 7, 1) != a
    assert _sizes(a) == _sizes(b)


def test_rounds_hold_enough_jobs_for_p90():
    # one cli-mix round must already have ten jobs beyond p90
    assert len(jobs.round_jobs("cli-mix", 0, 0)) >= jobs.MIN_JOBS >= 100


def _bindings():
    """Every attribute of every cloneopt namespace, plus Channel's methods."""
    from cloneopt import cloner

    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "cloneopt" or name.startswith("cloneopt."):
            for key, value in vars(mod).items():
                found[(name, key)] = value
    for key, value in vars(cloner.Channel).items():
        found[("Channel", key)] = value
    return found


def test_tracing_restores_every_patched_attribute():
    import cloneopt.cli  # noqa: F401  (its namespace is scanned too)
    from cloneopt import cloner, omega_opt, tensor_core

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # names bound by import in other modules are patched too
        assert cloner.product_power is not before[("cloneopt.cloner", "product_power")]
        assert tensor_core.product_power is not before[("cloneopt.tensor_core", "product_power")]
        assert cloner.Channel.apply is not before[("Channel", "apply")]
        assert omega_opt.check_dominant is not before[("cloneopt.omega_opt", "check_dominant")]
        tracer.job = "t"
        job = {"id": "t", "kind": "delta_one", "d": 2, "n": 1, "m": 2, "samples": 5, "seed": 0}
        assert worker.timed(job)["outcome"] == "verified"
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    names = {span[0] for span in tracer.spans}
    assert {"cloner.optimal_cloner", "channels.delta_one_numeric",
            "cloner.Channel.apply_fast", "tensor_core.product_power"} <= names
    assert tracer.counts["channels.sampler_evals"] > 0


def test_self_time_is_duration_minus_children():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def inner(dt):
        now[0] += dt

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        now[0] += 1
        traced_inner(2)
        now[0] += 3
        traced_inner(4)
        now[0] += 5

    tracer.wrap("outer", outer)()
    stats = spans.self_times(tracer.spans)
    assert stats["outer"] == [1, 15 - 2 - 4]
    assert stats["inner"] == [2, 6]
    outer_span = next(s for s in tracer.spans if s[0] == "outer")
    assert outer_span[2] - outer_span[1] == 15


def test_hook_time_is_not_charged_to_the_caller():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def slow_hook(args, kwargs, result):
        now[0] += 10

    leaf = tracer.wrap("leaf", lambda: now.__setitem__(0, now[0] + 1), after=slow_hook)

    def caller():
        leaf()
        now[0] += 2

    tracer.wrap("caller", caller)()
    stats = spans.self_times(tracer.spans)
    assert stats["caller"] == [1, 2]
    assert stats["leaf"] == [1, 1]
    assert spans.HOOK not in stats


def _child(stdout, code=0):
    return ChildResult(code=code, signal=None, wall_s=0.3, maxrss_mb=30.0,
                       stdout=stdout, stderr="", timed_out=False)


def _marginal_job():
    job = jobs.cli_job(("cloner", "marginal", 2, 1, 3), random.Random(1), "p")
    psi = np.array([complex(re, im) for re, im in job["state"]])
    g = float(oracles.shrinking_factor(2, 1, 3))
    marg = g * np.outer(psi, psi.conj()) + (1 - g) / 2 * np.eye(2)
    return job, marg


def _marginal_json(marg):
    entries = [[z.real, z.imag] for z in marg.reshape(-1)]
    return json.dumps({"marginal": {"rows": 2, "cols": 2, "entries": entries}})


def test_perturbed_cli_answer_is_counted_as_failed():
    job, marg = _marginal_job()
    assert run.cli_record(job, _child(_marginal_json(marg)))["outcome"] == "verified"
    marg[0, 0] += 1e-6
    marg[1, 1] -= 1e-6
    record = run.cli_record(job, _child(_marginal_json(marg)))
    assert record["outcome"] == "failed"
    assert "marginal differs" in record["error"]


def test_exit_codes_are_classified():
    job, marg = _marginal_job()
    assert run.cli_record(job, _child("", code=3))["outcome"] == "refused"
    assert run.cli_record(job, _child("", code=2))["outcome"] == "failed"
    assert run.cli_record(job, _child("", code=1))["exit"] == "exit1"


def test_perturbed_in_process_answers_are_counted_as_failed():
    job = {"kind": "delta_all", "d": 3, "n": 1, "m": 2}
    closed = float(oracles.delta_all(3, 1, 2))
    assert worker.check(job, closed) is None
    assert worker.check(job, closed + 0.01) is not None
    assert worker.check(job, closed - 1e-6) is not None

    from cloneopt import omega_opt

    d, n, m = 3, 2, 5
    report = omega_opt.maximize_brute(d, n, m)
    top = omega_opt.CandidatePoint(*oracles.top_label(d, n, m))
    omega_job = {"kind": "omega", "d": d, "n": n, "m": m}
    assert worker.check(omega_job, (report, [top], [])) is None
    wrong = omega_opt.OmegaReport(d, n, m, report.omega_max + Fraction(1, 10**6), report.gamma,
                                  report.delta_one, report.maximizers, report.count_enumerated)
    assert worker.check(omega_job, (wrong, [top], [])) is not None
    short = omega_opt.OmegaReport(d, n, m, report.omega_max, report.gamma, report.delta_one,
                                  report.maximizers, report.count_enumerated - 1)
    assert worker.check(omega_job, (short, [top], [])) is not None
    stuck = omega_opt.CandidatePoint((4, 1, 0), (2, 0, 0))
    assert worker.check(omega_job, (report, [stuck], [])) is not None


@pytest.mark.parametrize("d,n,m", [(2, 3, 12), (3, 4, 9), (5, 2, 8), (8, 3, 7)])
def test_domain_count_matches_enumeration(d, n, m):
    from cloneopt import omega_opt

    assert oracles.domain_size(d, n, m) == len(omega_opt.enumerate_W1(d, n, m))


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {name: unit for name, (unit, _) in spans.per_layer_names().items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer


def test_calibration_factor_is_the_mean_unit_time_over_the_reference():
    ref = calibrate.REFERENCE_S
    assert calibrate.speed([ref, ref, 4 * ref], ref) == pytest.approx(2.0)
    assert calibrate.unit() > 0
    # the unit must not run the program it calibrates
    tree = ast.parse((BENCH / "calibrate.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "statistics", "subprocess", "sys", "time", "numpy"}
