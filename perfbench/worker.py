"""In-process workload runner: one fresh interpreter per call.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode setup|run|trace --out FILE

Every mode imports cloneopt and runs one untimed warm-up job of each
kind.  `setup` stops there; its wall time, seen from the parent, is the
workload's set-up time.  `run` is the untraced closed loop: one job at
a time, whole rounds, until --seconds and jobs.MIN_JOBS are both
reached, with one calibration unit (calibrate.py) timed after each
job.  `trace` runs a fixed number of rounds untraced, then the same
jobs traced, and reports per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from cloneopt import channels, cloner, omega_opt

import calibrate
import jobs
import oracles
from children import OUT
from spans import Tracer, layer_metrics

WORKLOADS_IN_PROCESS = ("sampled-supremum", "omega-domain")

# An in-process job slower than this counts as failed.
JOB_BUDGET_S = 60.0
# Rounds that the traced run measures, once untraced and once traced.
TRACE_ROUNDS = {"sampled-supremum": 2, "omega-domain": 2}


def run_job(job: dict):
    d, n, m = job["d"], job["n"], job["m"]
    if job["kind"] == "delta_one":
        channel = cloner.optimal_cloner(cloner.ClonerSpec(d, n, m))
        return channels.delta_one_numeric(channel, samples=job["samples"], seed=job["seed"])
    if job["kind"] == "delta_all":
        return cloner.delta_all_numeric(
            cloner.ClonerSpec(d, n, m), samples=job["samples"], seed=job["seed"]
        )
    report = omega_opt.maximize_brute(d, n, m)
    starts = [omega_opt.CandidatePoint(mm, mu) for mm, mu in job["starts"]]
    greedy = [omega_opt.maximize_greedy(d, n, m, start=p) for p in starts]
    su2 = []
    if d == 2:
        for p in starts:
            su2.append((omega_opt.omega_of_point(p, d, n, m),
                        omega_opt.omega_su2(*oracles.su2_spins(p.m, p.mu, n))))
    return report, greedy, su2


def check(job: dict, result) -> str | None:
    d, n, m = job["d"], job["n"], job["m"]
    if job["kind"] == "delta_one":
        return oracles.in_band(result, oracles.delta_one(d, n, m), "delta_one")
    if job["kind"] == "delta_all":
        return oracles.in_band(result, oracles.delta_all(d, n, m), "delta_all")
    report, greedy, su2 = result
    error = oracles.check_omega_report(
        d, n, m, omega=report.omega_max,
        maximizers=[(p.m, p.mu) for p in report.maximizers],
        count=report.count_enumerated, delta=report.delta_one,
    )
    if error:
        return error
    top = oracles.top_label(d, n, m)
    for point in greedy:
        if (point.m, point.mu) != top:
            return f"greedy stopped at {(point.m, point.mu)}, not the top label {top}"
    for general, spin in su2:
        if general != spin:
            return f"omega_of_point {general} != omega_su2 {spin}"
    return None


def timed(job: dict) -> dict:
    """Run one job, then check its answer outside the timed interval."""
    start = time.perf_counter()
    try:
        result = run_job(job)
        error = None
    except Exception as exc:  # a traceback is a failed job, not a crashed run
        result, error = None, f"raised {exc!r}"
    seconds = time.perf_counter() - start
    if error is None:
        error = check(job, result)
    if error is None and seconds > JOB_BUDGET_S:
        error = f"over the {JOB_BUDGET_S} s budget"
    return {"id": job["id"], "kind": job["kind"], "size": [job["d"], job["n"], job["m"]],
            "seconds": seconds, "outcome": "failed" if error else "verified", "error": error}


def warm_up(workload: str) -> None:
    for job in jobs.warmup_jobs(workload):
        record = timed(job)
        if record["error"]:
            raise SystemExit(f"warm-up job failed: {record['error']}")


def closed_loop(workload: str, seed: int, seconds: float) -> dict:
    """Whole rounds until --seconds and MIN_JOBS; one calibration unit after each job."""
    records, units = [], []
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds or len(records) < jobs.MIN_JOBS:
        for job in jobs.round_jobs(workload, seed, r):
            records.append(timed(job))
            units.append(calibrate.unit())
        r += 1
    return {"records": records, "calibration": units}


def traced_rounds(workload: str, seed: int) -> dict:
    todo = [job for r in range(TRACE_ROUNDS[workload]) for job in jobs.round_jobs(workload, seed, r)]
    plain = [timed(job) for job in todo]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for job in todo:
            tracer.job = job["id"]
            traced.append(timed(job))
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    plain_s = sum(rec["seconds"] for rec in plain)
    traced_s = sum(rec["seconds"] for rec in traced)
    return {
        "records": traced,
        "metrics": layer_metrics([(tracer.spans, tracer.counts)], overhead=traced_s / plain_s - 1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS_IN_PROCESS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    warm_up(args.workload)
    if args.mode == "setup":
        return 0
    if args.mode == "run":
        result = closed_loop(args.workload, args.seed, args.seconds)
    else:
        result = traced_rounds(args.workload, args.seed)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
