"""cloneopt benchmark: closed-loop workloads with every answer checked.

    python3 perfbench/run.py [--workload all|cli-mix|sampled-supremum|omega-domain]
                             [--seed N] [--seconds S] [--trace 0|1]

Untraced runs (--trace 0) print the end-to-end metrics of each workload;
traced runs (--trace 1) print the per-layer metrics.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}
for the last workload run.  The exit code is 0 only when every job's
answer matched its oracle.  See perfbench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from collections import Counter

import numpy as np

import calibrate
import jobs
import oracles
from children import BENCH_DIR, BLAS_THREADS, OUT, ROOT, SRC, child_env, cli_argv, run_child
from spans import layer_metrics

SETUP_SAMPLES = 7
# Child calibration units (calibrate.py) timed after each set-up sample,
# and the number of cli-mix jobs between two child units.  Set-up is
# short, so it gets its own speed figure from units timed while it runs.
SETUP_UNITS = 2
CLI_JOBS_PER_UNIT = 4
# caps of one mix job, of one ladder rung, and of one in-process worker
JOB_CPU_S, JOB_MEM_MB, JOB_WALL_S = 60, 2048, 120
RUNG_CPU_S, RUNG_MEM_MB, RUNG_WALL_S = 2, 1024, 10
WORKER_MEM_MB = 4096

# The end-to-end metrics of BENCHMARK.json, reported by every workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed and saved, not bounded: the fractions read 0 where nothing fails
# or is refused, and the capacity ladders run on cli-mix only.
REPORTED_UNITS = {
    "failed_frac": "1",
    "refused_frac": "1",
    "max_m_marginal": "M",
    "max_m_omega": "M",
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cloneopt").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, workload: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": f"{BLAS_THREADS} (pinned in every child)",
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------


def cli_record(job: dict, result) -> dict:
    """Classify one finished CLI job: verified, refused or failed."""
    error = None
    if result.outcome == "ok":
        error = oracles.check_cli(job, result.stdout)
        status = "failed" if error else "verified"
    elif result.outcome == "exit3":
        status = "refused"
    else:
        status = "failed"
        error = f"{result.outcome}: {result.stderr.strip()[-200:]}"
    return {"id": job["id"], "kind": job["kind"], "size": [job["d"], job["n"], job.get("m")],
            "seconds": result.wall_s, "rss_mb": result.maxrss_mb,
            "exit": result.outcome, "outcome": status, "error": error}


def run_cli_job(job: dict, cpu_s=JOB_CPU_S, mem_mb=JOB_MEM_MB, wall_s=JOB_WALL_S) -> dict:
    return cli_record(job, run_child(cli_argv(job["argv"]), cpu_s, mem_mb, wall_s))


def ladder(metric: str, seed: int) -> tuple[int, list]:
    """Climb the rungs until one fails; return the last verified M."""
    best, rungs = 0, []
    for M in jobs.LADDER:
        rec = run_cli_job(jobs.ladder_job(metric, M, seed), RUNG_CPU_S, RUNG_MEM_MB, RUNG_WALL_S)
        rungs.append({"m": M, "exit": rec["exit"], "outcome": rec["outcome"],
                      "seconds": round(rec["seconds"], 4)})
        if rec["outcome"] != "verified":
            break
        best = M
    return best, rungs


def setup_seconds(workload: str, seed: int, units: list[float]) -> float:
    """Median wall time of fresh processes that only set up.

    SETUP_UNITS child calibration units are timed after each, into units.
    """
    if workload == "cli-mix":
        job = jobs.setup_job()
        run_cli_job(job)  # untimed: the first call compiles bytecode
    samples = []
    for _ in range(SETUP_SAMPLES):
        if workload == "cli-mix":
            rec = run_cli_job(job)
            if rec["outcome"] != "verified":
                raise SystemExit(f"set-up job failed: {rec['error']}")
            samples.append(rec["seconds"])
        else:
            result = run_child(worker_argv(workload, seed, 0, "setup"), JOB_CPU_S,
                               WORKER_MEM_MB, JOB_WALL_S)
            if result.code != 0:
                raise SystemExit(f"set-up of {workload} failed: {result.stderr.strip()[-300:]}")
            samples.append(result.wall_s)
        units += [calibrate.child_unit(child_env()) for _ in range(SETUP_UNITS)]
    return statistics.median(samples)


def worker_argv(workload: str, seed: int, seconds: float, mode: str) -> list[str]:
    out = OUT / f"worker-{workload}-seed{seed}-{mode}.json"
    return [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out", str(out)]


def run_worker(workload: str, seed: int, seconds: float, mode: str):
    argv = worker_argv(workload, seed, seconds, mode)
    budget = int(seconds) + 170
    result = run_child(argv, budget, WORKER_MEM_MB, budget)
    if result.code != 0:
        raise SystemExit(f"{workload} worker failed ({result.outcome}): "
                         f"{result.stderr.strip()[-300:]}")
    with open(argv[-1]) as fh:
        payload = json.load(fh)
    os.unlink(argv[-1])
    return payload, result


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def closed_loop_cli(seed: int, seconds: float, units: list[float]) -> list[dict]:
    """Whole rounds until --seconds and MIN_JOBS, with child calibration units between jobs."""
    records, elapsed, r = [], 0.0, 0
    while elapsed < seconds or len(records) < jobs.MIN_JOBS:
        for job in jobs.round_jobs("cli-mix", seed, r):
            records.append(run_cli_job(job))
            elapsed += records[-1]["seconds"]
            if len(records) % CLI_JOBS_PER_UNIT == 0:
                units.append(calibrate.child_unit(child_env()))
        r += 1
    return records


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup_units, units = [], []
    setup = setup_seconds(workload, seed, setup_units)
    extra, capacity = {}, {}
    if workload == "cli-mix":
        records = closed_loop_cli(seed, seconds, units)
        peak = max(rec["rss_mb"] for rec in records)
        extra["edge_probes"] = [run_cli_job(job) for job in jobs.edge_jobs(seed)]
        for metric in jobs.LADDERS:
            capacity[metric], extra[metric + "_rungs"] = ladder(metric, seed)
    else:
        result, child = run_worker(workload, seed, seconds, "run")
        records, peak = result["records"], child.maxrss_mb
        units = result["calibration"]

    latencies = [rec["seconds"] for rec in records]
    deciles = statistics.quantiles(latencies, n=10)
    outcomes = Counter(rec["outcome"] for rec in records)
    raw = {
        "setup_s": setup,
        "job_p50_s": deciles[4],
        "job_p90_s": deciles[8],
        "jobs_per_s": outcomes["verified"] / sum(latencies),
    }
    # times in seconds at the calibration unit's reference speed
    setup_speed = calibrate.speed(setup_units, calibrate.CHILD_REFERENCE_S)
    reference = calibrate.CHILD_REFERENCE_S if workload == "cli-mix" else calibrate.REFERENCE_S
    speed = calibrate.speed(units, reference)
    values = {
        "setup_s": raw["setup_s"] / setup_speed,
        "job_p50_s": raw["job_p50_s"] / speed,
        "job_p90_s": raw["job_p90_s"] / speed,
        "jobs_per_s": raw["jobs_per_s"] * speed,
        "peak_rss_mb": peak,
        "failed_frac": outcomes["failed"] / len(records),
        "refused_frac": outcomes["refused"] / len(records),
        **capacity,
    }
    extra["calibration"] = {"setup_speed": setup_speed, "speed": speed, "raw": raw,
                            "setup_units": setup_units, "units": units}
    return {"records": records, "values": values, "outcomes": outcomes, "extra": extra}


def print_end_to_end(workload: str, seed: int, run: dict) -> None:
    records, values, outcomes = run["records"], run["values"], run["outcomes"]
    n = len(records)
    print(f"== {workload}  seed {seed}  untraced ==")
    for name, unit in {**END_TO_END_UNITS, **REPORTED_UNITS}.items():
        if name in values:
            print(f"  {name:<16} {values[name]:>12.6g} {unit}")
    cal = run["extra"]["calibration"]
    print(f"  slower than reference: x{cal['setup_speed']:.4f} in set-up, x{cal['speed']:.4f} "
          f"in the loop ({len(cal['setup_units'])} and {len(cal['units'])} calibration units)")
    print("  raw: "
          + ", ".join(f"{name} {value:.6g}" for name, value in cal["raw"].items()))
    print(f"  jobs {n} (beyond p90: {n - int(0.9 * (n + 1))}); "
          + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))
    for metric in jobs.LADDERS:
        if metric + "_rungs" in run["extra"]:
            rungs = run["extra"][metric + "_rungs"]
            print(f"  {metric} rungs: " + ", ".join(f"M={r['m']} {r['exit']}" for r in rungs))
    for rec in run["extra"].get("edge_probes", []):
        verdict = "ok" if rec["outcome"] in ("verified", "refused") else "DEFECT (expected exit 0 or 3)"
        print(f"  edge probe {rec['kind']} {rec['size']}: {rec['exit']}  {verdict}")
    for rec in records:
        if rec["outcome"] == "failed":
            print(f"  FAILED {rec['id']} {rec['kind']} {rec['size']}: {rec['error']}")


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def traced_cli(seed: int) -> dict:
    todo = jobs.round_jobs("cli-mix", seed, 0) + jobs.edge_jobs(seed)
    plain = [run_cli_job(job) for job in todo]
    records, traces, exits, merged = [], [], Counter(), []
    for job in todo:
        spans_file = OUT / f".spans-{job['id']}.json"
        argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_file), job["id"],
                *job["argv"]]
        result = run_child(argv, JOB_CPU_S, JOB_MEM_MB, JOB_WALL_S)
        exits[result.outcome] += 1
        records.append(cli_record(job, result))
        if spans_file.exists():
            with open(spans_file) as fh:
                trace = json.load(fh)
            spans_file.unlink()
            base = len(merged)
            merged += [(n, s, e, p + base if p >= 0 else -1, j) for n, s, e, p, j in trace["spans"]]
            traces.append((trace["spans"], Counter(trace["counts"])))
    with open(OUT / f"spans-cli-mix-seed{seed}.jsonl", "w") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in merged)
    overhead = sum(r["seconds"] for r in records) / sum(r["seconds"] for r in plain) - 1
    # edge probes are counted in cli.exit_*, not as mix jobs
    mix = records[: len(records) - len(jobs.EDGE_PROBES)]
    return {"records": mix, "metrics": layer_metrics(traces, exits, overhead)}


def traced(workload: str, seed: int) -> dict:
    if workload == "cli-mix":
        return traced_cli(seed)
    result, _ = run_worker(workload, seed, 0, "trace")
    return result


def print_per_layer(workload: str, seed: int, metrics: dict) -> None:
    print(f"== {workload}  seed {seed}  traced ==")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")


# ---------------------------------------------------------------------------


def run_workload(args, workload: str) -> dict:
    if args.trace:
        run = traced(workload, args.seed)
        metrics = run["metrics"]
        print_per_layer(workload, args.seed, metrics)
    else:
        run = end_to_end(workload, args.seed, args.seconds)
        metrics = {name: {"value": run["values"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print_end_to_end(workload, args.seed, run)
    records = run["records"]
    failed = sum(rec["outcome"] == "failed" for rec in records)
    env = environment(args, workload)
    print("  env " + json.dumps(env))
    with open(OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "metrics": metrics, "run": run}, fh, indent=1, default=str)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="cloneopt closed-loop benchmark")
    ap.add_argument("--workload", default="all", choices=("all",) + jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "cloneopt" / "__init__.py").is_file():
        print(f"error: no cloneopt sources under {SRC}; run from a cloneopt checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        summary = run_workload(args, workload)
        correct &= summary["correct"]
        print(json.dumps(summary), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
