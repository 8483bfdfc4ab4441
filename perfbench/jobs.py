"""Seeded job decks for the three workloads, the capacity ladders and warm-ups.

A workload runs in rounds.  The deck fixes the sizes of the jobs of one
round; the seed picks everything else: the order, input states, CLI and
sampler seeds, and greedy starts.  Runs with different seeds therefore
do the same amount of work on different inputs, and every round has the
same mix of sizes, so percentiles land on the same kind of job however
many rounds a run completes.
"""
from __future__ import annotations

import json
import math
import random

import oracles

WORKLOADS = ("cli-mix", "sampled-supremum", "omega-domain")

# A run keeps going until it has measured --seconds and this many jobs,
# so that p90 has at least ten jobs beyond it.
MIN_JOBS = 100
# In-process sampled suprema all use this many samples.
SAMPLES = 200
# Greedy starts per omega-domain instance.
GREEDY_STARTS = 8

# cli-mix deck: (command, subcommand, d, N, M) and copies per round.
# 80 light jobs (mostly interpreter start), 18 medium jobs of about
# 0.45 s and three heavy ones.  p50 lands in the middle of the light
# jobs and p90 inside the block of medium jobs, where many jobs of about
# the same cost make the percentile steady.
CLI_LIGHT = [
    ("cloner", "apply", 2, 1, 6),
    ("cloner", "apply", 3, 2, 5),
    ("cloner", "marginal", 2, 1, 12),
    ("cloner", "marginal", 2, 1, 13),
    ("cloner", "marginal", 3, 1, 6),
    ("cloner", "marginal", 4, 2, 5),
    ("cloner", "marginal", 5, 1, 4),
    ("cloner", "overlap", 2, 2, 10),
    ("cloner", "overlap", 3, 1, 6),
    ("cloner", "overlap", 5, 2, 4),
    ("channel", "omega", 2, 1, 8),
    ("channel", "omega", 3, 1, 6),
    ("channel", "omega", 4, 1, 4),
    ("channel", "delta-one", 2, 1, 4),
    ("channel", "delta-one", 3, 2, 4),
    ("omega", "max", 3, 2, 10),
    ("omega", "max", 4, 3, 12),
    ("omega", "max", 5, 2, 14),
    ("verify", "all", 2, 1, 5),
    ("verify", "all", 3, 1, 4),
]
CLI_MEDIUM = [
    ("cloner", "apply", 5, 2, 6),
    ("channel", "omega", 3, 1, 8),
    ("channel", "delta-one", 4, 1, 4),
    ("omega", "max", 7, 8, 22),
    ("verify", "all", 2, 1, 9),
    ("verify", "all", 3, 1, 5),
]
CLI_HEAVY = [
    ("verify", "all", 2, 1, 11),  # dense covariance check at d^M = 2048
    ("verify", "all", 3, 1, 8),  # refused: exits 3 after the marginal checks
    ("omega", "max", 8, 10, 30),  # 288,729 labels
]
CLI_DECK = [(job, 4) for job in CLI_LIGHT] + [(job, 3) for job in CLI_MEDIUM] + [
    (job, 1) for job in CLI_HEAVY
]

# sampled-supremum deck: (kind, d, N, M); d in {2,3,4}, M <= 5.
# 25 sizes, two of them repeated, 30 jobs per round.  Neighbouring sizes
# differ by less than one job's run-to-run noise, so a percentile that
# falls between them moves with the noise.  Four copies of the
# second-heaviest size (0.3 s, well apart from its neighbours) put p90 in
# the middle of their block, and a second copy of delta_one (3, 1, 3)
# puts p50 in the middle of the block of the next size up.
SAMPLED_DECK = [
    ("delta_one", 2, 1, 2), ("delta_all", 2, 1, 3), ("delta_one", 2, 2, 3),
    ("delta_one", 2, 1, 4), ("delta_all", 2, 3, 4), ("delta_all", 2, 1, 5),
    ("delta_one", 2, 2, 5), ("delta_one", 2, 4, 5), ("delta_all", 2, 3, 5),
    ("delta_all", 3, 1, 2), ("delta_one", 3, 1, 3), ("delta_all", 3, 2, 3),
    ("delta_one", 3, 1, 4), ("delta_all", 3, 2, 4), ("delta_one", 3, 3, 4),
    ("delta_all", 3, 1, 5), ("delta_one", 3, 2, 5), ("delta_all", 3, 3, 5),
    ("delta_one", 3, 4, 5),
    ("delta_one", 4, 1, 2), ("delta_all", 4, 1, 3), ("delta_one", 4, 2, 3),
    ("delta_all", 4, 1, 4), ("delta_one", 4, 2, 4), ("delta_all", 4, 1, 5),
    ("delta_one", 3, 1, 3),
    ("delta_one", 4, 2, 4), ("delta_one", 4, 2, 4), ("delta_one", 4, 2, 4),
]

# omega-domain deck: (d, N, M) with 2 <= d <= 8 and 1 <= N < M <= 30.
# An odd number of sizes puts p50 in the middle of one size, not between two.
OMEGA_DECK = [
    (2, 1, 30), (2, 7, 20), (2, 15, 30),
    (3, 1, 30), (3, 5, 15), (3, 10, 30), (3, 20, 30),
    (4, 2, 20), (4, 5, 30), (4, 10, 30),
    (5, 3, 14), (5, 5, 20), (5, 8, 24),
    (6, 4, 16), (6, 5, 24), (6, 8, 26),
    (7, 3, 12), (7, 6, 20), (7, 10, 25),
    (8, 2, 10), (8, 4, 16), (8, 6, 20), (8, 10, 24),
]

# Capacity ladders: the largest rung M at which the command returns a
# verified answer within the rung's CPU-time and memory caps.
LADDER = (4, 8, 12, 16, 24, 32, 48, 64)
LADDERS = {
    "max_m_marginal": ("cloner", "marginal", 2, 1),
    "max_m_omega": ("channel", "omega", 3, 1),
}
# Inputs at the edge of the accepted range whose outcome is recorded
# after the mix.  A correct CLI answers them or exits 3 (guard).
EDGE_PROBES = [("omega", "max", 8, 10, 31)]


def _rng(workload: str, seed: int, *salt) -> random.Random:
    # string seeds hash with SHA-512 in `random`, so decks do not depend
    # on the Python version's hash of tuples
    return random.Random("/".join(map(str, (workload, seed) + salt)))


def _state(rng: random.Random, d: int) -> list[list[float]]:
    z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in z))
    return [[c.real / norm, c.imag / norm] for c in z]


def cli_job(spec, rng: random.Random, job_id: str) -> dict:
    """One CLI job; inputs the oracle needs travel with the job."""
    cmd, sub, d, n, m = spec
    job = {"id": job_id, "kind": f"{cmd} {sub}", "d": d, "n": n, "m": m}
    argv = [cmd, sub, "--d", str(d), "--n", str(n), "--m", str(m)]
    if cmd == "cloner":
        job["state"] = _state(rng, d)
        argv += ["--state", json.dumps(job["state"])]
    if sub == "delta-one":
        argv += ["--samples", str(SAMPLES)]
    if cmd in ("verify", "channel"):
        argv += ["--seed", str(rng.randrange(1 << 20))]
    job["argv"] = argv
    return job


def round_jobs(workload: str, seed: int, r: int) -> list[dict]:
    """The jobs of round r of a workload, in the order they run."""
    rng = _rng(workload, seed, r)
    jobs = []
    if workload == "cli-mix":
        specs = [spec for spec, copies in CLI_DECK for _ in range(copies)]
        rng.shuffle(specs)
        for j, spec in enumerate(specs):
            jobs.append(cli_job(spec, rng, f"r{r}j{j}"))
    elif workload == "sampled-supremum":
        specs = list(SAMPLED_DECK)
        rng.shuffle(specs)
        for j, (kind, d, n, m) in enumerate(specs):
            jobs.append({"id": f"r{r}j{j}", "kind": kind, "d": d, "n": n, "m": m,
                         "samples": SAMPLES, "seed": rng.randrange(1 << 20)})
    elif workload == "omega-domain":
        specs = list(OMEGA_DECK)
        rng.shuffle(specs)
        for j, (d, n, m) in enumerate(specs):
            starts = [oracles.random_feasible_label(rng, d, n, m) for _ in range(GREEDY_STARTS)]
            jobs.append({"id": f"r{r}j{j}", "kind": "omega", "d": d, "n": n, "m": m,
                         "starts": starts})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def warmup_jobs(workload: str) -> list[dict]:
    """One small job of each kind, run untimed during set-up."""
    rng = _rng(workload, "warmup")
    if workload == "sampled-supremum":
        return [{"id": f"w{k}", "kind": k, "d": 2, "n": 1, "m": 2, "samples": SAMPLES,
                 "seed": 0} for k in ("delta_one", "delta_all")]
    if workload == "omega-domain":
        return [{"id": "w0", "kind": "omega", "d": 2, "n": 1, "m": 2,
                 "starts": [oracles.random_feasible_label(rng, 2, 1, 2)]}]
    raise ValueError(f"no in-process warm-up for {workload!r}")


def setup_job() -> dict:
    """The no-op CLI job whose wall time is cli-mix's set-up time."""
    return {"id": "setup", "kind": "dims", "d": 2, "n": 1,
            "argv": ["dims", "--d", "2", "--n", "1"]}


def ladder_job(metric: str, M: int, seed: int) -> dict:
    cmd, sub, d, n = LADDERS[metric]
    return cli_job((cmd, sub, d, n, M), _rng("ladder", seed, metric, M), f"{metric}-M{M}")


def edge_jobs(seed: int) -> list[dict]:
    return [cli_job(spec, _rng("edge", seed, k), f"edge{k}") for k, spec in enumerate(EDGE_PROBES)]
