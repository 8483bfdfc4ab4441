"""A fixed unit of work that tracks how fast the machine runs right now.

    python3 perfbench/calibrate.py     # one child unit: CHILD_UNITS units, then exit

A shared VM's speed drifts by tens of percent over minutes, so two runs
of the same code a few minutes apart can read 40% apart.  The benchmark
times this work between jobs and divides every reported time by how
much slower than a reference the work ran in the same run: times are
reported in seconds on a machine on which the work takes its reference
time.  The work imports nothing from cloneopt, so a change to the
program cannot change it.  It takes the form of what it calibrates:
`unit` runs in the process that times in-process jobs, interpreted
Python and numpy calls on small arrays as those jobs do; `child_unit`
is a fresh interpreter that imports numpy and runs a few units, as a
CLI job or a set-up process starts an interpreter and imports
cloneopt's numpy before it computes.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Times on a shared 2-core x86-64 VM (Python 3.11.7, numpy 2.4.6) in a
# calm period.  Any fixed values would do; these keep reported times
# close to the raw ones on that machine.
REFERENCE_S = 0.0035
CHILD_REFERENCE_S = 0.25
CHILD_UNITS = 10

_RNG = np.random.default_rng(20260101)
_A = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_H = _A + _A.conj().T
_V = _RNG.standard_normal(6) + 1j * _RNG.standard_normal(6)


def unit() -> float:
    """Run the unit once in this process and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(96):
        w = np.linalg.eigvalsh(_H + i * 1e-3 * np.eye(6))
        x = np.abs(_H @ _V) ** 2
        acc += float(w[0]) + float(x.sum())
        acc += sum((i * j) % 7 for j in range(40))
        basis = [(k, i) for k in range(24) if (k + i) % 3]
        acc += len({p: p[0] * p[1] for p in basis})
    return time.perf_counter() - start


def child_unit(env: dict[str, str]) -> float:
    """Run this file as a fresh process and return its wall time in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__], env=env, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True, timeout=60)
    return time.perf_counter() - start


def speed(samples: list[float], reference: float) -> float:
    """How much slower than the reference the work ran (above 1: slower).

    The mean, not the median: work preempted by the host is slowed as a
    job is, and the jobs' figures carry that share of preempted time.
    """
    return statistics.fmean(samples) / reference


if __name__ == "__main__":
    for _ in range(CHILD_UNITS):
        unit()
