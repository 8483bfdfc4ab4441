"""Run one child process under its own CPU-time and address-space caps.

The caps are set with setrlimit in the child between fork and exec, so
they bound that child only.  The parent reaps the child with os.wait4,
which returns the child's own peak RSS.  A wall-clock alarm in the
parent is a backstop for a child that stalls without using CPU.
"""
from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Every child runs single-threaded BLAS, so timings do not depend on how
# many cores the machine lends the run.
BLAS_THREADS = "1"
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(args: list[str]) -> list[str]:
    """Command line of one `cloneopt` invocation from this checkout."""
    return [sys.executable, "-m", "cloneopt.cli", *args]


@dataclass
class ChildResult:
    code: int | None  # exit code; None when killed by a signal
    signal: int | None
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    timed_out: bool

    @property
    def outcome(self) -> str:
        """One of ok, exit3, timeout, crash, or exit<N> for other codes."""
        if self.timed_out or self.signal in (signal.SIGXCPU, signal.SIGKILL):
            return "timeout"
        if self.signal is not None or (self.code == 1 and "Traceback" in self.stderr):
            return "crash"
        if self.code == 0:
            return "ok"
        return f"exit{self.code}"


def run_child(argv: list[str], cpu_s: int, mem_mb: int, wall_s: float) -> ChildResult:
    """Run argv to completion under the given caps and collect its output."""
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f".child.{os.getpid()}.stdout"
    err_path = OUT / f".child.{os.getpid()}.stderr"
    limit = mem_mb << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 1))
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    killed = []

    def on_alarm(signum, frame):
        killed.append(True)
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended as the alarm fired
            pass

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=child_env(), cwd=ROOT, preexec_fn=cap,
            )
            signal.setitimer(signal.ITIMER_REAL, wall_s)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        out_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)
    code = proc.returncode
    return ChildResult(
        code=code if code >= 0 else None,
        signal=-code if code < 0 else None,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
        timed_out=bool(killed),
    )
