"""Answers the benchmark checks every job against.

Nothing here imports cloneopt: each expected value comes from a closed
form of the paper or the literature, or from a counting method of this
file's own, so a wrong fast path in the program cannot agree with its
own oracle.  Every check returns an error message, or None when the
answer is right.
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

MATRIX_TOL = 1e-9
OMEGA_TOL = 1e-8
# The sampled suprema may exceed the closed form only by this much
# (the band of the repository's acceptance criterion 04).
BAND_BELOW = 1e-9
BAND_ABOVE = 2e-3


def sym_dim(d: int, n: int) -> int:
    """d[n] = binom(d+n-1, n), the dimension of the n-fold symmetric power."""
    return math.comb(d + n - 1, n)


def shrinking_factor(d: int, N: int, M: int) -> Fraction:
    return Fraction(N, N + d) * Fraction(M + d, M)


def delta_one(d: int, N: int, M: int) -> Fraction:
    return Fraction(d - 1, d) * abs(1 - shrinking_factor(d, N, M))


def overlap(d: int, N: int, M: int) -> Fraction:
    return Fraction(sym_dim(d, N), sym_dim(d, M))


def delta_all(d: int, N: int, M: int) -> Fraction:
    return 2 * (1 - overlap(d, N, M))


def omega_max(d: int, N: int, M: int) -> Fraction:
    return Fraction(M + d, N + d)


def qubit_fidelity(N: int, M: int) -> Fraction:
    """Gisin-Massar single-copy fidelity of the optimal qubit cloner."""
    return Fraction(M * (N + 1) + N, M * (N + 2))


def top_label(d: int, N: int, M: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (M,) + (0,) * (d - 1), (N,) + (0,) * (d - 1)


def _dominant_weights(M: int, d: int, cap: int | None = None):
    """Non-increasing d-tuples of non-negative integers summing to M."""
    cap = M if cap is None else cap
    if d == 1:
        if M <= cap:
            yield (M,)
        return
    for first in range(min(M, cap), -1, -1):
        if first * d < M:
            break
        for rest in _dominant_weights(M - first, d - 1, first):
            yield (first,) + rest


def domain_size(d: int, N: int, M: int) -> int:
    """Number of feasible labels (m, mu), by counting rather than listing.

    For each dominant m, the number of mu is the number of ways to put at
    most N boxes into slots 1..d-1 with caps m_k - m_{k+1}; slot d takes
    the rest.  That count is a bounded-composition convolution.
    """
    total = 0
    for m in _dominant_weights(M, d):
        ways = [1] + [0] * N  # ways[s]: head sums equal to s
        for k in range(d - 1):
            cap = m[k] - m[k + 1]
            prefix = np.cumsum([0] + ways)
            ways = [
                int(prefix[s + 1] - prefix[max(0, s - cap)]) for s in range(N + 1)
            ]
        total += sum(ways)
    return total


def random_feasible_label(rng, d: int, N: int, M: int):
    """A feasible (m, mu) drawn with rng (a random.Random)."""
    cuts = sorted(rng.randint(0, M) for _ in range(d - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [M])]
    m = tuple(sorted(parts, reverse=True))
    caps = [m[k] - m[k + 1] for k in range(d - 1)]
    mu = [0] * d
    for _ in range(N):
        open_slots = [k for k in range(d - 1) if mu[k] < caps[k]] + [d - 1]
        mu[rng.choice(open_slots)] += 1
    return m, tuple(mu)


def su2_spins(m, mu, N: int) -> tuple[Fraction, Fraction, Fraction]:
    """Spins (alpha, beta, gamma) of a qubit label: alpha = (m1-m2)/2,
    beta = ((m1-mu1) - (m2-mu2))/2, gamma = N/2."""
    alpha = Fraction(m[0] - m[1], 2)
    beta = Fraction((m[0] - mu[0]) - (m[1] - mu[1]), 2)
    return alpha, beta, Fraction(N, 2)


def occupation_vectors(d: int, n: int) -> list[tuple[int, ...]]:
    """All (n_1..n_d) summing to n, in descending lexicographic order."""
    vecs = []
    for bars in itertools.combinations(range(n + d - 1), d - 1):
        edges = (-1,) + bars + (n + d - 1,)
        vecs.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(d)))
    return sorted(vecs, reverse=True)


def power_in_occupation_basis(psi: np.ndarray, n: int) -> np.ndarray:
    """Coordinates of psi^{x n} in the symmetric occupation basis."""
    out = []
    for occ in occupation_vectors(len(psi), n):
        multinom = math.factorial(n)
        amp = 1.0 + 0j
        for k, c in enumerate(occ):
            multinom //= math.factorial(c)
            amp *= psi[k] ** c
        out.append(math.sqrt(multinom) * amp)
    return np.array(out)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _matrix(obj) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["entries"]])
    return flat.reshape(int(obj["rows"]), int(obj["cols"]))


def _pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _state(job) -> np.ndarray:
    return np.array([complex(re, im) for re, im in job["state"]])


def _marginal_error(marg: np.ndarray, psi: np.ndarray, d, N, M) -> str | None:
    g = float(shrinking_factor(d, N, M))
    expected = g * np.outer(psi, psi.conj()) + (1 - g) / d * np.eye(d)
    err = float(np.max(np.abs(marg - expected)))
    if err > MATRIX_TOL:
        return f"marginal differs from gamma|psi><psi| + (1-gamma)/d by {err:.3g}"
    if d == 2:
        fid = float(np.real(psi.conj() @ marg @ psi))
        want = float(qubit_fidelity(N, M))
        if abs(fid - want) > MATRIX_TOL:
            return f"qubit fidelity {fid!r} != (M(N+1)+N)/(M(N+2)) = {want!r}"
    return None


def in_band(value: float, closed: Fraction, name: str) -> str | None:
    lo, hi = float(closed) - BAND_BELOW, float(closed) + BAND_ABOVE
    if not lo <= value <= hi:
        return f"{name} {value!r} outside [{lo!r}, {hi!r}]"
    return None


def check_cli(job: dict, stdout: str) -> str | None:
    """Check the JSON a successful CLI job printed."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    kind, d, N, M = job["kind"], job.get("d"), job.get("n"), job.get("m")
    try:
        if kind == "dims":
            ok = out["sym_dimension"] == sym_dim(d, N)
            return None if ok else f"sym_dimension {out['sym_dimension']} != {sym_dim(d, N)}"
        if kind == "cloner marginal":
            return _marginal_error(_matrix(out["marginal"]), _state(job), d, N, M)
        if kind == "cloner overlap":
            if out["expected"] != _pair(overlap(d, N, M)):
                return f"expected {out['expected']} != d[N]/d[M]"
            if abs(out["overlap"] - float(overlap(d, N, M))) > MATRIX_TOL:
                return f"overlap {out['overlap']!r} != d[N]/d[M] = {float(overlap(d, N, M))!r}"
            return None
        if kind == "cloner apply":
            rho = _matrix(out["output"])
            if rho.shape != (sym_dim(d, M),) * 2:
                return f"output shape {rho.shape} != d[M] = {sym_dim(d, M)}"
            if float(np.max(np.abs(rho - rho.conj().T))) > MATRIX_TOL:
                return "output is not Hermitian"
            if abs(np.trace(rho) - 1) > MATRIX_TOL:
                return f"output trace {np.trace(rho)!r} != 1"
            if float(np.min(np.linalg.eigvalsh(rho))) < -MATRIX_TOL:
                return "output is not positive"
            v = power_in_occupation_basis(_state(job), M)
            fid = float(np.real(v.conj() @ rho @ v))
            if abs(fid - float(overlap(d, N, M))) > MATRIX_TOL:
                return f"<psi^M|out|psi^M> = {fid!r} != d[N]/d[M]"
            return None
        if kind == "channel omega":
            want = omega_max(d, N, M)
            if out["omega_max"] != _pair(want):
                return f"omega_max {out['omega_max']} != (M+d)/(N+d)"
            if abs(out["omega"] - float(want)) > OMEGA_TOL * float(want):
                return f"measured omega {out['omega']!r} != (M+d)/(N+d) = {float(want)!r}"
            return None
        if kind == "channel delta-one":
            return in_band(out["estimate"], delta_one(d, N, M), "delta_one")
        if kind == "omega max":
            return check_omega_report(
                d, N, M,
                omega=Fraction(*out["omega_max"]),
                maximizers=[(tuple(p["m"]), tuple(p["mu"])) for p in out["maximizers"]],
                count=out["count_enumerated"],
                delta=Fraction(*out["delta_one"]),
            )
        if kind == "verify all":
            if not out["ok"] or out["failures"]:
                return f"verify all reports failures {out['failures']}"
            return None
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    return f"no oracle for job kind {kind!r}"


def check_omega_report(d, N, M, omega, maximizers, count, delta=None) -> str | None:
    if omega != omega_max(d, N, M):
        return f"omega_max {omega} != (M+d)/(N+d) = {omega_max(d, N, M)}"
    if maximizers != [top_label(d, N, M)]:
        return f"maximizers {maximizers} != unique top label {top_label(d, N, M)}"
    want = domain_size(d, N, M)
    if count != want:
        return f"count_enumerated {count} != domain size {want}"
    if delta is not None and delta != delta_one(d, N, M):
        return f"delta_one {delta} != closed form {delta_one(d, N, M)}"
    return None
