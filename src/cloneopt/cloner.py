"""The optimal universal cloning channel and its closed-form constants.

The optimal cloner maps a state rho on the N-fold symmetric input space
to (d[N]/d[M]) S_M (rho x 1) S_M on the M-fold output space.  It is
constructed here directly in the occupation bases (fast path); the dense
full-tensor construction is kept as an oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionGuardError
from .tensor_core import (
    FULL_BASIS,
    SYMMETRIC_BASIS,
    DensityOperator,
    PureState,
    check_dense_guard,
    haar_state,
    occupation_basis,
    occupation_index,
    product_power,
    single_site_marginal,
    sym_dimension,
    sym_embed,
    symmetrizer,
)
from .tolerances import KRAUS_ENTRY_GUARD, STRUCTURAL_TOL

__all__ = [
    "ClonerSpec",
    "Channel",
    "optimal_cloner",
    "dense_cloner_output",
    "shrinking_factor",
    "delta_one_closed_form",
    "single_clone_marginal",
    "all_clone_overlap",
    "delta_all_numeric",
    "refine_supremum",
]


@dataclass(frozen=True)
class ClonerSpec:
    """Problem sizes: d-level systems, N inputs, M >= N outputs."""

    d: int
    n_in: int
    m_out: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.n_in < 1:
            raise ValueError("N must be >= 1")
        if self.m_out < self.n_in:
            raise ValueError("M must be >= N")


@dataclass
class Channel:
    """Completely positive trace-preserving map in Kraus form.

    Each Kraus operator is out_dim x in_dim.  Basis tags name the input
    and output bases (symmetric-occupation or full-tensor); dims carry
    (d, N, M).
    """

    kraus: list[np.ndarray]
    d: int
    n_in: int
    m_out: int
    basis_in: str = SYMMETRIC_BASIS
    basis_out: str = SYMMETRIC_BASIS

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """State map: sum_r K_r rho K_r^*, broadcast over leading axes of rho."""
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros(rho.shape[:-2] + (self.out_dim, self.out_dim), dtype=complex)
        for K in self.kraus:
            out += K @ rho @ K.conj().T
        return out

    # The samplers call the state map by this name, under which
    # perfbench/spans.py counts their evaluations.
    apply_fast = apply

    def apply_observable(self, A: np.ndarray) -> np.ndarray:
        """Heisenberg-picture map on observables: sum_r K_r^* A K_r."""
        A = np.asarray(A, dtype=complex)
        out = np.zeros((self.in_dim, self.in_dim), dtype=complex)
        for K in self.kraus:
            out += K.conj().T @ A @ K
        return out

    def completeness_defect(self) -> float:
        """Operator-norm distance of sum K^*K from the identity."""
        acc = np.zeros((self.in_dim, self.in_dim), dtype=complex)
        for K in self.kraus:
            acc += K.conj().T @ K
        return float(
            np.max(np.abs(np.linalg.eigvalsh(acc - np.eye(self.in_dim))))
        )

    def to_full_output(self, guard: int | None = None) -> "Channel":
        """Expand a symmetric-occupation output basis to the full tensor basis."""
        if self.basis_out == FULL_BASIS:
            return self
        E = sym_embed(self.d, self.m_out, guard)
        return Channel(
            kraus=[E @ K for K in self.kraus],
            d=self.d,
            n_in=self.n_in,
            m_out=self.m_out,
            basis_in=self.basis_in,
            basis_out=FULL_BASIS,
        )


def optimal_cloner(spec: ClonerSpec) -> Channel:
    """The optimal N -> M cloner in occupation bases (fast path).

    One Kraus operator per occupation vector c of the M-N appended sites,
    binom(d+M-N-1, M-N) in all: the d^(M-N) product-basis operators whose
    words have letter counts c coincide, and merge into one weighted by
    sqrt((M-N)!/prod c_i!).  Raises DimensionGuardError, before building
    anything, when the operators would hold more than KRAUS_ENTRY_GUARD
    entries.
    """
    d, N, M = spec.d, spec.n_in, spec.m_out
    dim_n, dim_m = sym_dimension(d, N), sym_dimension(d, M)
    entries = sym_dimension(d, M - N) * dim_m * dim_n
    if entries > KRAUS_ENTRY_GUARD:
        raise DimensionGuardError(
            f"optimal cloner for (d, N, M) = ({d}, {N}, {M}) needs {entries} "
            f"Kraus entries, above the guard {KRAUS_ENTRY_GUARD}"
        )
    basis_n = occupation_basis(d, N)
    index_m = occupation_index(d, M)
    # squared entry: (d[N]/d[M]) prod_i binom(m_i, n_i) / binom(M, N)
    coeff = dim_n / (dim_m * math.comb(M, N))
    kraus = []
    for c in occupation_basis(d, M - N):
        K = np.zeros((dim_m, dim_n), dtype=complex)
        for col, n in enumerate(basis_n):
            m = tuple(a + b for a, b in zip(n, c))
            K[index_m[m], col] = math.sqrt(coeff * math.prod(map(math.comb, m, n)))
        kraus.append(K)
    return Channel(kraus=kraus, d=d, n_in=N, m_out=M)


def dense_cloner_output(
    spec: ClonerSpec, rho_sym: np.ndarray, guard: int | None = None
) -> np.ndarray:
    """Oracle: (d[N]/d[M]) S_M (rho x 1) S_M, compressed back to the
    occupation basis of the output.  Requires d**M within the guard."""
    d, N, M = spec.d, spec.n_in, spec.m_out
    check_dense_guard(d, M, guard)
    E_n = sym_embed(d, N, guard)
    E_m = sym_embed(d, M, guard)
    S_m = symmetrizer(d, M, guard)
    rho_full = E_n @ np.asarray(rho_sym, dtype=complex) @ E_n.conj().T
    big = np.kron(rho_full, np.eye(d ** (M - N)))
    out_full = (sym_dimension(d, N) / sym_dimension(d, M)) * (S_m @ big @ S_m)
    return E_m.conj().T @ out_full @ E_m


def shrinking_factor(spec: ClonerSpec) -> Fraction:
    """Exact shrinking factor N/(N+d) * (M+d)/M of the optimal cloner."""
    d, N, M = spec.d, spec.n_in, spec.m_out
    if M == 0:
        raise ValueError("M must be positive")
    return Fraction(N, N + d) * Fraction(M + d, M)


def delta_one_closed_form(spec: ClonerSpec) -> Fraction:
    """Exact single-clone error (d-1)/d * |1 - shrinking factor|."""
    gamma = shrinking_factor(spec)
    return Fraction(spec.d - 1, spec.d) * abs(1 - gamma)


def single_clone_marginal(spec: ClonerSpec, psi: PureState) -> np.ndarray:
    """One-site output marginal of the optimal cloner on psi^{x N}.

    Equals gamma |psi><psi| + (1 - gamma)/d within structural tolerance.
    """
    channel = optimal_cloner(spec)
    v = product_power(psi, spec.n_in)
    rho_out = channel.apply(np.outer(v, v.conj()))
    dens = DensityOperator(rho_out, SYMMETRIC_BASIS, spec.d, spec.m_out)
    return single_site_marginal(dens)


def all_clone_overlap(spec: ClonerSpec, psi: PureState) -> float:
    """tr(sigma^{x M} T(sigma^{x N})): equals d[N]/d[M] for every psi."""
    channel = optimal_cloner(spec)
    v_in = product_power(psi, spec.n_in)
    v_out = product_power(psi, spec.m_out)
    rho_out = channel.apply(np.outer(v_in, v_in.conj()))
    return float(np.real(v_out.conj() @ rho_out @ v_out))


# Sampled states evaluated per batch: large enough to amortize the numpy
# calls, small enough that the stacked output states stay small.
_CHUNK = 16


def refine_supremum(values, starts: np.ndarray, seeds: list[int], iters: int = 20) -> np.ndarray:
    """Gradient-free local refinement: from each start, random perturbations
    with a shrinking step, keeping the best value seen.  The chains run in
    lockstep, one values() call per step; chain c draws from
    default_rng(seeds[c]), so it takes the steps it would take alone.
    values maps amplitudes (B, d) to B values; returns each chain's best."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    best_psi = np.array(starts, dtype=complex)
    best = values(best_psi)
    step = np.full(len(rngs), 0.3)
    d = best_psi.shape[1]
    for _ in range(iters):
        z = np.array([rng.normal(size=d) + 1j * rng.normal(size=d) for rng in rngs])
        cand = best_psi + step[:, None] * z
        for row in cand:
            row /= np.linalg.norm(row)
        val = values(cand)
        better = val > best
        best = np.where(better, val, best)
        best_psi[better] = cand[better]
        step = np.where(better, step, step * 0.7)
    return best


def _sampled_supremum(values, d: int, samples: int, seed: int, refine_seed: int) -> float:
    """Max of 0 and values() over Haar states of C^d seeded by hash((seed, i)),
    evaluated _CHUNK states per call; the five best (ties in sample order)
    are refined in lockstep from seeds refine_seed + rank.  values maps
    amplitudes (B, d) to B values."""
    if samples <= 0:
        return 0.0
    states = np.array(
        [haar_state(d, hash((seed, i)) & 0xFFFFFFFF).amplitudes for i in range(samples)]
    )
    scores = np.concatenate(
        [values(states[k:k + _CHUNK]) for k in range(0, samples, _CHUNK)]
    )
    top = np.argsort(-scores, kind="stable")[:5]
    refined = refine_supremum(values, states[top], [refine_seed + r for r in range(len(top))])
    return float(max(0.0, scores.max(), refined.max()))


def delta_all_numeric(
    spec: ClonerSpec, samples: int = 500, seed: int = 0
) -> float:
    """Sampled supremum of || T(sigma^N) - sigma^M ||_1 over pure sigma.

    Covariance of the optimal cloner makes the objective state
    independent, so sampling is confirmation rather than search; the top
    candidates are still refined locally.
    """
    channel = optimal_cloner(spec)

    def values(amps: np.ndarray) -> np.ndarray:
        v_in = product_power(amps, spec.n_in)
        v_out = product_power(amps, spec.m_out)
        diff = channel.apply_fast(v_in[..., :, None] * v_in.conj()[..., None, :])
        diff -= v_out[..., :, None] * v_out.conj()[..., None, :]
        return np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)

    return _sampled_supremum(values, spec.d, samples, seed, refine_seed=seed + 1000)
