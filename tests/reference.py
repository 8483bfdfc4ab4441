"""Test-only oracles and helpers: reference constructions the tests
compare the package against, and subjects and inputs they build.  None
of this is reached by the CLI, the demos or the benchmark."""
from __future__ import annotations

import numpy as np

from cloneopt.cloner import Channel, ClonerSpec
from cloneopt.omega_opt import CandidatePoint, _label_blocks
from cloneopt.rep_theory import check_dominant, pieri_branch
from cloneopt.tensor_core import _table, check_dense_guard, sym_dimension, sym_embed


# --- highest weights -------------------------------------------------------


def conjugate_weight(m: tuple[int, ...]) -> tuple[int, ...]:
    """Highest weight (-m_d, ..., -m_1) of the conjugate representation."""
    m = check_dominant(m)
    return tuple(-x for x in reversed(m))


def normalize_weight(m: tuple[int, ...]) -> tuple[int, ...]:
    """Shift so that the last component is zero (SU(d) normalization)."""
    m = check_dominant(m)
    return tuple(x - m[-1] for x in m)


def normalized_conjugate(m: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate weight shifted to the m_d = 0 normalization."""
    return normalize_weight(conjugate_weight(m))


def contains_sym(m: tuple[int, ...], n: tuple[int, ...], N: int) -> bool:
    """Whether the N-fold symmetric power is contained in pi_m x pi_n.

    Decided via the equivalence with pi_m contained in
    (symmetric power) x conj(pi_n), checked by Pieri branching.
    """
    m = check_dominant(m)
    n = check_dominant(n)
    if len(m) != len(n):
        raise ValueError("weights must have equal length")
    return m in pieri_branch(N, conjugate_weight(n))


# --- occupation bases and dense oracles ------------------------------------


def occupation_index(d: int, N: int) -> dict[tuple[int, ...], int]:
    """Map occupation vector -> position in occupation_basis(d, N)."""
    return {n: j for j, n in enumerate(_table(d, N).basis)}


def symmetrizer(d: int, M: int) -> np.ndarray:
    """Orthogonal projection of (C^d)^{x M} onto its symmetric subspace."""
    E = sym_embed(d, M)
    return E @ E.conj().T


def dense_cloner_output(spec: ClonerSpec, rho_sym: np.ndarray) -> np.ndarray:
    """Oracle: (d[N]/d[M]) S_M (rho x 1) S_M, compressed back to the
    occupation basis of the output.  Requires d**M within the dense guard."""
    d, N, M = spec.d, spec.n_in, spec.m_out
    check_dense_guard(d, M)
    E_n = sym_embed(d, N)
    E_m = sym_embed(d, M)
    S_m = E_m @ E_m.conj().T
    rho_full = E_n @ np.asarray(rho_sym, dtype=complex) @ E_n.conj().T
    big = np.kron(rho_full, np.eye(d ** (M - N)))
    out_full = (sym_dimension(d, N) / sym_dimension(d, M)) * (S_m @ big @ S_m)
    return E_m.conj().T @ out_full @ E_m


# --- test subjects and inputs ----------------------------------------------


def constant_output_channel(d: int, N: int, M: int) -> Channel:
    """Channel mapping every input to the first occupation basis state of
    the output; a deliberately non-covariant test subject."""
    in_dim = sym_dimension(d, N)
    kraus = np.zeros((in_dim, sym_dimension(d, M), in_dim), dtype=complex)
    kraus[np.arange(in_dim), 0, np.arange(in_dim)] = 1.0
    return Channel(kraus=kraus, d=d, n_in=N, m_out=M)


def random_feasible_point(d: int, N: int, M: int, seed: int) -> CandidatePoint:
    """A uniformly sampled feasible pair (m, mu), for greedy-start tests:
    the label at index default_rng(seed).integers(count) of the
    enumeration order."""
    rng = np.random.default_rng(seed)
    blocks = list(_label_blocks(d, N, M))
    index = int(rng.integers(sum(len(mu) for _, mu in blocks)))
    for m, mu in blocks:
        if index < len(mu):
            return CandidatePoint(m, tuple(mu[index].tolist()))
        index -= len(mu)
