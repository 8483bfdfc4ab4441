"""Test-only oracles and helpers: reference constructions the tests
compare the package against, and subjects and inputs they build.  None
of this is reached by the CLI, the demos or the benchmark."""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from cloneopt.cloner import Channel, ClonerSpec
from cloneopt.errors import check_limit
from cloneopt.omega_opt import CandidatePoint, _label_blocks
from cloneopt.rep_theory import check_dominant, is_dominant, pieri_branch, sym_dimension
from cloneopt.tensor_core import _table, sym_embed
from cloneopt.tolerances import DEFAULT_DENSE_GUARD


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


@functools.lru_cache(maxsize=None)
def box_removal_multiplicity(m: tuple[int, ...]) -> int:
    """Multiplicity of pi_m in the sum(m)-fold tensor power of the
    defining rep by the box-removal recurrence: the oracle of the
    hook-length formula in fund_power_multiplicity.  Zero on tuples that
    are not dominant or have a negative entry."""
    if any(x < 0 for x in m) or not is_dominant(m):
        return 0
    if all(x == 0 for x in m):
        return 1
    return sum(
        box_removal_multiplicity(m[:j] + (m[j] - 1,) + m[j + 1 :]) for j in range(len(m))
    )


# --- occupation bases and dense oracles ------------------------------------


def occupation_index(d: int, N: int) -> dict[tuple[int, ...], int]:
    """Map occupation vector -> position in occupation_basis(d, N)."""
    return {n: j for j, n in enumerate(_table(d, N).basis)}


def symmetrizer(d: int, M: int) -> np.ndarray:
    """Orthogonal projection of (C^d)^{x M} onto its symmetric subspace."""
    E = sym_embed(d, M)
    return E @ E.conj().T


def transposed_full_marginal(matrix, d, N, site):
    """Oracle: the one-site marginal of a d^N x d^N matrix on the full
    tensor space; move the kept site to the front, then trace out the rest."""
    t = matrix.reshape((d,) * (2 * N))
    rows = [site] + [k for k in range(N) if k != site]
    cols = [N + site] + [N + k for k in range(N) if k != site]
    t = np.transpose(t, axes=rows + cols).reshape(d, d ** (N - 1), d, d ** (N - 1))
    return np.einsum("iaja->ij", t)


def spin_embedding(alpha: Fraction, M: int) -> np.ndarray:
    """Isometry from spin alpha into the M-fold qubit tensor product.

    Representative copy: the first 2*alpha sites carry the symmetric
    (highest-spin) block, the remaining sites are paired into singlets.
    Column k is |alpha, alpha - k>, the occupation-basis (Dicke) column
    of 2*alpha sites with k spins down.  Requires M - 2*alpha even and
    non-negative; raises DimensionGuardError when 2^M exceeds the dense
    guard.
    """
    alpha = Fraction(alpha)
    two_alpha = int(2 * alpha)
    if two_alpha > M or (M - two_alpha) % 2 != 0:
        raise ValueError(
            f"spin {alpha} does not embed into {M} qubits (parity/size mismatch)"
        )
    check_limit(f"dense construction of dimension 2^M = 2^{M}", 2**M, DEFAULT_DENSE_GUARD)
    singlets = np.ones(1, dtype=complex)
    for _ in range((M - two_alpha) // 2):
        singlets = np.kron(singlets, np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))
    return np.kron(sym_embed(2, two_alpha), singlets[:, None])


def dense_cloner_output(spec: ClonerSpec, rho_sym: np.ndarray) -> np.ndarray:
    """Oracle: (d[N]/d[M]) S_M (rho x 1) S_M, compressed back to the
    occupation basis of the output.  Requires d**M within the dense guard."""
    d, N, M = spec.d, spec.n_in, spec.m_out
    check_limit(f"dense construction of dimension d^M = {d}^{M}", d**M, DEFAULT_DENSE_GUARD)
    E_n = sym_embed(d, N)
    E_m = sym_embed(d, M)
    S_m = E_m @ E_m.conj().T
    rho_full = E_n @ np.asarray(rho_sym, dtype=complex) @ E_n.conj().T
    big = np.kron(rho_full, np.eye(d ** (M - N)))
    out_full = (sym_dimension(d, N) / sym_dimension(d, M)) * (S_m @ big @ S_m)
    return E_m.conj().T @ out_full @ E_m


# --- the single-clone law of the optimal cloner, exact -------------------


def occupations(d: int, N: int):
    """The occupation vectors of N sites over d levels, as tuples, in pure
    Python: the gaps between d - 1 bars placed among N + d - 1 slots."""
    for bars in itertools.combinations(range(N + d - 1), d - 1):
        edges = (-1,) + bars + (N + d - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def squared_kraus_weights(d: int, N: int, M: int):
    """The optimal cloner's squared entries, exact: (coeff, rows), where
    rows yields, per input occupation n, the triples (c, m, W) over the
    occupations c of the M - N blank sites, with m = n + c and the int
    W = prod_k binom(m_k, n_k).  The entry that maps n to m squares to
    q_c(n) = coeff * W, coeff = d[N]/(d[M] binom(M, N))."""
    coeff = Fraction(sym_dimension(d, N), sym_dimension(d, M) * math.comb(M, N))
    blanks = list(occupations(d, M - N))

    def rows():
        for n in occupations(d, N):
            ms = [(c, tuple(nk + ck for nk, ck in zip(n, c))) for c in blanks]
            yield n, [(c, m, math.prod(map(math.comb, m, n))) for c, m in ms]

    return coeff, rows()


def single_clone_law_violations(d: int, N: int, M: int) -> list[tuple]:
    """The identities T^*(dGamma_M(X)) = omega dGamma_N(X), omega =
    (M+d)/(N+d), on the generators X of su(d), for the optimal cloner's
    squared entries q_c(n), with m = n + c, per input occupation n:

    - trace preservation: sum_c q_c(n) = 1;
    - each hop E_ji (i != j, n_i >= 1): sum_c q_c(n) (m_j + 1)/(n_j + 1)
      = omega, the ratio of <n'|T^*(dGamma_M(E_ji))|n> to
      <n'|dGamma_N(E_ji)|n> with n' = n - e_i + e_j.  It does not depend
      on i, so it is checked once per j that some hop reaches;
    - each Cartan generator E_ii - E_(i+1)(i+1): sum_c q_c(n)
      (m_i - m_(i+1)) = omega (n_i - n_(i+1)).

    Together they give the single-clone law with gamma = omega N/M for
    every pure input.  The sums are taken over the ints W of
    squared_kraus_weights and scaled by its coeff, all in ints and
    Fractions.  Returns (n, identity, value, expected) for each identity
    that fails: an empty list when the law holds."""
    omega = Fraction(M + d, N + d)
    coeff, rows = squared_kraus_weights(d, N, M)
    failed = []
    for n, terms in rows:
        identities = [("trace", coeff * sum(w for _, _, w in terms), 1)]
        identities += [
            (f"hop to {j}", coeff * sum(w * (m[j] + 1) for _, m, w in terms) / (n[j] + 1), omega)
            for j in range(d) if n[j] < N
        ]
        identities += [
            (f"cartan {i}", coeff * sum(w * (m[i] - m[i + 1]) for _, m, w in terms),
             omega * (n[i] - n[i + 1]))
            for i in range(d - 1)
        ]
        failed += [(n, name, value, expected) for name, value, expected in identities
                   if value != expected]
    return failed


# --- test subjects and inputs ----------------------------------------------


def constant_output_channel(d: int, N: int, M: int) -> Channel:
    """Channel mapping every input to the first occupation basis state of
    the output; a deliberately non-covariant test subject."""
    in_dim = sym_dimension(d, N)
    kraus = np.zeros((in_dim, sym_dimension(d, M), in_dim), dtype=complex)
    kraus[np.arange(in_dim), 0, np.arange(in_dim)] = 1.0
    return Channel(kraus=kraus, d=d, n_in=N, m_out=M)


def recursive_partitions(M: int, d: int):
    """Oracle of omega_opt._partitions: the dominant tuples of d
    non-negative integers summing to M in reverse lexicographic order,
    one recursive generator per slot."""

    def _gen(slots, total, cap):
        if slots == 1:
            if total <= cap:
                yield (total,)
            return
        lo = -(-total // slots)  # ceil: keep dominance feasible
        for first in range(min(total, cap), lo - 1, -1):
            for rest in _gen(slots - 1, total - first, first):
                yield (first,) + rest

    yield from _gen(d, M, M)


@functools.lru_cache(maxsize=None)
def _feasible_blocks(d: int, N: int, M: int) -> tuple[tuple, int]:
    """The label blocks of the enumeration of (d, N, M), listed once, and
    the number of labels they hold."""
    blocks = tuple(_label_blocks(d, N, M))
    return blocks, sum(len(mu) for _, mu in blocks)


def random_feasible_point(d: int, N: int, M: int, seed: int) -> CandidatePoint:
    """A uniformly sampled feasible pair (m, mu), for greedy-start tests:
    the label at index default_rng(seed).integers(count) of the
    enumeration order."""
    rng = np.random.default_rng(seed)
    blocks, count = _feasible_blocks(d, N, M)
    index = int(rng.integers(count))
    for m, mu in blocks:
        if index < len(mu):
            return CandidatePoint(m, tuple(mu[index].tolist()))
        index -= len(mu)
