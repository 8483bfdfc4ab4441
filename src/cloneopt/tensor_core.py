"""Symmetric-subspace linear algebra.

Occupation-number bases for the Bose subspace of (C^d)^{x N}, the
isometric embedding of the occupation basis into the full tensor space
(the tests' dense oracle: no command builds it), tensor powers of pure
states, single-site marginals, and seeded Haar-random state sampling.

All functions are pure; randomized ones take an explicit seed.  The
occupation basis is ordered reverse-lexicographically everywhere.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import check_limit
from .rep_theory import sym_dimension
from .tolerances import DEFAULT_DENSE_GUARD, STATE_TOL

SYMMETRIC_BASIS = "symmetric-occupation"

__all__ = [
    "SYMMETRIC_BASIS",
    "PureState",
    "occupation_basis",
    "sym_embed",
    "product_power",
    "single_site_marginal",
    "one_body_operator",
    "haar_state",
]


def _basis_dimension(d: int, sites: int, side: int) -> int | str:
    """sym_dimension(d, sites), for comparison with a matrix side.
    d[m] = C(d+m-1, m) >= 2^min(d-1, m), so once that exponent reaches
    side's bit length the dimension exceeds side; it is then returned as
    the text '>= 2**e', and no binomial of the declared sizes is
    computed."""
    exponent = min(d - 1, sites)
    if d >= 2 and exponent >= side.bit_length():
        return f">= 2**{exponent}"
    return sym_dimension(d, sites)


class _OccupationTable:
    """Integer tables of the occupation basis of (C^d)^{x N}, built once per (d, N).

    occ[j] is the j-th occupation vector and sqrt_multinomial[j] is
    sqrt(N! / prod occ[j]!).  The hop arrays list every move of one
    particle from a mode `low` (occupied in column `col`) to a mode
    `high`: it lands on row `row` with amplitude `weight` =
    sqrt(n_low * (n_high - [low == high] + 1)).  Hops run in (low, high,
    col) order; hop_starts[low * d + high] is where each pair begins.
    """

    def __init__(self, d: int, N: int):
        def _gen(slots: int, total: int):
            if slots == 1:
                yield (total,)
                return
            for first in range(total, -1, -1):
                for rest in _gen(slots - 1, total - first):
                    yield (first,) + rest

        self.basis = tuple(_gen(d, N))
        self.occ = np.array(self.basis, dtype=np.int64).reshape(len(self.basis), d)
        self.sqrt_multinomial = np.array([
            math.sqrt(math.factorial(N) / math.prod(math.factorial(k) for k in n))
            for n in self.basis
        ])
        pair_low, pair_high = np.divmod(np.arange(d * d), d)
        pair, self.hop_col = np.nonzero((self.occ[:, pair_low] > 0).T)
        self.hop_low, self.hop_high = pair_low[pair], pair_high[pair]
        moved = self.occ[self.hop_col]
        hop = np.arange(len(self.hop_col))
        moved[hop, self.hop_low] -= 1
        moved[hop, self.hop_high] += 1
        self.hop_row = _rank(moved, N)
        n_low = self.occ[self.hop_col, self.hop_low]
        n_high = self.occ[self.hop_col, self.hop_high] - (self.hop_low == self.hop_high)
        self.hop_weight = np.sqrt(n_low * (n_high + 1))
        self.hop_starts = np.searchsorted(pair, np.arange(d * d))


def _rank(occ: np.ndarray, N: int) -> np.ndarray:
    """Positions of the rows of occ in the reverse-lexicographic basis.

    The vectors before n agree with it on slots 0..k-1 and hold more in
    slot k; with e_k = N - n_0 - ... - n_k particles right of slot k there
    are C(e_k + d - 2 - k, d - 1 - k) of them.  Each count is at most the
    basis size, so no sum overflows.
    """
    d = occ.shape[1]
    ways = np.array([[math.comb(e + d - 2 - k, d - 1 - k) for e in range(N + 1)]
                     for k in range(d - 1)], dtype=np.int64)
    right = N - np.cumsum(occ[:, :-1], axis=1)
    return ways[np.arange(d - 1), right].sum(axis=1)


@functools.lru_cache(maxsize=64)
def _table(d: int, N: int) -> _OccupationTable:
    if d < 2 or N < 0:
        raise ValueError(f"need d >= 2 and N >= 0, got d={d}, N={N}")
    return _OccupationTable(d, N)


def occupation_basis(d: int, N: int) -> list[tuple[int, ...]]:
    """All occupation vectors (n_1,...,n_d) with sum N, reverse-lexicographic."""
    return list(_table(d, N).basis)


@dataclass(frozen=True)
class PureState:
    """Normalized vector in C^d."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1:
            raise ValueError("pure state must be a 1-d amplitude vector")
        if not np.all(np.isfinite(amps)):
            raise ValueError("pure state amplitudes must be finite")
        if abs(np.linalg.norm(amps) - 1.0) > STATE_TOL:
            raise ValueError("pure state amplitudes are not normalized")

    @property
    def d(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def sym_embed(d: int, N: int) -> np.ndarray:
    """Isometry E from the occupation basis into (C^d)^{x N}.

    E*E = 1 and E E* is the orthogonal projection onto the symmetric
    subspace.  The column for occupation n puts amplitude
    sqrt(prod n_i! / N!) on each distinct ordering.  Raises
    DimensionGuardError when d^N exceeds the dense guard.
    """
    check_limit(f"dense construction of dimension d^N = {d}^{N}", d**N, DEFAULT_DENSE_GUARD)
    basis = _table(d, N).basis
    # row r is the word whose letters are the base-d digits of r
    words = np.indices((d,) * N).reshape(N, d**N).T
    counts = np.stack([np.count_nonzero(words == a, axis=1) for a in range(d)], axis=1)
    fact_N = math.factorial(N)
    amps = np.array([
        math.sqrt(math.prod(math.factorial(k) for k in n) / fact_N) for n in basis
    ])
    cols = _rank(counts, N)
    E = np.zeros((d**N, len(basis)), dtype=complex)
    E[np.arange(d**N), cols] = amps[cols]
    return E


def product_power(psi: PureState | np.ndarray, N: int) -> np.ndarray:
    """Coordinates of psi^{x N} in the symmetric occupation basis.

    c_n = sqrt(N! / prod n_i!) * prod psi_i^{n_i}; the result has unit norm.
    Amplitudes of shape (..., d) give coordinates of shape (..., dim).
    """
    amps = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, dtype=complex)
    return _product_powers(amps, N)[0]


def _product_powers(amps: np.ndarray, *orders: int) -> list[np.ndarray]:
    """product_power(amps, N) for each N in orders, all read from one
    table of powers psi_i^k, k <= max(orders).  The table, and so each
    result, takes the dtype of amps: real amplitudes give real
    coordinates.  product_power casts its amplitudes to complex first,
    so its coordinates stay complex.

    The table is a running product, so a table of the largest order
    holds every smaller one: bit for bit, except that numpy rounds the
    one product of a length-2 running product (psi_i^2) as a plain
    multiply and the first product of a longer one otherwise, so order 2
    below a larger order may differ from product_power in the last bit."""
    d, top = amps.shape[-1], max(orders)
    # powers[..., i, k] = psi_i^k for k = 0..top
    powers = np.ones(amps.shape + (top + 1,), dtype=amps.dtype)
    powers[..., 1:] = np.cumprod(np.repeat(amps[..., None], top, axis=-1), axis=-1)
    coords = []
    for N in orders:
        table = _table(d, N)
        terms = powers[..., np.arange(d), table.occ]
        coords.append(table.sqrt_multinomial * np.prod(terms, axis=-1))
    return coords


def one_body_operator(a: np.ndarray, d: int, sites: int) -> np.ndarray:
    """Matrix of sum_k a_(k) (a acting on site k, identity elsewhere) on
    the occupation basis: the second-quantized operator
    sum_ij a_ij b_i^dag b_j restricted to total occupation `sites`.
    """
    a = np.asarray(a, dtype=complex)
    t = _table(d, sites)
    op = np.zeros((len(t.basis),) * 2, dtype=complex)
    np.add.at(op, (t.hop_row, t.hop_col), a[t.hop_high, t.hop_low] * t.hop_weight)
    return op


def single_site_marginal(matrix: np.ndarray, d: int, sites: int) -> np.ndarray:
    """d x d reduced density matrix of one site, the same for every site
    of a symmetric state, from its density matrix on the occupation basis
    of `sites` sites of C^d.  Leading axes of matrix stack density
    matrices and give a stack of marginals.  Raises ValueError when the
    matrix side is not sym_dimension(d, sites), or at sites < 1.
    """
    matrix = np.asarray(matrix, dtype=complex)
    dim = _basis_dimension(d, sites, max(matrix.shape[-2:], default=0))
    if matrix.shape[-2:] != (dim, dim):
        raise ValueError(f"matrix shape {matrix.shape} does not match basis dimension {dim}")
    if sites < 1:
        raise ValueError("a single-site marginal needs at least one site")
    # marg[i, j] = (1/N) tr(rho b_j^dag b_i): annihilate mode i, create mode j
    t = _table(d, sites)
    terms = matrix[..., t.hop_col, t.hop_row] * t.hop_weight
    marg = np.add.reduceat(terms, t.hop_starts, axis=-1) / sites
    return marg.reshape(matrix.shape[:-2] + (d, d))


def haar_state(d: int, seed: int) -> PureState:
    """Haar-distributed pure state in C^d, deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(z / np.linalg.norm(z))
