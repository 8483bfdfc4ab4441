"""The optimal universal cloning channel and its closed-form constants.

The optimal cloner maps a state rho on the N-fold symmetric input space
to (d[N]/d[M]) S_M (rho x 1) S_M on the M-fold output space.  It is
constructed here directly in the occupation bases (fast path); the dense
full-tensor construction is kept as an oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import DimensionGuardError
from .omega_opt import delta_one_from_gamma
from .tensor_core import (
    FULL_BASIS,
    SYMMETRIC_BASIS,
    DensityOperator,
    PureState,
    check_dense_guard,
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

    kraus is one C-contiguous complex array of shape (R, out_dim, in_dim),
    operator r at kraus[r]; a sequence of equal-shape matrices is stacked
    into it once, on construction, and ragged, empty or non-3-D input
    raises ValueError.  Basis tags name the input and output bases
    (symmetric-occupation or full-tensor); dims carry (d, N, M).
    """

    kraus: np.ndarray
    d: int
    n_in: int
    m_out: int
    basis_in: str = SYMMETRIC_BASIS
    basis_out: str = SYMMETRIC_BASIS

    def __post_init__(self):
        self.kraus = np.ascontiguousarray(self.kraus, dtype=complex)  # ragged: ValueError
        if self.kraus.ndim != 3 or self.kraus.shape[0] == 0:
            raise ValueError(
                "Kraus operators must form a non-empty (R, out_dim, in_dim) stack, "
                f"got shape {self.kraus.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[2]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[1]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """State map: sum_r K_r rho K_r^*, broadcast over leading axes of rho."""
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros(rho.shape[:-2] + (self.out_dim, self.out_dim), dtype=complex)
        for K in self.kraus:
            out += K @ rho @ K.conj().T
        return out

    def kraus_images(self, v: np.ndarray) -> np.ndarray:
        """The images K_r v, stacked (..., R, out_dim), of vectors v of
        shape (..., in_dim): one product with the Kraus stack viewed as
        (R*out_dim, in_dim)."""
        v = np.asarray(v, dtype=complex)
        w = v @ self.kraus.reshape(-1, self.in_dim).T
        return w.reshape(v.shape[:-1] + (len(self.kraus), self.out_dim))

    def apply_fast(self, v: np.ndarray) -> np.ndarray:
        """State map on pure inputs: sum_r (K_r v)(K_r v)^*, which equals
        apply(v v^*), for vectors v of shape (..., in_dim).  Built on
        kraus_images, so the work per state is R(out*in + out^2)
        multiply-adds instead of R(out*in^2 + out^2*in)."""
        w = self.kraus_images(v)
        return np.swapaxes(w, -1, -2) @ w.conj()

    def apply_observable(self, A: np.ndarray) -> np.ndarray:
        """Heisenberg-picture map on observables: sum_r K_r^* A K_r."""
        A = np.asarray(A, dtype=complex)
        out = np.zeros((self.in_dim, self.in_dim), dtype=complex)
        for K in self.kraus:
            out += K.conj().T @ A @ K
        return out

    def completeness_defect(self) -> float:
        """Operator-norm distance of sum K^*K = F^*F from the identity,
        F the Kraus stack viewed as (R*out_dim, in_dim)."""
        F = self.kraus.reshape(-1, self.in_dim)
        return float(
            np.max(np.abs(np.linalg.eigvalsh(F.conj().T @ F - np.eye(self.in_dim))))
        )

    def to_full_output(self, guard: int | None = None) -> "Channel":
        """Expand a symmetric-occupation output basis to the full tensor basis."""
        if self.basis_out == FULL_BASIS:
            return self
        E = sym_embed(self.d, self.m_out, guard)
        return replace(self, kraus=E @ self.kraus, basis_out=FULL_BASIS)


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
    count = sym_dimension(d, M - N)
    entries = count * dim_m * dim_n
    if entries > KRAUS_ENTRY_GUARD:
        raise DimensionGuardError(
            f"optimal cloner for (d, N, M) = ({d}, {N}, {M}) needs {entries} "
            f"Kraus entries, above the guard {KRAUS_ENTRY_GUARD}"
        )
    basis_n = occupation_basis(d, N)
    index_m = occupation_index(d, M)
    # squared entry: (d[N]/d[M]) prod_i binom(m_i, n_i) / binom(M, N)
    coeff = dim_n / (dim_m * math.comb(M, N))
    kraus = np.zeros((count, dim_m, dim_n), dtype=complex)
    for K, c in zip(kraus, occupation_basis(d, M - N)):
        for col, n in enumerate(basis_n):
            m = tuple(a + b for a, b in zip(n, c))
            K[index_m[m], col] = math.sqrt(coeff * math.prod(map(math.comb, m, n)))
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
    return delta_one_from_gamma(shrinking_factor(spec), spec.d)


def single_clone_marginal(cloner: ClonerSpec | Channel, psi: PureState) -> np.ndarray:
    """One-site output marginal of the optimal cloner on psi^{x N}.

    Equals gamma |psi><psi| + (1 - gamma)/d within structural tolerance.
    The cloner is given by its spec or as the channel already built.
    """
    channel = optimal_cloner(cloner) if isinstance(cloner, ClonerSpec) else cloner
    rho_out = channel.apply_fast(product_power(psi, channel.n_in))
    dens = DensityOperator(rho_out, SYMMETRIC_BASIS, channel.d, channel.m_out)
    return single_site_marginal(dens)


def all_clone_overlap(cloner: ClonerSpec | Channel, psi: PureState) -> float:
    """tr(sigma^{x M} T(sigma^{x N})): equals d[N]/d[M] for every psi.

    The cloner is given by its spec or as the channel already built."""
    channel = optimal_cloner(cloner) if isinstance(cloner, ClonerSpec) else cloner
    v_out = product_power(psi, channel.m_out)
    rho_out = channel.apply_fast(product_power(psi, channel.n_in))
    return float(np.real(v_out.conj() @ rho_out @ v_out))


def _factor_eigvalsh(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Ascending spectrum of X X^* - Y Y^* (Y absent: of X X^*), for
    factors of shape (..., side, k_X) and (..., side, k_Y) with the same
    leading axes, one spectrum per stacked pair.

    With F = [X Y] and J = diag(1, -1) over its k = k_X + k_Y columns the
    operator is F J F^*.  When k < side, F = QT with T the (k, k) factor
    of a QR, and the spectrum is that of T J T^*, padded with zeros to
    the side; otherwise T = F and F J F^* is solved as it is."""
    A = X if Y is None else np.concatenate([X, Y], axis=-1)
    side, k = A.shape[-2:]
    signs = np.ones(k)
    signs[X.shape[-1]:] = -1.0
    T = np.linalg.qr(A, mode="r") if k < side else A
    vals = np.linalg.eigvalsh((T * signs) @ np.swapaxes(T, -1, -2).conj())
    pad = np.zeros(vals.shape[:-1] + (side - T.shape[-2],))
    return np.sort(np.concatenate([vals, pad], axis=-1), axis=-1)


# Sampled states scored per values() call: at least _CHUNK, raised up to
# _CHUNK_MAX while a chunk's stacked Kraus images and output states,
# 16 * out_dim * (R + out_dim) bytes per state, fit in _CHUNK_BYTES.
# Small channels then spread the fixed numpy costs of a call over more
# states; channels whose _CHUNK states already exceed the budget keep
# _CHUNK, so no channel makes more calls than at a fixed 16, and none
# holds more per call than the larger of 16 states and _CHUNK_BYTES.
_CHUNK = 16
_CHUNK_MAX = 64
_CHUNK_BYTES = 2**20


def _states_in_budget(channel: Channel) -> int:
    """States whose stacked Kraus images and output states fit in _CHUNK_BYTES."""
    return _CHUNK_BYTES // (16 * channel.out_dim * (len(channel.kraus) + channel.out_dim))


def _chunk_size(channel: Channel) -> int:
    """States the sampler scores per values() call for this channel."""
    return max(_CHUNK, min(_CHUNK_MAX, _states_in_budget(channel)))


def refine_supremum(
    values, starts: np.ndarray, scores: np.ndarray, seeds: list,
    iters: int = 20, batch: int = _CHUNK,
) -> np.ndarray:
    """Gradient-free local refinement: from each start, whose value is
    given in scores, random perturbations with a shrinking step, keeping
    the best value seen.  Step t of a chain tries normalize(best_psi +
    s * noise[t]); a better value is accepted and keeps s, a worse one
    shrinks s by 0.7.  Chain c draws all its noise up front, one
    default_rng(seeds[c]).normal((iters, 2, d)) call (seeds are ints or
    SeedSequences), the same stream as drawing the real and imaginary
    parts step by step, so it takes the steps it would take alone.

    Until a chain accepts, its path is fixed, so its steps are scored
    ahead: each values() call takes the next max(1, batch // live) steps
    of every live chain.  A chain moves to its first accepted step and
    drops the rest of that call's scores, or past all of them if none is
    better.  So there are at most iters calls of at most max(batch,
    len(seeds)) states, and none for the starts.  The step sizes are the
    running products 0.3 * 0.7 * ... of the one-step-at-a-time loop, so
    whenever values() scores each row independently of the others, every
    accept decision and the result are those of that loop.  values maps
    amplitudes (B, d) to B values; returns each chain's best."""
    best_psi = np.array(starts, dtype=complex)
    best = np.array(scores, dtype=float)
    d = best_psi.shape[1]
    noise = np.array([np.random.default_rng(seed).normal(size=(iters, 2, d)) for seed in seeds])
    noise = noise[:, :, 0] + 1j * noise[:, :, 1]
    # step size after j rejections, multiplied out as the loop would
    steps = np.cumprod(np.r_[0.3, np.full(iters, 0.7)])
    pos = np.zeros(len(seeds), dtype=int)       # next step of each chain
    rejected = np.zeros(len(seeds), dtype=int)  # its rejections so far
    while (live := np.flatnonzero(pos < iters)).size:
        counts = np.minimum(max(1, batch // live.size), iters - pos[live])
        offsets = np.cumsum(counts) - counts
        chain = np.repeat(live, counts)
        ahead = np.arange(counts.sum()) - np.repeat(offsets, counts)
        cand = best_psi[chain] + steps[rejected[chain] + ahead, None] * noise[chain, pos[chain] + ahead]
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        val = values(cand)
        for c, lo, n in zip(live, offsets, counts):
            hits = np.flatnonzero(val[lo:lo + n] > best[c])
            if hits.size:  # rejects up to its first better step, accepts that
                n = hits[0]
                best[c], best_psi[c] = val[lo + n], cand[lo + n]
                pos[c] += 1
            pos[c] += n
            rejected[c] += n
    return best


def _sampled_supremum(values, channel: Channel, samples: int, seed: int) -> float:
    """Max of 0 and values() over Haar states of C^d (d = channel.d),
    refined locally.

    One SeedSequence(seed) per run, spawned into six children.  The first
    drives the draws: state i is the normalised z_i + i w_i from the 2d
    consecutive normals (z_i, w_i) of its stream, drawn and evaluated
    _chunk_size(channel) states per call, so the states do not depend on
    the chunk size and the n states of an n-sample run are the first n of
    any longer run.  The other five seed the refinement chains of the
    five best states (ties in sample order), one child per rank; their
    scores go along, and refinement scores the chains' steps ahead in
    calls of at most max(chunk, 5) states (fewer where a chunk exceeds
    _CHUNK_BYTES), so no values() call of a run holds more states than a
    chunk and its five chains.  Only the running maximum and the five
    best outlive a chunk, so memory does not grow with samples.  values
    maps amplitudes (B, d) to B values."""
    if samples <= 0:
        return 0.0
    d, chunk_size = channel.d, _chunk_size(channel)
    draws, *chains = np.random.SeedSequence(seed).spawn(6)
    rng = np.random.default_rng(draws)
    best = -np.inf
    top_states = np.empty((0, d), dtype=complex)
    top_scores = np.empty(0)
    for k in range(0, samples, chunk_size):
        z = rng.standard_normal((min(chunk_size, samples - k), 2, d))
        chunk = z[:, 0] + 1j * z[:, 1]
        chunk /= np.linalg.norm(chunk, axis=1, keepdims=True)
        scores = values(chunk)
        best = np.maximum(best, scores.max())
        # earlier samples come first, so the stable sort keeps ties in sample order
        top_states = np.concatenate([top_states, chunk])
        top_scores = np.concatenate([top_scores, scores])
        keep = np.argsort(-top_scores, kind="stable")[:5]
        top_states, top_scores = top_states[keep], top_scores[keep]
    # Refinement scores ahead only within the byte budget.  Past it a
    # call's fixed cost is small beside its work, and bigger temporaries
    # are paged in afresh on every call: at (3, 1, 20), 15-state calls
    # took 16 times the page faults of 5-state ones and 15% more time per
    # state, so such channels refine in lockstep, 5 states per call.
    batch = min(chunk_size, _states_in_budget(channel))
    refined = refine_supremum(values, top_states, top_scores, chains[:len(top_states)], batch=batch)
    return float(max(0.0, best, refined.max()))


def delta_all_numeric(
    spec: ClonerSpec, samples: int = 500, seed: int = 0
) -> float:
    """Sampled supremum of || T(sigma^N) - sigma^M ||_1 over pure sigma.

    T(sigma^N) - sigma^M = F J F^* with F = [K_1 v, ..., K_R v, v_out]
    of shape (out_dim, R+1), v = sigma^N and v_out = sigma^M as vectors,
    and J = diag(1, ..., 1, -1).  So the output state is never formed:
    the trace norm is read from _factor_eigvalsh of the kraus_images of
    v against v_out, an eigenproblem of side R+1 after a QR of F where
    R+1 < out_dim, of side out_dim otherwise (d = 2, N = 1).

    Covariance of the optimal cloner makes the objective state
    independent, so sampling is confirmation rather than search; the top
    candidates are still refined locally.  Few refinement steps are then
    accepted (round-off decides them), so scoring each chain's steps
    ahead makes refinement a few values() calls rather than one per step,
    e.g. 2 instead of 20 at a 64-state chunk.  Seeded as _sampled_supremum
    describes: one SeedSequence(seed) per call, so the value does not
    depend on the Python version or on the chunk size, and the states of
    a run are the first of any longer run.
    """
    channel = optimal_cloner(spec)

    def values(amps: np.ndarray) -> np.ndarray:
        images = channel.kraus_images(product_power(amps, spec.n_in))
        v_out = product_power(amps, spec.m_out)
        vals = _factor_eigvalsh(np.swapaxes(images, -1, -2), v_out[..., None])
        return np.sum(np.abs(vals), axis=-1)

    return _sampled_supremum(values, channel, samples, seed)
