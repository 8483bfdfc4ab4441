"""The optimal universal cloning channel and its closed-form constants.

The optimal cloner maps a state rho on the N-fold symmetric input space
to (d[N]/d[M]) S_M (rho x 1) S_M on the M-fold output space.  It is
constructed here directly in the occupation bases; the dense
construction on the full tensor space is the tests' oracle.

ClonerSpec, shrinking_factor and delta_one_closed_form are pure Python
and defined in omega_opt, next to gamma_from_omega; they are bound here
too, under the same names.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_limit
from .omega_opt import ClonerSpec, delta_one_closed_form, shrinking_factor
from .rep_theory import sym_dimension
from .tensor_core import (
    PureState,
    _basis_dimension,
    _product_powers,
    _rank,
    _table,
    product_power,
    single_site_marginal,
)
from .tolerances import KRAUS_ENTRY_GUARD

__all__ = [
    "ClonerSpec",
    "Channel",
    "optimal_cloner",
    "shrinking_factor",
    "delta_one_closed_form",
    "single_clone_marginal",
    "all_clone_overlap",
    "delta_all_numeric",
    "refine_supremum",
]


@dataclass
class Channel:
    """Completely positive trace-preserving map in Kraus form.

    kraus is one C-contiguous complex array of shape (R, out_dim, in_dim),
    operator r at kraus[r]; a sequence of equal-shape matrices is stacked
    into it once, on construction, and ragged, empty or non-3-D input
    raises ValueError.  Input and output are the symmetric occupation
    bases of Sym^N and Sym^M; dims carry (d, N, M), and a stack whose
    (out_dim, in_dim) are not (d[M], d[N]) raises ValueError.
    """

    kraus: np.ndarray
    d: int
    n_in: int
    m_out: int

    def __post_init__(self):
        self.kraus = np.ascontiguousarray(self.kraus, dtype=complex)  # ragged: ValueError
        if self.kraus.ndim != 3 or self.kraus.shape[0] == 0:
            raise ValueError(
                "Kraus operators must form a non-empty (R, out_dim, in_dim) stack, "
                f"got shape {self.kraus.shape}"
            )
        _, out_side, in_side = self.kraus.shape
        out_dim = _basis_dimension(self.d, self.m_out, out_side)
        in_dim = _basis_dimension(self.d, self.n_in, in_side)
        if (out_side, in_side) != (out_dim, in_dim):
            raise ValueError(
                f"Kraus operators of shape {self.kraus.shape[1:]} do not map "
                f"(d, N, M) = ({self.d}, {self.n_in}, {self.m_out}), "
                f"which needs ({out_dim}, {in_dim})"
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
    check_limit(f"optimal cloner Kraus entries R * out_dim * in_dim = "
                f"{count} * {dim_m} * {dim_n}", count * dim_m * dim_n, KRAUS_ENTRY_GUARD)
    occ_n, occ_c = _table(d, N).occ, _table(d, M - N).occ
    # operator c maps input n to the output occupation m = n + c
    m = occ_c[:, None] + occ_n[None]
    rows = _rank(m.reshape(-1, d), M).reshape(count, dim_n)
    # exact Python ints: each product below is at most binom(M, N)
    # (Vandermonde), which outgrows int64 at library sizes
    comb = np.array([[math.comb(a, b) for b in range(N + 1)] for a in range(M + 1)], dtype=object)
    # squared entry: (d[N]/d[M]) prod_i binom(m_i, n_i) / binom(M, N)
    coeff = dim_n / (dim_m * math.comb(M, N))
    weights = np.prod(comb[m, occ_n], axis=-1).astype(float)
    kraus = np.zeros((count, dim_m, dim_n), dtype=complex)
    kraus[np.arange(count)[:, None], rows, np.arange(dim_n)] = np.sqrt(coeff * weights)
    return Channel(kraus=kraus, d=d, n_in=N, m_out=M)


def single_clone_marginal(cloner: ClonerSpec | Channel, psi: PureState | np.ndarray) -> np.ndarray:
    """One-site output marginal of a cloning channel on psi^{x N}.

    The channel is any Channel, or the optimal cloner given by its spec;
    for the optimal cloner the marginal equals gamma |psi><psi| +
    (1 - gamma)/d within structural tolerance.  Amplitudes of shape
    (..., d) give a stack of marginals of shape (..., d, d).
    """
    channel = optimal_cloner(cloner) if isinstance(cloner, ClonerSpec) else cloner
    rho_out = channel.apply_fast(product_power(psi, channel.n_in))
    return single_site_marginal(rho_out, channel.d, channel.m_out)


def all_clone_overlap(cloner: ClonerSpec | Channel, psi: PureState) -> float:
    """tr(sigma^{x M} T(sigma^{x N})): equals d[N]/d[M] for every psi.

    The cloner is given by its spec or as the channel already built."""
    channel = optimal_cloner(cloner) if isinstance(cloner, ClonerSpec) else cloner
    v_out = product_power(psi, channel.m_out)
    rho_out = channel.apply_fast(product_power(psi, channel.n_in))
    return float(np.real(v_out.conj() @ rho_out @ v_out))


def _factor_eigvalsh(rows: np.ndarray, negative: int = 0) -> np.ndarray:
    """Ascending spectrum of F J F^*, one per stacked factor, where the k
    columns of F are given as rows, of shape (..., k, side), and J =
    diag(1, ..., 1, -1, ..., -1) has its last `negative` entries -1.

    When k < side, F = QT with T the (k, k) factor of a QR, and the k
    eigenvalues returned are those of T J T^*; F J F^* has side - k more,
    all zero, which a caller that needs the full spectrum pads in itself.
    Otherwise T = F and the side eigenvalues of F J F^* are returned.  F
    is read as the transposed view of rows, so C-contiguous rows make
    each matrix of F column-major, the layout LAPACK copies it into."""
    k, side = rows.shape[-2:]
    signs = np.ones(k)
    signs[k - negative:] = -1.0
    F = np.swapaxes(rows, -1, -2)
    T = np.linalg.qr(F, mode="r") if k < side else F
    return np.linalg.eigvalsh((T * signs) @ np.swapaxes(T, -1, -2).conj())


# Sampled states scored per values() call: as many as fit in _CHUNK_BYTES,
# counting a chunk's stacked Kraus images and output states,
# 16 * out_dim * (R + out_dim) bytes per state, and never fewer than
# _CHUNK.  A small channel then scores a run of up to a few thousand
# states in one call and pays the fixed numpy costs of a call once;
# channels whose _CHUNK states already exceed the budget keep _CHUNK,
# so no channel makes more calls than at a fixed 16.
# The count leaves out the conjugate copy of the images that apply_fast
# takes, so a delta_one_numeric call's arrays hold
# 16 * out_dim * (2R + out_dim) bytes per state, up to twice the count:
# one 16-state call peaked (tracemalloc) at 1.38-1.48 times it at
# (4,1,5), (3,1,5), (4,1,4) and (3,1,20).  delta_all's rows are real
# (8 bytes) and hold no output state: 0.59-0.90 times the count at those
# sizes.  On the smallest channels a call's fixed temporaries outweigh
# both: at (2,1,2), count 3,840 bytes, the peaks were 2.98 and 1.87
# times it.  Only chunk sizes depend on the count, never values, so one
# rule serves both samplers.
_CHUNK = 16
_CHUNK_BYTES = 2**20


def _states_in_budget(channel: Channel) -> int:
    """States whose stacked Kraus images and output states fit in _CHUNK_BYTES."""
    return _CHUNK_BYTES // (16 * channel.out_dim * (len(channel.kraus) + channel.out_dim))


def _chunk_size(channel: Channel) -> int:
    """States the sampler scores per values() call for this channel."""
    return max(_CHUNK, _states_in_budget(channel))


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
    calls of at most as many states as fit in _CHUNK_BYTES, or 5 in
    lockstep, so no values() call of a run holds more states than a
    chunk and its five chains.  A small channel's chunk holds every
    state a run of a few thousand samples draws, so such a run makes one
    draw call and a refinement call or two.  Only the five best, which
    refinement never scores below, outlive a chunk, so memory is bounded
    by one chunk plus the five best: it grows with samples up to one
    chunk and not past it.  A chunk's counted images and outputs fill at
    most _CHUNK_BYTES, or are those of 16 states; delta_one_numeric's
    calls also hold the images' conjugate copy, up to twice the count,
    and delta_all_numeric's real rows less than it, past the smallest
    channels (see _CHUNK_BYTES).
    values maps amplitudes (B, d) to B values.
    Raises ValueError for samples < 1, before anything is drawn."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d, chunk_size = channel.d, _chunk_size(channel)
    draws, *chains = np.random.SeedSequence(seed).spawn(6)
    rng = np.random.default_rng(draws)
    top_states = np.empty((0, d), dtype=complex)
    top_scores = np.empty(0)
    for k in range(0, samples, chunk_size):
        z = rng.standard_normal((min(chunk_size, samples - k), 2, d))
        chunk = z[:, 0] + 1j * z[:, 1]
        chunk /= np.linalg.norm(chunk, axis=1, keepdims=True)
        scores = values(chunk)
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
    refined = refine_supremum(values, top_states, top_scores, chains[:len(top_states)],
                              batch=_states_in_budget(channel))
    return float(max(0.0, refined.max()))


def delta_all_numeric(
    spec: ClonerSpec, samples: int = 500, seed: int = 0
) -> float:
    """Sampled supremum of || T(sigma^N) - sigma^M ||_1 over pure sigma.

    T(sigma^N) - sigma^M = F J F^* with F = [K_1 v, ..., K_R v, v_out]
    of shape (out_dim, R+1), v = sigma^N and v_out = sigma^M as vectors,
    and J = diag(1, ..., 1, -1).  So the output state is never formed:
    each values() call writes the images K_r v and then v_out as the
    rows of one (B, R+1, out_dim) array (v and v_out from one table of
    powers), and the trace norm is the sum of |lambda| over the spectrum
    _factor_eigvalsh gives for it, an eigenproblem of side R+1 after a
    QR of F where R+1 < out_dim, of side out_dim otherwise (d = 2,
    N = 1).  The out_dim - (R+1) zero eigenvalues add nothing to the sum
    and are never formed.

    The spectrum is taken in real arithmetic, from |psi|.  Operator K_c maps
    occupation n to n + c with a real weight, and the coordinates of
    psi^N are (psi^N)_n = s_n prod_i psi_i^(n_i) with s_n real.  With
    psi_i = |psi_i| e^(i theta_i), F = P F_r Phi: F_r is the factor of
    |psi|, P = diag(e^(i theta.m)) over the output occupations m and
    Phi = diag(e^(-i theta.c), 1) over the columns.  Both are diagonal
    unitaries and Phi J Phi^* = J, so F J F^* = P (F_r J F_r^T) P^*
    has the spectrum of F_r J F_r^T for every state, exactly: this uses
    only the occupation structure of the Kraus operators, not
    covariance or optimality.

    Covariance of the optimal cloner makes the objective state
    independent, so sampling is confirmation rather than search; the top
    candidates are still refined locally.  Few refinement steps are then
    accepted (round-off decides them), so scoring each chain's steps
    ahead makes refinement a few values() calls rather than one per step,
    e.g. 1 or 2 instead of 20 on a small channel.  Seeded as _sampled_supremum
    describes: one SeedSequence(seed) per call, so the value does not
    depend on the Python version or on the chunk size, and the states of
    a run are the first of any longer run.
    """
    channel = optimal_cloner(spec)
    R, out_dim = len(channel.kraus), channel.out_dim
    # the Kraus weights are real: the stack as (R*out_dim, in_dim) reals
    stack = np.ascontiguousarray(channel.kraus.real).reshape(-1, channel.in_dim)

    def values(amps: np.ndarray) -> np.ndarray:
        v_in, v_out = _product_powers(np.abs(amps), spec.n_in, spec.m_out)
        rows = np.empty((len(amps), R + 1, out_dim))
        rows[:, :R] = (v_in @ stack.T).reshape(len(amps), R, out_dim)
        rows[:, R] = v_out
        return np.sum(np.abs(_factor_eigvalsh(rows, negative=1)), axis=-1)

    return _sampled_supremum(values, channel, samples, seed)
