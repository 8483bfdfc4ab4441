"""Generic completely positive map machinery.

Choi matrices and their Kraus factor, the CP check (trace preservation
is Channel.completeness_defect), symmetric representations Sym^N(u) on
the occupation basis, the seeded Haar twirl of a Choi matrix, covariance
defects, direct measurement of the omega functional and of the
single-clone error for arbitrary cloning channels, and explicit qubit
component cloners built from angular-momentum coupling on the
occupation tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .cloner import Channel, _factor_eigvalsh, _sampled_supremum
from .errors import ChannelPropertyError, DimensionGuardError
from .omega_opt import _check_spins
from .tensor_core import (
    FULL_BASIS,
    SYMMETRIC_BASIS,
    DensityOperator,
    check_dense_guard,
    one_body_operator,
    product_power,
    single_site_marginal,
    sym_embed,
)
from .tolerances import DEFAULT_DENSE_GUARD

__all__ = [
    "SU2Labels",
    "symmetric_rep",
    "kron_power",
    "check_choi_guard",
    "choi",
    "min_choi_eigenvalue",
    "twirl_choi",
    "covariance_defect",
    "omega_measure",
    "delta_one_numeric",
    "su2_component_cloner",
]


@dataclass(frozen=True)
class SU2Labels:
    """Spin labels (alpha, beta, gamma) of a qubit component cloner;
    gamma = N/2 is fixed by the input count.  Labels that omega_su2
    refuses raise the same ValueError here."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        spins = _check_spins(self.alpha, self.beta, self.gamma)
        for name, spin in zip(("alpha", "beta", "gamma"), spins):
            object.__setattr__(self, name, spin)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    diagonal phases of R fixed."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def kron_power(u: np.ndarray, n: int, guard: int | None = None) -> np.ndarray:
    """u^{x n} on the full tensor space; raises DimensionGuardError when
    d^n exceeds the dense guard."""
    check_dense_guard(u.shape[0], n, guard)
    out = np.eye(1, dtype=complex)
    for _ in range(n):
        out = np.kron(out, u)
    return out


def _unitary_generator(u: np.ndarray) -> np.ndarray:
    """Hermitian H with exp(iH) = u, from one eigendecomposition of u.

    The eigenphases are read on a branch centred opposite the widest gap
    between them, so that nearly equal eigenvalues get nearly equal
    phases even next to -1."""
    vals, vecs = np.linalg.eig(u)
    ordered = np.sort(np.angle(vals))
    gaps = np.diff(ordered, append=ordered[0] + 2 * np.pi)
    k = np.argmax(gaps)
    center = np.angle(-np.exp(1j * (ordered[k] + gaps[k] / 2)))
    phases = center + np.angle(vals * np.exp(-1j * center))
    H = vecs @ (phases[:, None] * np.linalg.inv(vecs))
    return (H + H.conj().T) / 2


def symmetric_rep(u: np.ndarray, N: int) -> np.ndarray:
    """The unitary u^{x N} compressed to the symmetric occupation basis.

    Computed as exp(i dGamma(H)) on the d[N]-dimensional occupation
    basis, where dGamma(H) = sum_k H_(k) is the one-body operator of a
    Hermitian generator H of u; no d^N object is built.
    """
    H = _unitary_generator(u)
    mu, W = np.linalg.eigh(one_body_operator(H, u.shape[0], N, SYMMETRIC_BASIS))
    return (W * np.exp(1j * mu)) @ W.conj().T


def conjugate_channel(channel: Channel, u: np.ndarray, guard: int | None = None) -> Channel:
    """The rotated channel tau_u(T): rho -> U_M^* T(U_N rho U_N^*) U_M.

    A full-basis output needs u^{x M} itself, which raises
    DimensionGuardError when d^M exceeds the dense guard."""
    u_in = symmetric_rep(u, channel.n_in)
    if channel.basis_out == SYMMETRIC_BASIS:
        u_out = symmetric_rep(u, channel.m_out)
    else:
        u_out = kron_power(u, channel.m_out, guard)
    return replace(channel, kraus=u_out.conj().T @ channel.kraus @ u_in)


def check_choi_guard(channel: Channel, guard: int | None = None) -> int:
    """Side in_dim * out_dim of the Choi matrix; raises DimensionGuardError
    above the dense guard."""
    limit = DEFAULT_DENSE_GUARD if guard is None else guard
    dim = channel.in_dim * channel.out_dim
    if dim > limit:
        raise DimensionGuardError(
            f"Choi matrix of side in_dim * out_dim = {channel.in_dim} * "
            f"{channel.out_dim} = {dim} exceeds guard {limit}"
        )
    return dim


def choi_factor(channel: Channel) -> np.ndarray:
    """X = [vec K_r], of shape (in_dim * out_dim, R), with choi = X X^*.

    Column r is K_r^T flattened, indexed (input, output) like choi.  X
    is the transposed view of C-contiguous rows (_write_choi_rows), so
    X.T is the row layout _factor_eigvalsh takes."""
    R = len(channel.kraus)
    rows = np.empty((R, channel.in_dim * channel.out_dim), dtype=complex)
    _write_choi_rows(channel.kraus, rows)
    return rows.T


def _write_choi_rows(kraus: np.ndarray, rows: np.ndarray) -> None:
    """Write the columns of choi_factor of the stack kraus, (R, out_dim,
    in_dim), as the R rows of the C-contiguous rows: row r is K_r^T
    flattened."""
    R, out_dim, in_dim = kraus.shape
    rows.reshape(R, in_dim, out_dim)[...] = kraus.transpose(0, 2, 1)


def choi(channel: Channel, guard: int | None = None) -> np.ndarray:
    """Choi matrix of the state map, indexed (input, output) x (input, output).

    Convention: C = sum_ij |i><j| (x) T(|i><j|), i.e. the image of the
    unnormalized maximally entangled operator; for the identity channel
    on C^d this is d times the maximally entangled projector.  Raises
    DimensionGuardError when in_dim * out_dim exceeds the dense guard.
    """
    check_choi_guard(channel, guard)
    X = choi_factor(channel)
    return X @ X.conj().T


def min_choi_eigenvalue(channel: Channel, guard: int | None = None) -> float:
    """Least eigenvalue of the Choi matrix, from its Kraus factor: the
    least eigenvalue _factor_eigvalsh gives, or 0 where R < side leaves
    the Choi matrix a kernel and that eigenvalue is positive."""
    side = check_choi_guard(channel, guard)
    least = float(_factor_eigvalsh(choi_factor(channel).T)[0])
    return min(least, 0.0) if len(channel.kraus) < side else least


def _rotations(channel: Channel, samples: int, seed: int, guard: int | None):
    """Yields the rotated channels tau_u(T) for `samples` Haar unitaries u
    drawn, in order, from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        yield conjugate_channel(channel, haar_unitary(channel.d, rng), guard)


def twirl_choi(
    channel: Channel, samples: int = 200, seed: int = 0, guard: int | None = None
) -> np.ndarray:
    """Monte-Carlo Haar average of the Choi matrices X X^* (X = choi_factor)
    of tau_u(T) over `samples` seeded unitaries.  Raises ValueError for
    samples < 1 and DimensionGuardError above the dense guard."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    acc = np.zeros((check_choi_guard(channel, guard),) * 2, dtype=complex)
    for rotated in _rotations(channel, samples, seed, guard):
        X = choi_factor(rotated)
        acc += X @ X.conj().T
    return acc / samples


def covariance_defect(
    channel: Channel, samples: int = 50, seed: int = 0, guard: int | None = None
) -> float:
    """Max operator-norm Choi distance between tau_u(T) and T over seeded
    Haar unitaries; zero (to tolerance) iff T is covariant.  The spectra
    come from the Kraus factors [X_u X_0] (choi_factor's columns, written
    as the rows of one buffer that every sample reuses, X_0 once); raises
    DimensionGuardError when in_dim * out_dim exceeds the dense guard."""
    side = check_choi_guard(channel, guard)
    R = len(channel.kraus)
    rows = np.empty((2 * R, side), dtype=complex)
    _write_choi_rows(channel.kraus, rows[R:])
    worst = 0.0
    for rotated in _rotations(channel, samples, seed, guard):
        _write_choi_rows(rotated.kraus, rows[:R])
        vals = _factor_eigvalsh(rows, negative=R)
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def traceless_hermitian_basis(d: int) -> list[np.ndarray]:
    """Generalized Gell-Mann set: d^2 - 1 traceless Hermitian matrices."""
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0
            basis.append(sym)
            anti = np.zeros((d, d), dtype=complex)
            anti[i, j] = -1j
            anti[j, i] = 1j
            basis.append(anti)
    for k in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for i in range(k):
            diag[i, i] = 1.0
        diag[k, k] = -k
        basis.append(diag)
    return basis


def omega_measure(channel: Channel) -> float:
    """Proportionality constant between T(sum_k a_(k)) and the input-side
    generator sum_{l<=N} a_(l), fitted over a traceless Hermitian basis.

    Raises ChannelPropertyError when the least-squares relative residual
    exceeds 1e-8 (the channel is then not covariant enough to define a
    single omega)."""
    d = channel.d
    num = 0.0
    den = 0.0
    pairs = []
    for a in traceless_hermitian_basis(d):
        A = one_body_operator(a, d, channel.m_out, channel.basis_out)
        L = channel.apply_observable(A)
        R = one_body_operator(a, d, channel.n_in, SYMMETRIC_BASIS)
        num += float(np.real(np.vdot(R, L)))
        den += float(np.real(np.vdot(R, R)))
        pairs.append((L, R))
    omega = num / den
    residual = max(
        float(np.linalg.norm(L - omega * R) / np.linalg.norm(R)) for L, R in pairs
    )
    if residual > 1e-8:
        raise ChannelPropertyError(
            "channel is not covariant/permutation-invariant enough to define "
            f"omega (relative residual {residual:.2e})"
        )
    return omega


def delta_one_numeric(channel: Channel, samples: int = 2000, seed: int = 0) -> float:
    """Sampled supremum over pure inputs (and output sites) of the
    single-clone probability deviation.

    The inner supremum over effects 0 <= a <= 1 is evaluated analytically
    as the sum of positive eigenvalues of (marginal - |psi><psi|); the
    outer supremum is sampled with local refinement of the best states.
    Seeded as cloner._sampled_supremum describes: one SeedSequence(seed)
    per call, so the value does not depend on the Python version or on
    the chunk size, and the states of a run are the first of any longer
    run.
    """
    d, N, M = channel.d, channel.n_in, channel.m_out
    sites = [0] if channel.basis_out == SYMMETRIC_BASIS else list(range(M))

    def values(amps: np.ndarray) -> np.ndarray:
        rho_out = channel.apply_fast(product_power(amps, N))
        dens = DensityOperator(rho_out, channel.basis_out, d, M)
        proj = amps[..., :, None] * amps.conj()[..., None, :]
        best_site = np.zeros(amps.shape[0])
        for k in sites:
            vals = np.linalg.eigvalsh(single_site_marginal(dens, site=k) - proj)
            best_site = np.maximum(best_site, np.sum(np.where(vals > 0, vals, 0.0), axis=-1))
        return best_site

    return _sampled_supremum(values, channel, samples, seed)


# ---------------------------------------------------------------------------
# Qubit component cloners from angular-momentum coupling
# ---------------------------------------------------------------------------


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
    check_dense_guard(2, M)
    singlets = np.ones(1, dtype=complex)
    for _ in range((M - two_alpha) // 2):
        singlets = np.kron(singlets, np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))
    return np.kron(sym_embed(2, two_alpha), singlets[:, None])


def su2_coupling_isometry(
    alpha: Fraction, beta: Fraction, gamma: Fraction
) -> np.ndarray:
    """Intertwining isometry V from spin gamma into spin alpha (x) spin beta.

    The top vector is the null vector of the total raising operator in
    the magnetization-gamma sector, unique for labels that omega_su2
    accepts (others raise its ValueError); the rest of the column space
    follows by total lowering.  The global phase is fixed by making the
    largest component real positive.
    """
    alpha, beta, gamma = _check_spins(alpha, beta, gamma)
    da, db = int(2 * alpha) + 1, int(2 * beta) + 1
    # J_- in the basis |j, j>, ..., |j, -j>: the occupation basis of 2j
    # qubits, with one spin moved from up (mode 0) to down (mode 1)
    lower_a, lower_b = (one_body_operator([[0, 0], [1, 0]], 2, int(2 * j), SYMMETRIC_BASIS)
                        for j in (alpha, beta))
    lower_tot = np.kron(lower_a, np.eye(db)) + np.kron(np.eye(da), lower_b)
    raise_tot = lower_tot.conj().T

    def mag(ia: int, ib: int) -> Fraction:
        return (alpha - ia) + (beta - ib)

    sector = [ia * db + ib for ia in range(da) for ib in range(db) if mag(ia, ib) == gamma]
    upper = [ia * db + ib for ia in range(da) for ib in range(db) if mag(ia, ib) == gamma + 1]
    block = raise_tot[np.ix_(upper, sector)] if upper else np.zeros((0, len(sector)))
    _, svals, vh = np.linalg.svd(block) if upper else (None, np.array([]), np.eye(len(sector)))
    null_dim = len(sector) - int(np.sum(svals > 1e-10))
    assert null_dim == 1, f"expected a unique top vector, got null dimension {null_dim}"
    top_local = vh[-1].conj()
    top = np.zeros(da * db, dtype=complex)
    top[sector] = top_local
    pivot = top[np.argmax(np.abs(top))]
    top *= abs(pivot) / pivot

    cols = [top]
    m = gamma
    while m > -gamma:
        nxt = lower_tot @ cols[-1] / math.sqrt(float((gamma + m) * (gamma - m + 1)))
        cols.append(nxt)
        m -= 1
    return np.column_stack(cols)


def su2_component_cloner(labels: SU2Labels, N: int, M: int) -> Channel:
    """Extremal covariant qubit cloner for spins (alpha, beta, gamma=N/2).

    State map: embed the input spin-gamma state through the coupling
    isometry into spin-alpha (x) spin-beta, push spin alpha into the
    M-qubit output through a representative embedding, and trace out the
    beta factor.  Unital and completely positive by construction.
    """
    alpha, beta, gamma = labels.alpha, labels.beta, labels.gamma
    if gamma != Fraction(N, 2):
        raise ValueError(f"gamma must equal N/2 = {Fraction(N, 2)}, got {gamma}")
    if 2 * alpha > M:
        raise ValueError(f"alpha = {alpha} exceeds M/2 = {Fraction(M, 2)}")
    V = su2_coupling_isometry(alpha, beta, gamma)
    W = spin_embedding(alpha, M)
    da, db, dg = int(2 * alpha) + 1, int(2 * beta) + 1, int(2 * gamma) + 1
    V3 = V.reshape(da, db, dg)
    return Channel(
        kraus=W @ V3.transpose(1, 0, 2),
        d=2,
        n_in=N,
        m_out=M,
        basis_out=FULL_BASIS,
    )
