"""Optimal cloner: fast path vs dense oracle, closed-form constants."""
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cloneopt import (
    CandidatePoint,
    ClonerSpec,
    all_clone_overlap,
    choi,
    delta_all_numeric,
    delta_one_closed_form,
    delta_one_numeric,
    haar_state,
    occupation_basis,
    optimal_cloner,
    product_power,
    shrinking_factor,
    single_clone_marginal,
    single_site_marginal,
    su2_component_cloner,
    sym_dimension,
)
from cloneopt import channels, cloner
from cloneopt.cloner import Channel
from cloneopt.tensor_core import _product_powers
from cloneopt.tolerances import KRAUS_ENTRY_GUARD

from reference import (
    constant_output_channel,
    dense_cloner_output,
    occupation_index,
    single_clone_law_violations,
    squared_kraus_weights,
)

DESK_GRID = [
    (2, 1, 2),
    (2, 1, 3),
    (2, 2, 3),
    (2, 2, 4),
    (2, 3, 5),
    (3, 1, 2),
    (3, 1, 3),
    (3, 2, 3),
    (3, 2, 4),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        ClonerSpec(1, 1, 2)
    with pytest.raises(ValueError):
        ClonerSpec(2, 0, 2)
    with pytest.raises(ValueError):
        ClonerSpec(2, 3, 2)
    ClonerSpec(2, 2, 2)  # identity limit allowed


def test_shrinking_factor_values():
    assert shrinking_factor(ClonerSpec(2, 1, 2)) == Fraction(2, 3)
    assert shrinking_factor(ClonerSpec(3, 1, 2)) == Fraction(5, 8)
    assert shrinking_factor(ClonerSpec(4, 3, 3)) == 1


def test_delta_one_closed_form_values():
    assert delta_one_closed_form(ClonerSpec(2, 1, 2)) == Fraction(1, 6)
    assert delta_one_closed_form(ClonerSpec(2, 2, 3)) == Fraction(1, 12)
    assert delta_one_closed_form(ClonerSpec(5, 2, 2)) == 0


@pytest.mark.parametrize("d,N,M", DESK_GRID)
def test_fast_path_equals_dense_oracle(d, N, M):
    spec = ClonerSpec(d, N, M)
    channel = optimal_cloner(spec)
    rng = np.random.default_rng(100 * d + 10 * N + M)
    dim = sym_dimension(d, N)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ z.conj().T
    rho /= np.trace(rho)
    assert np.max(np.abs(channel.apply(rho) - dense_cloner_output(spec, rho))) < 1e-10


def test_kraus_count_and_shapes():
    # one operator per occupation vector of the M-N blank sites, and the
    # Choi matrix of the dense oracle on the matrix units |i><j|
    for d, N, M in DESK_GRID:
        spec = ClonerSpec(d, N, M)
        channel = optimal_cloner(spec)
        dim_n, dim_m = sym_dimension(d, N), sym_dimension(d, M)
        assert len(channel.kraus) == math.comb(d + M - N - 1, M - N)
        assert all(K.shape == (dim_m, dim_n) for K in channel.kraus)
        images = np.empty((dim_n, dim_n, dim_m, dim_m), dtype=complex)
        for i in range(dim_n):
            for j in range(dim_n):
                unit = np.zeros((dim_n, dim_n), dtype=complex)
                unit[i, j] = 1.0
                images[i, j] = dense_cloner_output(spec, unit)
        oracle = images.transpose(0, 2, 1, 3).reshape(dim_n * dim_m, dim_n * dim_m)
        assert np.max(np.abs(choi(channel) - oracle)) < 1e-12


def loop_optimal_cloner(d, N, M):
    """Oracle: the optimal cloner's Kraus stack filled one entry at a
    time, over each operator c and input column n."""
    dim_n, dim_m = sym_dimension(d, N), sym_dimension(d, M)
    index_m = occupation_index(d, M)
    coeff = dim_n / (dim_m * math.comb(M, N))
    kraus = np.zeros((sym_dimension(d, M - N), dim_m, dim_n), dtype=complex)
    for K, c in zip(kraus, occupation_basis(d, M - N)):
        for col, n in enumerate(occupation_basis(d, N)):
            m = tuple(a + b for a, b in zip(n, c))
            K[index_m[m], col] = math.sqrt(coeff * math.prod(map(math.comb, m, n)))
    return kraus


# every size within the Kraus entry guard at d <= 6, N <= 5, M <= N + 5,
# and large M; binom(150, 70) exceeds int64, so (2, 70, 150) checks that
# the weight products are exact Python ints
KRAUS_LOOP_SIZES = [
    (d, N, M) for d in range(2, 7) for N in range(1, 6) for M in range(N, N + 6)
    if sym_dimension(d, M - N) * sym_dimension(d, M) * sym_dimension(d, N) <= KRAUS_ENTRY_GUARD
] + [(2, 30, 64), (2, 1, 64), (2, 20, 40), (2, 70, 150)]


def test_optimal_cloner_matches_the_entry_loop():
    for d, N, M in KRAUS_LOOP_SIZES:
        assert np.array_equal(optimal_cloner(ClonerSpec(d, N, M)).kraus, loop_optimal_cloner(d, N, M))


def kraus_entries(d, N, M):
    return sym_dimension(d, M - N) * sym_dimension(d, M) * sym_dimension(d, N)


# every triple of the CLI's range that the Kraus entry guard admits, and
# its guard edges, the admitted (d, N, M) whose (d, N, M + 1) is refused;
# at d = 2 the guard admits every triple, and the range ends at M = 64
ADMITTED = [(d, N, M) for d in range(2, 9) for N in range(1, 65) for M in range(N, 65)
            if kraus_entries(d, N, M) <= KRAUS_ENTRY_GUARD]
EDGES = [(d, N, M) for d, N, M in ADMITTED
         if M < 64 and kraus_entries(d, N, M + 1) > KRAUS_ENTRY_GUARD]


def law_edges(d):
    """d's guard edges at N = 1, at the largest N (there M = N) and where
    the operators hold the most entries."""
    edges = [e for e in EDGES if e[0] == d]
    return {edges[0], edges[-1], max(edges, key=lambda e: kraus_entries(*e))}


# the range ends at d = 2, the guard edges of each larger d, and a seeded
# sample of the admitted triples
LAW_SIZES = sorted({(2, 1, 64), (2, 63, 64)}.union(
    *map(law_edges, range(3, 9)),
    (ADMITTED[i] for i in np.random.default_rng(3).choice(len(ADMITTED), 10, replace=False)),
))


@pytest.mark.parametrize("d,N,M", LAW_SIZES)
def test_single_clone_law_holds_exactly(d, N, M):
    # the built cloner's squared weights satisfy T^*(dGamma_M(X)) = omega
    # dGamma_N(X) on su(d) at omega = (M+d)/(N+d), in exact arithmetic, and
    # the gamma the CLI prints is omega N/M
    assert single_clone_law_violations(d, N, M) == []
    assert shrinking_factor(ClonerSpec(d, N, M)) == Fraction(M + d, N + d) * Fraction(N, M)


@pytest.mark.parametrize("d,N,M", LAW_SIZES)
def test_kraus_entries_square_to_the_exact_weights(d, N, M):
    kraus = optimal_cloner(ClonerSpec(d, N, M)).kraus
    index_n, index_m = occupation_index(d, N), occupation_index(d, M)
    index_c = occupation_index(d, M - N)
    coeff, rows = squared_kraus_weights(d, N, M)
    expected = np.zeros(kraus.shape)
    for n, terms in rows:
        for c, m, w in terms:
            expected[index_c[c], index_m[m], index_n[n]] = float(coeff * w)
    assert not kraus.imag.any()
    np.testing.assert_array_max_ulp(kraus.real ** 2, expected, maxulp=4)


@pytest.mark.parametrize("d,N,M", DESK_GRID)
def test_trace_preservation(d, N, M):
    channel = optimal_cloner(ClonerSpec(d, N, M))
    assert channel.completeness_defect() < 1e-10
    # off trace preservation, the one product F^*F against the sum of
    # K_r^* K_r accumulated one operator at a time
    rng = np.random.default_rng(100 * d + 10 * N + M)
    scaled = replace(channel, kraus=channel.kraus * rng.uniform(0.5, 1.0, (len(channel.kraus), 1, 1)))
    acc = np.zeros((channel.in_dim, channel.in_dim), dtype=complex)
    for K in scaled.kraus:
        acc += K.conj().T @ K
    loop = float(np.max(np.abs(np.linalg.eigvalsh(acc - np.eye(channel.in_dim)))))
    assert loop > 0.1
    assert abs(scaled.completeness_defect() - loop) < 1e-12


def test_kraus_list_is_stacked_once():
    ops = [np.eye(3, 2), np.ones((3, 2)) / 3, 1j * np.eye(3, 2)[::-1]]
    from_list = Channel(kraus=ops, d=2, n_in=1, m_out=2)
    from_stack = Channel(kraus=np.stack(ops).astype(complex), d=2, n_in=1, m_out=2)
    for channel in (from_list, from_stack):
        assert channel.kraus.shape == (3, 3, 2) and channel.kraus.dtype == complex
        assert channel.kraus.flags.c_contiguous
        assert (channel.out_dim, channel.in_dim) == (3, 2)
    assert np.array_equal(from_list.kraus, from_stack.kraus)
    # derived channels share the stored stack rather than copying it
    assert replace(from_stack).kraus is from_stack.kraus


@pytest.mark.parametrize("kraus", [
    [np.eye(2), np.eye(3)],  # ragged
    [],  # empty
    np.empty((0, 2, 2)),  # empty stack
    np.eye(2),  # one matrix, not a stack
    np.ones((1, 3, 2)),  # an output of another dimension
    np.ones((1, 2, 3)),  # an input of another dimension
])
def test_kraus_stack_rejects_malformed_input(kraus):
    with pytest.raises(ValueError):
        Channel(kraus=kraus, d=2, n_in=1, m_out=1)


@pytest.mark.parametrize("build,message", [
    (lambda n: Channel(np.zeros((1, 1, 1)), n, n, n), "do not map"),
    (lambda n: Channel(np.zeros((1, 1, 1)), n, n, 0), "do not map"),  # the input side alone
    (lambda n: single_site_marginal(np.zeros((1, 1)), n, n), "does not match"),
    (lambda n: single_site_marginal(np.zeros((3, 1, 1)), n, n), "does not match"),  # a stack
])
def test_huge_declared_sizes_are_refused_at_once(build, message):
    # C(2n - 1, n) alone took 18 s at n = 400000, and its digits overran
    # the int-to-str limit when the message printed it
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        build(400000)
    assert time.perf_counter() - start < 0.1


def test_apply_broadcasts_over_leading_axes():
    channel = optimal_cloner(ClonerSpec(3, 2, 4))
    rng = np.random.default_rng(8)
    dim = sym_dimension(3, 2)
    stack = rng.normal(size=(2, 3, dim, dim)) + 1j * rng.normal(size=(2, 3, dim, dim))
    out = channel.apply(stack)
    assert out.shape == (2, 3, channel.out_dim, channel.out_dim)
    for idx in np.ndindex(2, 3):
        assert np.allclose(out[idx], channel.apply(stack[idx]), atol=1e-13)
    # apply_fast is the pure-input map: apply_fast(v) == apply(v v^*)
    channels = [optimal_cloner(ClonerSpec(*dims)) for dims in DESK_GRID]
    channels += [
        su2_component_cloner(CandidatePoint((3, 1), (1, 1))),
        constant_output_channel(3, 2, 3),
    ]
    assert (channels[-2].n_in, channels[-2].m_out) == (2, 2)  # on Sym^(m_1 - m_2)
    for ch in channels:
        for lead in [(), (5,), (2, 3)]:
            v = rng.normal(size=lead + (ch.in_dim,)) + 1j * rng.normal(size=lead + (ch.in_dim,))
            v /= np.linalg.norm(v, axis=-1, keepdims=True)
            fast = ch.apply_fast(v)
            assert fast.shape == lead + (ch.out_dim, ch.out_dim)
            dense = ch.apply(v[..., :, None] * v.conj()[..., None, :])
            assert np.max(np.abs(fast - dense)) < 1e-13


def test_kraus_images_and_apply_fast():
    rng = np.random.default_rng(9)
    channels = [optimal_cloner(ClonerSpec(*dims)) for dims in DESK_GRID]
    channels += [constant_output_channel(3, 2, 3)]
    for ch in channels:
        for lead in [(), (5,), (2, 3)]:
            v = rng.normal(size=lead + (ch.in_dim,)) + 1j * rng.normal(size=lead + (ch.in_dim,))
            images = ch.kraus_images(v)
            assert images.shape == lead + (len(ch.kraus), ch.out_dim)
            for idx in np.ndindex(*lead):
                loop = np.array([K @ v[idx] for K in ch.kraus])
                assert np.max(np.abs(images[idx] - loop)) < 1e-13
            # apply_fast as it was before kraus_images existed
            w = v @ ch.kraus.reshape(-1, ch.in_dim).T
            w = w.reshape(v.shape[:-1] + (len(ch.kraus), ch.out_dim))
            assert np.array_equal(ch.apply_fast(v), np.swapaxes(w, -1, -2) @ w.conj())


def dense_delta_all_values(channel, amps):
    """Oracle: || T(sigma^N) - sigma^M ||_1 from the dense out_dim-side
    eigenproblem, one per state."""
    v_in = product_power(amps, channel.n_in)
    v_out = product_power(amps, channel.m_out)
    diff = channel.apply_fast(v_in)
    diff -= v_out[..., :, None] * v_out.conj()[..., None, :]
    return np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)


def delta_all_values(spec, monkeypatch):
    """The values() that delta_all_numeric hands to the sampler."""
    captured = []
    monkeypatch.setattr(cloner, "_sampled_supremum", lambda values, *rest: captured.append(values))
    delta_all_numeric(spec)
    return captured[0]


# every delta_all size of the sampled-supremum benchmark deck, a d = 8
# channel, and d = 2, N = 1, where R + 1 = out_dim and no QR is taken
DELTA_ALL_SIZES = [
    (2, 1, 3), (2, 3, 4), (2, 1, 5), (2, 3, 5), (3, 1, 2), (3, 2, 3), (3, 2, 4),
    (3, 1, 5), (3, 3, 5), (4, 1, 3), (4, 1, 4), (4, 1, 5), (8, 1, 4), (2, 1, 2),
]


@pytest.mark.parametrize("d,N,M", DELTA_ALL_SIZES)
def test_delta_all_factor_route_matches_dense_oracle(d, N, M, monkeypatch):
    spec = ClonerSpec(d, N, M)
    values = delta_all_values(spec, monkeypatch)
    rng = np.random.default_rng(10)
    amps = rng.normal(size=(20, d)) + 1j * rng.normal(size=(20, d))
    amps = np.vstack([amps, np.eye(d)])
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    got = values(amps)
    assert got.shape == (len(amps),)
    assert np.max(np.abs(got - dense_delta_all_values(optimal_cloner(spec), amps))) < 1e-12


def padded_delta_all_values(channel, amps):
    """Oracle: delta_all's values() as it was before the row buffer, the
    images and v_out joined by a concatenate and the spectrum padded with
    zeros to out_dim and sorted before its absolute values are summed.
    Complex amplitudes are solved in complex arithmetic, as before the
    real route; real ones, with the real parts of the Kraus weights, in
    real arithmetic."""
    kraus = channel.kraus if np.iscomplexobj(amps) else channel.kraus.real
    v_in = _product_powers(amps, channel.n_in)[0]
    images = (v_in @ kraus.reshape(-1, channel.in_dim).T).reshape(v_in.shape[:-1] + kraus.shape[:2])
    A = np.concatenate([np.swapaxes(images, -1, -2), _product_powers(amps, channel.m_out)[0][..., None]], axis=-1)
    side, k = A.shape[-2:]
    signs = np.r_[np.ones(k - 1), -1.0]
    T = np.linalg.qr(A, mode="r") if k < side else A
    vals = np.linalg.eigvalsh((T * signs) @ np.swapaxes(T, -1, -2).conj())
    pad = np.zeros(vals.shape[:-1] + (side - T.shape[-2],))
    return np.sum(np.abs(np.sort(np.concatenate([vals, pad], axis=-1), axis=-1)), axis=-1)


@pytest.mark.parametrize("d,N,M", DELTA_ALL_SIZES)
def test_delta_all_values_match_the_padded_solve(d, N, M, monkeypatch):
    # the same spectra summed in another order: a few ulps apart at most.
    # The oracle runs in the arithmetic values() runs in, real on |amps|;
    # the next test relates that to the complex solve.
    spec = ClonerSpec(d, N, M)
    values = delta_all_values(spec, monkeypatch)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(64, d)) + 1j * rng.normal(size=(64, d))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    got = values(amps)
    assert np.max(np.abs(got - padded_delta_all_values(optimal_cloner(spec), np.abs(amps)))) <= 1e-15


@pytest.mark.parametrize("d,N,M", DELTA_ALL_SIZES)
def test_delta_all_values_do_not_depend_on_phases(d, N, M, monkeypatch):
    # F = P F_r Phi with diagonal unitaries P and Phi, so the complex
    # solve at psi and the real one at |psi| share their spectrum
    spec = ClonerSpec(d, N, M)
    channel = optimal_cloner(spec)
    values = delta_all_values(spec, monkeypatch)
    rng = np.random.default_rng(12)
    amps = rng.normal(size=(64, d)) + 1j * rng.normal(size=(64, d))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    real = padded_delta_all_values(channel, np.abs(amps))
    assert np.max(np.abs(padded_delta_all_values(channel, amps) - real)) <= 1e-12
    # values() reads |amps| alone, so phases that keep every modulus
    # exact, quarter turns, must not move the values by a bit (other
    # phases round the moduli, which moves them by ~1e-15)
    phases = np.array([1, 1j, -1, -1j])[rng.integers(4, size=amps.shape)]
    assert np.array_equal(values(np.abs(amps) * phases), values(amps))


def test_delta_all_hands_the_qr_column_major_factors(monkeypatch):
    # the factors are the transposed view of C-contiguous rows, so each
    # reaches the QR column-major, the layout LAPACK copies it into; a
    # C-ordered factor (np.ascontiguousarray of the view) fails here
    qr = np.linalg.qr
    layouts = []

    def recording(a, *args, **kwargs):
        layouts.append((a.shape[-2:], np.swapaxes(a, -1, -2).flags.c_contiguous, a.dtype))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    delta_all_numeric(ClonerSpec(4, 1, 5), samples=20, seed=3)
    assert layouts
    assert all(shape == (56, 36) and column_major for shape, column_major, _ in layouts)
    # the factors are real: a complex one is a solve in complex arithmetic
    assert all(dtype == np.float64 for *_, dtype in layouts)


def test_delta_all_solves_eigenproblems_of_side_r_plus_one(monkeypatch):
    spec = ClonerSpec(4, 1, 5)
    channel = optimal_cloner(spec)
    assert (len(channel.kraus), channel.out_dim) == (35, 56)
    eigvalsh = np.linalg.eigvalsh
    shapes = []

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    delta_all_numeric(spec, samples=20, seed=3)
    assert shapes
    assert all(shape[-2:] == (36, 36) for shape in shapes)


def test_identity_limit():
    spec = ClonerSpec(2, 2, 2)
    channel = optimal_cloner(spec)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = z @ z.conj().T
    rho /= np.trace(rho)
    assert np.allclose(channel.apply(rho), rho, atol=1e-12)
    assert delta_all_numeric(spec, samples=5) < 1e-10


def test_qubit_doubling_point():
    spec = ClonerSpec(2, 1, 2)
    channel = optimal_cloner(spec)
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = channel.apply(rho)
    # (2/3)|00><00| + (1/3)|s><s| in the occupation basis ((2,0),(1,1),(0,2))
    assert np.allclose(out, np.diag([2 / 3, 1 / 3, 0.0]), atol=1e-12)
    marg = single_clone_marginal(spec, haar_basis_state())
    assert abs(marg[0, 0].real - 5 / 6) < 1e-12
    assert abs(marg[1, 1].real - 1 / 6) < 1e-12


def haar_basis_state():
    from cloneopt import PureState

    return PureState(np.array([1.0, 0.0]))


@pytest.mark.parametrize("d,N,M", DESK_GRID)
def test_marginal_closed_form(d, N, M):
    spec = ClonerSpec(d, N, M)
    gamma = float(shrinking_factor(spec))
    for seed in range(5):
        psi = haar_state(d, seed)
        marg = single_clone_marginal(spec, psi)
        expected = gamma * psi.projector() + (1 - gamma) / d * np.eye(d)
        assert np.max(np.abs(marg - expected)) < 1e-10


def werner_fidelity(d, N, M):
    # single-clone fidelity of the optimal cloner as published:
    # Werner, PRA 58, 1827 (1998)
    return Fraction(N * (M + d) + M - N, M * (N + d))


def gisin_massar_fidelity(N, M):
    # qubit single-clone fidelity: Gisin & Massar, PRL 79, 2153 (1997)
    return Fraction(M * (N + 1) + N, M * (N + 2))


@pytest.mark.parametrize("d,N,M", DESK_GRID)
def test_single_clone_fidelity_matches_literature(d, N, M):
    spec = ClonerSpec(d, N, M)
    gamma = shrinking_factor(spec)
    fidelity = gamma + (1 - gamma) / d
    assert fidelity == werner_fidelity(d, N, M)
    if d == 2:
        assert fidelity == gisin_massar_fidelity(N, M)
    for seed in range(3):
        psi = haar_state(d, 40 + seed)
        v = psi.amplitudes
        overlap = np.real(v.conj() @ single_clone_marginal(spec, psi) @ v)
        assert abs(overlap - float(fidelity)) < 1e-12


def test_marginal_eigenvalues():
    spec = ClonerSpec(3, 2, 4)
    gamma = float(shrinking_factor(spec))
    psi = haar_state(3, seed=9)
    vals = np.sort(np.linalg.eigvalsh(single_clone_marginal(spec, psi)))
    expected = np.sort([gamma + (1 - gamma) / 3] + [(1 - gamma) / 3] * 2)
    assert np.allclose(vals, expected, atol=1e-10)


@pytest.mark.parametrize("d,N,M", DESK_GRID)
def test_all_clone_overlap(d, N, M):
    spec = ClonerSpec(d, N, M)
    target = sym_dimension(d, N) / sym_dimension(d, M)
    for seed in range(20):
        psi = haar_state(d, seed)
        assert abs(all_clone_overlap(spec, psi) - target) < 1e-10


def test_marginal_and_overlap_take_a_built_cloner():
    spec = ClonerSpec(3, 1, 4)
    channel = optimal_cloner(spec)
    psi = haar_state(3, 5)
    assert np.array_equal(single_clone_marginal(channel, psi), single_clone_marginal(spec, psi))
    assert all_clone_overlap(channel, psi) == all_clone_overlap(spec, psi)


def test_delta_all_value():
    # d=2, N=1, M=2: || T(sigma) - sigma^2 ||_1 = 2 (1 - 2/3) = 2/3
    est = delta_all_numeric(ClonerSpec(2, 1, 2), samples=50, seed=1)
    assert abs(est - 2 / 3) < 1e-8


def test_delta_all_nondecreasing_in_samples():
    spec = ClonerSpec(2, 1, 3)
    small = delta_all_numeric(spec, samples=10, seed=4)
    large = delta_all_numeric(spec, samples=40, seed=4)
    assert large >= small - 1e-12


@pytest.mark.parametrize("d,N,M", DESK_GRID + [(4, 1, 5), (4, 2, 4), (8, 1, 4), (4, 5, 9)])
def test_sampler_chunk_fits_the_byte_budget(d, N, M):
    channel = optimal_cloner(ClonerSpec(d, N, M))
    # complex entries of the stacked K_r v and of the output state, per state
    per_state = 16 * channel.out_dim * (len(channel.kraus) + channel.out_dim)
    chunk = cloner._chunk_size(channel)
    assert chunk == max(16, cloner._CHUNK_BYTES // per_state)
    if chunk > 16:
        assert chunk * per_state <= cloner._CHUNK_BYTES < (chunk + 1) * per_state
    if (d, N, M) in [(8, 1, 4), (4, 5, 9)]:
        assert chunk == 16


def count_sampler_calls(module, monkeypatch):
    """Patch module's sampler to count its values() calls: those of the
    draws, then those of refinement."""
    sample, refine = cloner._sampled_supremum, cloner.refine_supremum
    calls = {"draw": [], "refine": []}
    phase = ["draw"]

    def sampled(values, *args):
        def counted(amps):
            calls[phase[0]].append(len(amps))
            return values(amps)

        phase[0] = "draw"
        return sample(counted, *args)

    def refining(*args, **kwargs):
        phase[0] = "refine"
        return refine(*args, **kwargs)

    monkeypatch.setattr(module, "_sampled_supremum", sampled)
    monkeypatch.setattr(cloner, "refine_supremum", refining)
    return calls


@pytest.mark.parametrize("d,N,M", [(2, 1, 2), (3, 1, 3)])
@pytest.mark.parametrize("kind", ["delta_one", "delta_all"])
def test_small_channel_draws_a_run_in_one_call(d, N, M, kind, monkeypatch):
    # the byte budget holds all 200 states: one call draws them, and
    # refinement scores all 20 steps of the five chains ahead in one call.
    # Each later call scores only the steps left to the chains that
    # accepted one, so it is smaller than the call before
    spec = ClonerSpec(d, N, M)
    assert cloner._chunk_size(optimal_cloner(spec)) >= 200
    calls = count_sampler_calls(channels if kind == "delta_one" else cloner, monkeypatch)
    refinements = 0
    for seed in range(10):
        calls["draw"].clear()
        calls["refine"].clear()
        if kind == "delta_one":
            delta_one_numeric(optimal_cloner(spec), samples=200, seed=seed)
        else:
            delta_all_numeric(spec, samples=200, seed=seed)
        assert calls["draw"] == [200], seed
        assert calls["refine"][0] == 5 * 20, seed
        assert all(a > b for a, b in zip(calls["refine"], calls["refine"][1:])), seed
        refinements += len(calls["refine"])
    # round-off decides the accepts: most runs refine in one or two calls
    assert refinements <= 2 * 10


@pytest.mark.parametrize("d,N,M", DESK_GRID + [(8, 1, 4), (4, 5, 9)])
def test_sampler_calls_hold_at_most_a_chunk(d, N, M, monkeypatch):
    # each values() call of the sampled suprema forms the Kraus images once
    channel = optimal_cloner(ClonerSpec(d, N, M))
    chunk = cloner._chunk_size(channel)
    kraus_images = cloner.Channel.kraus_images
    sizes = []

    def counting(self, v):
        sizes.append(len(v))
        return kraus_images(self, v)

    monkeypatch.setattr(cloner.Channel, "kraus_images", counting)
    # a full chunk and five chains; then one chain, which scores up to a
    # chunk of steps ahead per call, and keeps delta_all cheap at d = 8
    delta_one_numeric(channel, samples=chunk, seed=2)
    assert max(sizes[1:]) <= chunk
    if (d, N, M) == (8, 1, 4):
        # past the byte budget refinement still scores steps ahead, 3 of
        # each of the five chains in its first 16-state call
        assert max(sizes[1:]) > 5
    delta_all_numeric(ClonerSpec(d, N, M), samples=1, seed=2)
    assert max(sizes) == max(chunk, 5)
    # sampling makes one call per run, refinement at most 20
    assert len(sizes) <= 2 * (1 + 20)


# 50-sample suprema, recorded before refinement took its calls' size from
# _chunk_size: refinement takes the same steps whatever its batch, so the
# values are bit for bit those of the refinement sized by the byte budget
# alone (in lockstep at (8,1,4) and (4,5,9); 12 states a call at (4,1,5))
SAMPLED_SUPREMA_HEX = {
    (4, 1, 5): [("0x1.eb851eb851ebep-2", "0x1.db6db6db6db7ep+0"),
                ("0x1.eb851eb851ec0p-2", "0x1.db6db6db6db7bp+0"),
                ("0x1.eb851eb851ebcp-2", "0x1.db6db6db6db7cp+0")],
    (8, 1, 4): [("0x1.2aaaaaaaaaaaep-1", "0x1.f3967f3967f46p+0"),
                ("0x1.2aaaaaaaaaaaep-1", "0x1.f3967f3967f46p+0"),
                ("0x1.2aaaaaaaaaaafp-1", "0x1.f3967f3967f49p+0")],
    (4, 5, 9): [("0x1.2f684bda12f75p-3", "0x1.7dac37dac37f8p+0"),
                ("0x1.2f684bda12f75p-3", "0x1.7dac37dac37f2p+0"),
                ("0x1.2f684bda12f73p-3", "0x1.7dac37dac37f6p+0")],
}


@pytest.mark.parametrize("d,N,M", SAMPLED_SUPREMA_HEX)
def test_sampled_suprema_pinned(d, N, M):
    spec = ClonerSpec(d, N, M)
    channel = optimal_cloner(spec)
    got = [(delta_one_numeric(channel, samples=50, seed=seed).hex(),
            delta_all_numeric(spec, samples=50, seed=seed).hex()) for seed in range(3)]
    assert got == SAMPLED_SUPREMA_HEX[d, N, M]
