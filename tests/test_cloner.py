"""Optimal cloner: fast path vs dense oracle, closed-form constants."""
import math
from fractions import Fraction

import numpy as np
import pytest

from cloneopt import (
    SYMMETRIC_BASIS,
    Channel,
    ClonerSpec,
    DensityOperator,
    all_clone_overlap,
    choi,
    delta_all_numeric,
    delta_one_closed_form,
    dense_cloner_output,
    haar_state,
    optimal_cloner,
    product_power,
    shrinking_factor,
    single_clone_marginal,
    single_site_marginal,
    sym_dimension,
    sym_embed,
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


@pytest.mark.parametrize("d,N,M", DESK_GRID)
def test_trace_preservation(d, N, M):
    assert optimal_cloner(ClonerSpec(d, N, M)).completeness_defect() < 1e-10


def test_apply_broadcasts_over_leading_axes():
    channel = optimal_cloner(ClonerSpec(3, 2, 4))
    rng = np.random.default_rng(8)
    dim = sym_dimension(3, 2)
    stack = rng.normal(size=(2, 3, dim, dim)) + 1j * rng.normal(size=(2, 3, dim, dim))
    out = channel.apply(stack)
    assert out.shape == (2, 3, channel.out_dim, channel.out_dim)
    for idx in np.ndindex(2, 3):
        assert np.allclose(out[idx], channel.apply(stack[idx]), atol=1e-13)
    assert Channel.apply_fast is Channel.apply


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


def test_delta_all_value():
    # d=2, N=1, M=2: || T(sigma) - sigma^2 ||_1 = 2 (1 - 2/3) = 2/3
    est = delta_all_numeric(ClonerSpec(2, 1, 2), samples=50, seed=1)
    assert abs(est - 2 / 3) < 1e-8


def test_delta_all_nondecreasing_in_samples():
    spec = ClonerSpec(2, 1, 3)
    small = delta_all_numeric(spec, samples=10, seed=4)
    large = delta_all_numeric(spec, samples=40, seed=4)
    assert large >= small - 1e-12


def test_to_full_output_preserves_action():
    spec = ClonerSpec(2, 1, 2)
    channel = optimal_cloner(spec)
    full = channel.to_full_output()
    psi = haar_state(2, seed=12)
    v = product_power(psi, 1)
    rho = np.outer(v, v.conj())
    E = sym_embed(2, 2)
    assert np.allclose(
        full.apply(rho), E @ channel.apply(rho) @ E.conj().T, atol=1e-12
    )
    dens = DensityOperator(channel.apply(rho), SYMMETRIC_BASIS, 2, 2)
    marg = single_site_marginal(dens)
    assert abs(np.trace(marg) - 1.0) < 1e-12
