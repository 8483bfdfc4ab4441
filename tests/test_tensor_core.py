"""Symmetric-subspace substrate: bases, embeddings, marginals."""
import itertools
import math

import numpy as np
import pytest

from cloneopt import (
    DensityOperator,
    DimensionGuardError,
    PureState,
    haar_state,
    occupation_basis,
    one_body_operator,
    product_power,
    single_site_marginal,
    sym_dimension,
    sym_embed,
)
from cloneopt.tensor_core import _product_powers, _table, check_dense_guard

from reference import occupation_index, symmetrizer, transposed_full_marginal


def permutation_average(d, M):
    """Oracle: equal-weight average of all M! permutation matrices."""
    dim = d**M
    acc = np.zeros((dim, dim))
    for perm in itertools.permutations(range(M)):
        P = np.zeros((dim, dim))
        for word in itertools.product(range(d), repeat=M):
            src = 0
            dst = 0
            for k in range(M):
                src = src * d + word[k]
                dst = dst * d + word[perm[k]]
            P[dst, src] = 1.0
        acc += P
    return acc / math.factorial(M)


def test_sym_dimension_values():
    assert sym_dimension(2, 2) == 3
    assert sym_dimension(5, 0) == 1
    assert sym_dimension(3, 2) == 6


def test_sym_dimension_rejects_bad_args():
    with pytest.raises(ValueError):
        sym_dimension(1, 2)
    with pytest.raises(ValueError):
        sym_dimension(2, -1)


def test_occupation_basis_order():
    assert occupation_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert occupation_basis(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    b32 = occupation_basis(3, 2)
    assert len(b32) == 6
    assert b32[0] == (2, 0, 0)
    assert b32[-1] == (0, 0, 2)


@pytest.mark.parametrize("d,N", [(2, 3), (3, 3), (4, 2)])
def test_occupation_basis_counts(d, N):
    basis = occupation_basis(d, N)
    assert len(basis) == sym_dimension(d, N)
    assert len(set(basis)) == len(basis)
    assert all(sum(n) == N and min(n) >= 0 for n in basis)


@pytest.mark.parametrize("d,M", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_symmetrizer_is_permutation_average(d, M):
    S = symmetrizer(d, M)
    assert np.allclose(S, permutation_average(d, M), atol=1e-12)
    assert np.allclose(S, S.conj().T, atol=1e-12)
    assert np.allclose(S @ S, S, atol=1e-12)
    assert round(float(np.trace(S).real)) == sym_dimension(d, M)


def test_symmetrizer_single_site_is_identity():
    assert np.allclose(symmetrizer(2, 1), np.eye(2))


def test_symmetrizer_action_on_01():
    S = symmetrizer(2, 2)
    out = S @ np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, 0.5, 0.5, 0.0])


@pytest.mark.parametrize("d,N", [(2, 1), (2, 3), (3, 2), (4, 2)])
def test_sym_embed_isometry(d, N):
    E = sym_embed(d, N)
    assert E.shape == (d**N, sym_dimension(d, N))
    assert np.allclose(E.conj().T @ E, np.eye(E.shape[1]), atol=1e-12)
    assert np.allclose(E @ E.conj().T, symmetrizer(d, N), atol=1e-12)
    # sandwiching the symmetrizer changes nothing
    assert np.allclose(
        E.conj().T @ symmetrizer(d, N) @ E, np.eye(E.shape[1]), atol=1e-12
    )


def loop_sym_embed(d, N):
    """Oracle: the word-by-word construction, one Python step per word of
    (C^d)^{x N}, with its own occupation index dict."""
    index = {n: j for j, n in enumerate(occupation_basis(d, N))}
    E = np.zeros((d**N, len(index)), dtype=complex)
    fact_N = math.factorial(N)
    for word in itertools.product(range(d), repeat=N):
        row = 0
        for s in word:
            row = row * d + s
        n = tuple(word.count(a) for a in range(d))
        E[row, index[n]] = math.sqrt(math.prod(math.factorial(k) for k in n) / fact_N)
    return E, index


@pytest.mark.parametrize("d,N", [(d, N) for d in range(2, 9) for N in range(13)
                                 if d**N <= 4096])
def test_sym_embed_matches_word_loop(d, N):
    E, index = loop_sym_embed(d, N)
    assert np.array_equal(sym_embed(d, N), E)
    assert occupation_index(d, N) == index


def test_sym_embed_column_amplitudes():
    E = sym_embed(2, 2)
    col = E[:, 1]  # occupation (1, 1)
    assert np.allclose(col, [0.0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0.0])


def test_dense_guard():
    check_dense_guard(2, 12)  # 4096 exactly, allowed
    with pytest.raises(DimensionGuardError):
        check_dense_guard(2, 13)


def test_pure_state_normalization_enforced():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))
    PureState(np.array([1.0, 1.0]) / math.sqrt(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="finite"):
        PureState(np.array([1.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        PureState(np.array([bad, 0.0, 0.0]))


def test_product_power_basis_state():
    psi = PureState(np.array([1.0, 0.0, 0.0]))
    v = product_power(psi, 3)
    assert v[0] == 1.0
    assert np.allclose(v[1:], 0.0)


def test_product_power_plus_state():
    psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    v = product_power(psi, 2)
    assert np.allclose(v, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-12)


@pytest.mark.parametrize("d,N,seed", [(2, 2, 0), (2, 4, 1), (3, 3, 2), (4, 2, 3)])
def test_product_power_matches_literal_tensor_power(d, N, seed):
    psi = haar_state(d, seed)
    v = product_power(psi, N)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    literal = np.array([1.0 + 0j])
    for _ in range(N):
        literal = np.kron(literal, psi.amplitudes)
    assert np.allclose(sym_embed(d, N) @ v, literal, atol=1e-12)


def test_marginal_of_product_state():
    psi = haar_state(3, seed=11)
    v = product_power(psi, 3)
    rho = DensityOperator(np.outer(v, v.conj()), 3, 3)
    assert np.allclose(single_site_marginal(rho), psi.projector(), atol=1e-12)


def test_marginal_of_bell_like_state():
    # (|01> + |10>)/sqrt(2) is the occupation basis vector (1, 1)
    vec = np.array([0.0, 1.0, 0.0])
    assert np.allclose(sym_embed(2, 2) @ vec, np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2))
    rho = DensityOperator(np.outer(vec, vec), 2, 2)
    assert np.allclose(single_site_marginal(rho), np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("d,N,seed", [(2, 3, 4), (3, 2, 5)])
def test_marginal_agrees_between_bases(d, N, seed):
    # random symmetric-basis density matrix, expanded to full tensors
    rng = np.random.default_rng(seed)
    dim = sym_dimension(d, N)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = z @ z.conj().T
    mat /= np.trace(mat)
    rho_sym = DensityOperator(mat, d, N)
    E = sym_embed(d, N)
    rho_full = E @ mat @ E.conj().T
    m_sym = single_site_marginal(rho_sym)
    for site in range(N):
        assert np.allclose(m_sym, transposed_full_marginal(rho_full, d, N, site), atol=1e-12)
    assert abs(np.trace(m_sym) - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(m_sym)) > -1e-12


def test_one_body_operator_full_vs_symmetric():
    d, N = 3, 2
    rng = np.random.default_rng(7)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = z + z.conj().T
    full = per_term_one_body_operator(a, d, N)
    sym = one_body_operator(a, d, N)
    E = sym_embed(d, N)
    assert np.allclose(E.conj().T @ full @ E, sym, atol=1e-12)


def per_term_one_body_operator(a, d, sites):
    """Oracle: sum over k of the kron product with a on site k and the
    identity elsewhere, one term at a time."""
    dim = d**sites
    op = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(d)
    for k in range(sites):
        factors = [eye] * sites
        factors[k] = np.asarray(a, dtype=complex)
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        op += term
    return op


def test_haar_state_deterministic_and_normalized():
    a = haar_state(4, seed=42)
    b = haar_state(4, seed=42)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12


def test_haar_first_component_moment():
    d = 3
    acc = 0.0
    trials = 10000
    for k in range(trials):
        acc += abs(haar_state(d, seed=k).amplitudes[0]) ** 2
    assert abs(acc / trials - 1.0 / d) < 0.02


# --- batched kernels against the per-state loops they replaced -------------


def scalar_product_power(amps, N):
    """Oracle: the term-by-term formula, one state at a time."""
    d = amps.shape[0]
    basis = occupation_basis(d, N)
    out = np.empty(len(basis), dtype=complex)
    for j, n in enumerate(basis):
        coeff = math.sqrt(math.factorial(N) / math.prod(math.factorial(k) for k in n))
        out[j] = coeff * math.prod(amps[i] ** n[i] for i in range(d) if n[i])
    return out


def dict_walk_marginal(matrix, d, N):
    """Oracle: the one-site marginal of a symmetric-basis matrix by walking
    occupation vectors, marg[i, j] = (1/N) tr(rho b_j^dag b_i)."""
    occ = occupation_basis(d, N)
    index = {n: j for j, n in enumerate(occ)}
    marg = np.zeros((d, d), dtype=complex)
    for col, n in enumerate(occ):
        for i in range(d):
            if n[i] == 0:
                continue
            lowered = list(n)
            lowered[i] -= 1
            for j in range(d):
                raised = list(lowered)
                raised[j] += 1
                row = index[tuple(raised)]
                marg[i, j] += matrix[col, row] * math.sqrt(n[i] * (lowered[j] + 1))
    return marg / N


def random_stack(rng, count, dim):
    return rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))


@pytest.mark.parametrize("d,N", [(2, 1), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_batched_product_power_matches_scalar_formula(d, N):
    rng = np.random.default_rng(10 * d + N)
    amps = rng.normal(size=(6, d)) + 1j * rng.normal(size=(6, d))
    amps[2, 0] = 0.0  # a zero amplitude: 0^0 must count as 1
    amps[3] = 0.0
    amps[3, d - 1] = 1.0
    batch = product_power(amps, N)
    assert batch.shape == (6, sym_dimension(d, N))
    for row, a in zip(batch, amps):
        assert np.allclose(row, scalar_product_power(a, N), rtol=1e-13, atol=1e-15)
    single = product_power(amps[1], N)
    assert np.allclose(single, scalar_product_power(amps[1], N), rtol=1e-13, atol=1e-15)


def own_table_product_power(amps, N):
    """Oracle: product_power as it was before the powers table was
    shared, a table of powers up to N of its own."""
    d = amps.shape[-1]
    table = _table(d, N)
    powers = np.ones(amps.shape + (N + 1,), dtype=complex)
    powers[..., 1:] = np.cumprod(np.repeat(amps[..., None], N, axis=-1), axis=-1)
    terms = powers[..., np.arange(d), table.occ]
    return table.sqrt_multinomial * np.prod(terms, axis=-1)


@pytest.mark.parametrize("d", range(2, 9))
def test_shared_powers_table_is_exact(d):
    rng = np.random.default_rng(d)
    amps = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    for M in range(1, 13):
        own_m = own_table_product_power(amps, M)
        assert np.array_equal(product_power(amps, M), own_m)
        for N in range(1, M + 1):
            shared_n, shared_m = _product_powers(amps, N, M)
            assert np.array_equal(shared_m, own_m)
            if N == 2 < M:
                # numpy rounds the one product of a length-2 running
                # product as a plain a * a, and the first product of a
                # longer one otherwise, so only this prefix may differ
                # from a table of its own
                assert np.allclose(shared_n, own_table_product_power(amps, N), rtol=0, atol=1e-15)
            else:
                # the running product's first N + 1 columns do not depend
                # on how far it runs, so the order is read bit for bit
                assert np.array_equal(shared_n, own_table_product_power(amps, N))
        # real amplitudes read every order up to M from a real table, the
        # real part of the complex table of the same numbers bit for bit
        # (every imaginary part it multiplies is 0)
        real = _product_powers(np.abs(amps), *range(1, M + 1))
        as_complex = _product_powers(np.abs(amps).astype(complex), *range(1, M + 1))
        for got, want in zip(real, as_complex):
            assert got.dtype == np.float64
            assert np.array_equal(got, want.real)


# at (66, 1) occupation vectors read as binary numbers would overflow int64
@pytest.mark.parametrize("d,N", [(2, 1), (2, 4), (3, 3), (4, 2), (4, 4), (66, 1)])
def test_batched_symmetric_marginal_matches_dict_walk(d, N):
    rng = np.random.default_rng(d + 7 * N)
    stack = random_stack(rng, 5, sym_dimension(d, N)).reshape(5, 1, *(sym_dimension(d, N),) * 2)
    margs = single_site_marginal(DensityOperator(stack, d, N))
    assert margs.shape == (5, 1, d, d)
    for marg, mat in zip(margs[:, 0], stack[:, 0]):
        assert np.allclose(marg, dict_walk_marginal(mat, d, N), rtol=1e-13, atol=1e-13)


def test_marginal_needs_a_site():
    with pytest.raises(ValueError):
        single_site_marginal(DensityOperator(np.eye(1), 2, 0))
