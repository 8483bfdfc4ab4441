"""CP-map machinery: Choi, twirl, covariance, direct omega, qubit components."""
import hashlib
import itertools
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cloneopt import (
    ChannelPropertyError,
    ClonerSpec,
    CandidatePoint,
    DimensionGuardError,
    choi,
    covariance_defect,
    delta_all_numeric,
    delta_one_closed_form,
    delta_one_numeric,
    enumerate_W1,
    haar_state,
    omega_measure,
    omega_of_point,
    one_body_operator,
    optimal_cloner,
    product_power,
    single_site_marginal,
    su2_component_cloner,
    sym_dimension,
    sym_embed,
)
from cloneopt.channels import (
    _factor_eigvalsh,
    choi_rows,
    conjugate_channel,
    haar_unitary,
    kron_power,
    min_choi_eigenvalue,
    su2_coupling_isometry,
    symmetric_rep,
    traceless_hermitian_basis,
    twirl_choi,
)
from cloneopt import channels, cloner
from cloneopt.cloner import Channel, refine_supremum, single_clone_marginal

from reference import constant_output_channel, spin_embedding


def identity_channel(d):
    return Channel(kraus=[np.eye(d, dtype=complex)], d=d, n_in=1, m_out=1)


def test_choi_of_identity_channel():
    C = choi(identity_channel(2))
    bell = np.zeros(4)
    bell[[0, 3]] = 1 / math.sqrt(2)
    assert np.allclose(C, 2 * np.outer(bell, bell), atol=1e-12)


def test_choi_cp_tp_checks():
    channel = optimal_cloner(ClonerSpec(2, 1, 2))
    assert min_choi_eigenvalue(channel) >= -1e-10
    assert channel.completeness_defect() < 1e-10
    # a deliberately non-TP Kraus family fails the completeness check
    broken = Channel(kraus=[0.5 * np.eye(2, dtype=complex)], d=2, n_in=1, m_out=1)
    assert broken.completeness_defect() > 1e-10


def test_haar_unitary_properties():
    rng = np.random.default_rng(5)
    u = haar_unitary(3, rng)
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
    rng2 = np.random.default_rng(5)
    assert np.array_equal(u, haar_unitary(3, rng2))


@pytest.mark.parametrize("d,N,M", [(2, 1, 2), (2, 2, 3), (3, 1, 2)])
def test_covariance_of_optimal_cloner(d, N, M):
    channel = optimal_cloner(ClonerSpec(d, N, M))
    assert covariance_defect(channel, samples=50, seed=0) < 1e-10


def test_covariance_defect_detects_bias():
    channel = constant_output_channel(2, 1, 2)
    assert covariance_defect(channel, samples=20, seed=0) > 0.1


def test_twirl_fixed_point():
    channel = optimal_cloner(ClonerSpec(2, 1, 2))
    averaged = twirl_choi(channel, samples=60, seed=3)
    dist = np.max(np.abs(np.linalg.eigvalsh(averaged - choi(channel))))
    assert dist < 1e-10  # exact fixed point, only roundoff accumulates


def test_twirl_single_sample_is_one_rotation():
    channel = optimal_cloner(ClonerSpec(2, 1, 2))
    rng = np.random.default_rng(9)
    u = haar_unitary(2, rng)
    one = twirl_choi(channel, samples=1, seed=9)
    assert np.max(np.abs(one - choi(conjugate_channel(channel, u)))) < 1e-10


def test_twirl_choi_needs_a_sample():
    with pytest.raises(ValueError):
        twirl_choi(optimal_cloner(ClonerSpec(2, 1, 2)), samples=0)


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("estimate", [twirl_choi, covariance_defect, delta_one_numeric,
                                      delta_all_numeric], ids=lambda f: f.__name__)
def test_estimators_need_a_sample(estimate, samples, monkeypatch):
    # a run with no draw is refused, not scored 0.0 (the 5-sample defect
    # of this channel is 0.99); the suprema refuse before their first draw
    def refuse(channel):
        raise AssertionError("drew past the samples check")

    monkeypatch.setattr(cloner, "_chunk_size", refuse)
    subject = constant_output_channel(2, 1, 2)
    if estimate is delta_all_numeric:
        subject = ClonerSpec(2, 1, 2)
    with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
        estimate(subject, samples=samples)


@pytest.mark.parametrize("estimate", [twirl_choi, covariance_defect])
def test_choi_estimators_check_samples_before_the_choi_guard(estimate):
    # Choi side 153 * 171 = 26163: the samples check comes first, so no
    # buffer of that side is sized either
    with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
        estimate(optimal_cloner(ClonerSpec(3, 16, 17)), samples=0)


def test_twirl_washes_out_direction():
    channel = constant_output_channel(2, 1, 2)
    averaged = twirl_choi(channel, samples=400, seed=1)
    # single-site marginal of the twirl is gamma' sigma + (1-gamma')/d
    # with gamma' near zero
    psi = haar_state(2, seed=21)
    v = product_power(psi, 1)
    C = averaged.reshape(channel.in_dim, channel.out_dim, channel.in_dim, channel.out_dim)
    out = np.einsum("ij,iajb->ab", np.outer(v, v.conj()), C)
    marg = single_site_marginal(out, 2, 2)
    gamma_est = float(np.real(np.vdot(psi.projector() - np.eye(2) / 2, marg))) / (
        float(np.real(np.vdot(psi.projector() - np.eye(2) / 2,
                              psi.projector() - np.eye(2) / 2)))
    )
    assert abs(gamma_est) < 0.05


def test_omega_measure_values():
    assert abs(omega_measure(optimal_cloner(ClonerSpec(2, 1, 2))) - 4 / 3) < 1e-10
    assert abs(omega_measure(optimal_cloner(ClonerSpec(3, 2, 4))) - 7 / 5) < 1e-10
    assert abs(omega_measure(identity_channel(2)) - 1.0) < 1e-10


def test_omega_measure_rejects_non_covariant():
    with pytest.raises(ChannelPropertyError):
        omega_measure(constant_output_channel(2, 1, 2))


def test_omega_residual_is_the_direct_fit():
    # the per-generator form hypot(res, own - omega) against |L - omega R|/|R|
    channel = constant_output_channel(2, 1, 2)
    d = channel.d
    pairs = [(channel.apply_observable(one_body_operator(a, d, channel.m_out)),
              one_body_operator(a, d, channel.n_in)) for a in traceless_hermitian_basis(d)]
    omega = (sum(np.real(np.vdot(R, L)) for L, R in pairs)
             / sum(np.real(np.vdot(R, R)) for L, R in pairs))
    direct = max(np.linalg.norm(L - omega * R) / np.linalg.norm(R) for L, R in pairs)
    with pytest.raises(ChannelPropertyError, match=re.escape(f"residual {direct:.2e})") + "$"):
        omega_measure(channel)


def test_omega_measure_holds_one_generator_at_a_time():
    # (4, 8, 8) has d^2 - 1 = 15 generators, each a pair (L, R) of side 165:
    # 30 such matrices if every pair is kept until the residual
    channel = optimal_cloner(ClonerSpec(4, 8, 8))
    omega_measure(channel)  # fill the table caches
    matrix = 16 * channel.in_dim ** 2
    tracemalloc.start()
    try:
        omega_measure(channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * matrix, peak / matrix


def test_omega_measure_rejects_trivial_input():
    # an N = 0 channel has no input-side generator to fit omega against
    channel = su2_component_cloner(CandidatePoint((2, 0), (0, 0)))
    assert channel.n_in == 0
    with pytest.raises(ValueError, match=r"^omega is undefined for N = 0 \(trivial input\)$"):
        omega_measure(channel)


def test_delta_one_numeric_matches_closed_form():
    spec = ClonerSpec(2, 1, 2)
    est = delta_one_numeric(optimal_cloner(spec), samples=200, seed=0)
    closed = float(delta_one_closed_form(spec))
    assert closed - 1e-9 <= est <= closed + 2e-3


def test_delta_one_numeric_identity():
    assert delta_one_numeric(identity_channel(2), samples=20, seed=0) < 1e-10


# --- qubit component cloners ------------------------------------------------


def test_spin_embedding_isometry():
    for alpha, M in [(Fraction(1), 2), (Fraction(1, 2), 3), (Fraction(2), 4),
                     (Fraction(1), 4)]:
        W = spin_embedding(alpha, M)
        assert W.shape == (2**M, int(2 * alpha) + 1)
        assert np.allclose(W.conj().T @ W, np.eye(W.shape[1]), atol=1e-10)


def test_spin_embedding_parity_guard():
    with pytest.raises(ValueError):
        spin_embedding(Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        spin_embedding(Fraction(3), 4)


def looped_spin_embedding(alpha, M):
    """Oracle: the highest-weight vector |0...0> (x) singlets, lowered one
    column at a time by total J_- over all 2^M amplitudes."""
    two_alpha = int(2 * alpha)
    hw = np.array([1.0], dtype=complex)
    for _ in range(two_alpha):
        hw = np.kron(hw, np.array([1.0, 0.0], dtype=complex))
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    for _ in range((M - two_alpha) // 2):
        hw = np.kron(hw, singlet)

    def lower(vec):
        out = np.zeros_like(vec)
        for x in range(vec.shape[0]):
            if vec[x] == 0:
                continue
            for k in range(M):
                bit = 1 << (M - 1 - k)
                if not x & bit:  # site k is |0> = spin up
                    out[x | bit] += vec[x]
        return out

    cols = [hw]
    m = alpha
    while m > -alpha:
        cols.append(lower(cols[-1]) / math.sqrt(float((alpha + m) * (alpha - m + 1))))
        m -= 1
    return np.column_stack(cols)


def test_spin_embedding_matches_lowering_loop():
    for M in range(11):
        for two_alpha in range(M % 2, M + 1, 2):
            alpha = Fraction(two_alpha, 2)
            W = spin_embedding(alpha, M)
            assert np.max(np.abs(W - looped_spin_embedding(alpha, M))) <= 1e-15, (alpha, M)


def spin_lowering(j):
    """J_- in the basis |j, j>, ..., |j, -j>, as su2_coupling_isometry
    builds it: one spin moved from up to down on 2j qubits."""
    return one_body_operator([[0, 0], [1, 0]], 2, int(2 * j))


def test_spin_lowering_matrix_elements():
    for two_j in range(20):
        j = Fraction(two_j, 2)
        expected = np.zeros((two_j + 1,) * 2, dtype=complex)
        for k in range(two_j):
            m = j - k
            expected[k + 1, k] = math.sqrt(float((j + m) * (j - m + 1)))
        assert np.array_equal(spin_lowering(j), expected), j


def test_component_cloner_refuses_large_m_before_building():
    # no 2^M object: M = 13 builds, on Sym^13
    assert su2_component_cloner(CandidatePoint((13, 0), (1, 0))).out_dim == 14
    # the coupled side (2 alpha + 1)(2 beta + 1) is 65 * 64, above the guard
    start = time.perf_counter()
    with pytest.raises(DimensionGuardError, match=(
            r"^coupled spin space of side \(2 alpha \+ 1\)\(2 beta \+ 1\) = 65 \* 64 = 4160 "
            r"exceeds guard 4096$")):
        su2_component_cloner(CandidatePoint((64, 0), (1, 0)))
    assert time.perf_counter() - start < 1.0


def test_coupling_isometry_intertwines():
    alpha, beta, gamma = Fraction(1), Fraction(1, 2), Fraction(1, 2)
    V = su2_coupling_isometry(alpha, beta, gamma)
    assert np.allclose(V.conj().T @ V, np.eye(int(2 * gamma) + 1), atol=1e-10)
    # check the intertwining property against the total lowering operator
    lower_g = spin_lowering(gamma)
    lower_tot = np.kron(spin_lowering(alpha), np.eye(int(2 * beta) + 1)) + np.kron(
        np.eye(int(2 * alpha) + 1), spin_lowering(beta)
    )
    assert np.max(np.abs(lower_tot @ V - V @ lower_g)) < 1e-10


def test_component_cloner_triangle_guard():
    for m, mu in [
        ((1, 2), (1, 0)),  # m not dominant
        ((3, 1), (3, 0)),  # mu_1 above m_1 - m_2: the spin triangle fails
        ((2, -1), (1, 0)),  # m_2 negative
        ((2, 1, 0), (1, 0, 0)),  # not a qubit label
    ]:
        with pytest.raises(ValueError):
            su2_component_cloner(CandidatePoint(m, mu))


# sha256 of the Kraus stacks of every point of enumerate_W1(2, N, M),
# N in 0..4 outside M in 0..8 except N = M = 0, in enumeration order
COMPONENT_KRAUS_SHA256 = "a023bebfdf1453d7308f75a660913a715620de491c7c11babd78364b46a90812"
# the same stacks pushed into the label's M qubits by spin_embedding: the
# digest of the components when they were built on the full tensor space
EMBEDDED_KRAUS_SHA256 = "dc59b8b9af697c8524106920c37ff104174244073d114ae850849528f67a445c"


def test_component_cloner_kraus_digest():
    digest, embedded = hashlib.sha256(), hashlib.sha256()
    for N in range(5):
        for M in range(9):
            if N == M == 0:
                continue
            for point in enumerate_W1(2, N, M):
                kraus = su2_component_cloner(point).kraus
                digest.update(np.ascontiguousarray(kraus).tobytes())
                W = spin_embedding(Fraction(point.m[0] - point.m[1], 2), M)
                embedded.update(np.ascontiguousarray(W @ kraus).tobytes())
    assert digest.hexdigest() == COMPONENT_KRAUS_SHA256
    assert embedded.hexdigest() == EMBEDDED_KRAUS_SHA256


@pytest.mark.parametrize("N,M", [(1, 2), (1, 3), (2, 3), (2, 4)])
def test_component_cloner_cp_tp_and_omega(N, M):
    for point in enumerate_W1(2, N, M):
        channel = su2_component_cloner(point)
        assert channel.completeness_defect() < 1e-10
        assert min_choi_eigenvalue(channel) >= -1e-10
        assert covariance_defect(channel, samples=5, seed=0) < 1e-10, point
        exact = float(omega_of_point(point, 2, N, M))
        assert abs(omega_measure(channel) - exact) < 1e-8, point


def test_optimal_labels_reproduce_optimal_cloner():
    for N, M in [(1, 2), (2, 3), (1, 3)]:
        component = su2_component_cloner(CandidatePoint((M, 0), (N, 0)))
        reference = optimal_cloner(ClonerSpec(2, N, M))
        dist = np.max(np.abs(np.linalg.eigvalsh(choi(component) - choi(reference))))
        assert dist < 1e-8


def test_choi_and_twirl_guard_refuse_before_allocating():
    channel = optimal_cloner(ClonerSpec(3, 16, 17))  # Choi side 153 * 171 = 26163
    with pytest.raises(DimensionGuardError):
        choi(channel)
    with pytest.raises(DimensionGuardError):
        twirl_choi(channel, samples=1)


def test_factor_checks_answer_past_the_choi_guard():
    # at Choi side 26163 a dense Choi matrix would take 11 GB; the Kraus
    # factors of the CP check and the covariance defect hold 3 and 6 rows
    channel = optimal_cloner(ClonerSpec(3, 16, 17))
    tracemalloc.start()
    try:
        least = min_choi_eigenvalue(channel)
        defect = covariance_defect(channel, samples=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert least >= -1e-10
    assert defect < 1e-10
    assert peak < 64 * 2**20, peak


# --- the batched sampler against the per-state loop it replaced ------------


def sequential_refine(value_fn, psi0, seed, iters=20):
    """Oracle: one refinement chain, one state per evaluation."""
    rng = np.random.default_rng(seed)
    best_psi = np.asarray(psi0, dtype=complex)
    best = value_fn(best_psi)
    step = 0.3
    for _ in range(iters):
        z = rng.normal(size=best_psi.shape[0]) + 1j * rng.normal(size=best_psi.shape[0])
        cand = best_psi + step * z
        # the row-wise norm of the lockstep chains, not the vector norm,
        # which differs by an ulp on some rows
        cand /= np.linalg.norm(cand[None], axis=1)[0]
        val = value_fn(cand)
        if val > best:
            best, best_psi = val, cand
        else:
            step *= 0.7
    return best


def reference_delta_one(channel, samples, seed):
    """Oracle: delta_one_numeric evaluated one sampled state at a time."""
    d, N, M = channel.d, channel.n_in, channel.m_out

    def value(amps):
        v = product_power(amps, N)
        marg = single_site_marginal(channel.apply(np.outer(v, v.conj())), d, M)
        vals = np.linalg.eigvalsh(marg - np.outer(amps, amps.conj()))
        return float(np.sum(vals[vals > 0]))

    draws, *chains = np.random.SeedSequence(seed).spawn(6)
    rng = np.random.default_rng(draws)
    scored = []
    for _ in range(samples):
        z = rng.standard_normal((2, d))
        amps = z[0] + 1j * z[1]
        amps /= np.linalg.norm(amps)
        scored.append((value(amps), amps))
    best = max([0.0] + [val for val, _ in scored])
    for rank, (_, amps) in enumerate(sorted(scored, key=lambda t: -t[0])[:5]):
        best = max(best, sequential_refine(value, amps, chains[rank]))
    return best


def records(values):
    """Accepted steps of a chain from the values it was given in order:
    the start's, then one per step, each accepted iff it beats all before."""
    return sum(v > max(values[:i]) for i, v in enumerate(values) if i)


REFINE_OBJECTIVES = {
    # non-constant, with both accepted and rejected steps
    "mixed": lambda psi: float(np.abs(psi[0]) ** 2 - 0.5 * np.abs(psi[1]) ** 2 + 0.3 * psi[2].real),
    # never accepts a step
    "constant": lambda psi: 0.25,
    # linear in the amplitudes, so from Haar starts most steps climb
    "climbing": lambda psi: float(psi[0].real),
}


def test_lockstep_refinement_equals_sequential_chains():
    # batch 5 is the lockstep loop; every batch takes the sequential steps
    starts = np.array([haar_state(3, seed=s).amplitudes for s in range(5)])
    seeds = [40 + rank for rank in range(5)]
    for (objective, value), iters, batch in itertools.product(
            REFINE_OBJECTIVES.items(), [0, 1, 20], [1, 5, 16, 64]):
        case = (objective, iters, batch)
        scores = np.array([value(p) for p in starts])
        ahead = refine_supremum(lambda rows: np.array([value(p) for p in rows]),
                                starts, scores, seeds, iters=iters, batch=batch)
        seen = [[] for _ in seeds]

        def logged(rank):
            return lambda psi: seen[rank].append(value(psi)) or seen[rank][-1]

        sequential = [sequential_refine(logged(rank), psi, seed, iters=iters)
                      for rank, (psi, seed) in enumerate(zip(starts, seeds))]
        assert ahead.tolist() == sequential, case
        accepted = sum(records(chain) for chain in seen)
        if objective == "constant":
            assert accepted == 0, case
        if objective == "climbing":
            assert 3 * accepted >= 5 * iters, case
        if objective == "mixed" and iters == 20:
            assert len(set(sequential)) == 5 and 0 < accepted < 5 * iters, case


@pytest.mark.parametrize("iters", [0, 1, 20])
def test_refinement_calls_are_few_and_bounded(iters):
    starts = np.array([haar_state(3, seed=s).amplitudes for s in range(5)])
    for (objective, value), batch in itertools.product(REFINE_OBJECTIVES.items(), [1, 5, 16, 64]):
        case = (objective, batch)
        calls = []

        def values(rows):
            calls.append(len(rows))
            return np.array([value(p) for p in rows])

        scores = np.array([value(p) for p in starts])
        best = refine_supremum(values, starts, scores, list(range(5)), iters=iters, batch=batch)
        assert len(calls) <= iters, case
        assert max(calls, default=0) <= max(batch, 5), case
        assert np.all(best >= scores), case
        if objective == "constant":
            assert len(calls) == math.ceil(iters / max(1, batch // 5)), case


@pytest.mark.parametrize("channel", [
    identity_channel(2), identity_channel(3), constant_output_channel(2, 1, 2),
    su2_component_cloner(CandidatePoint((3, 0), (1, 0))),
    su2_component_cloner(CandidatePoint((2, 1), (1, 0))),
    su2_component_cloner(CandidatePoint((3, 1), (1, 1))),
])
def test_delta_one_numeric_matches_per_state_loop(channel):
    batched = delta_one_numeric(channel, samples=37, seed=5)
    assert abs(batched - reference_delta_one(channel, 37, 5)) < 1e-12


@pytest.mark.parametrize("channel", [
    optimal_cloner(ClonerSpec(3, 2, 4)),
    constant_output_channel(3, 1, 2),
    conjugate_channel(su2_component_cloner(CandidatePoint((2, 1), (1, 0))),
                      haar_unitary(2, np.random.default_rng(3))),
])
def test_batched_marginal_is_the_stack_of_single_marginals(channel):
    # delta_one_numeric scores its batches through single_clone_marginal.
    # Not bit for bit: one state takes a matrix-vector product in
    # kraus_images and a batch a matrix product, and np.prod in
    # product_power reduces a batch in another order; both round apart in
    # the last bit
    amps = np.array([haar_state(channel.d, seed).amplitudes for seed in range(5)])
    stack = np.array([single_clone_marginal(channel, a) for a in amps])
    batch = single_clone_marginal(channel, amps)
    assert batch.shape == (5, channel.d, channel.d)
    assert np.max(np.abs(batch - stack)) <= 1e-15


# Values printed with 200 samples each.  The covariant rows are the closed
# form up to rounding; the sampler seeded once per run from SeedSequence(seed)
# still gives them within 1e-12 of the values pinned before it.  The
# constant-output channel is not covariant, so its value depends on every
# sampled and refined state: those rows are pinned from that sampler.
PINNED = [
    ("delta_one", 2, 2, 5, 0, 0.15000000000000033),
    ("delta_one", 2, 2, 5, 12345, 0.15000000000000024),
    ("delta_one", 3, 2, 4, 0, 0.20000000000000023),
    ("delta_one", 3, 2, 4, 12345, 0.20000000000000023),
    ("delta_one", 4, 2, 4, 0, 0.25000000000000033),
    ("delta_one", 4, 2, 4, 12345, 0.2500000000000004),
    ("delta_all", 2, 2, 5, 0, 1.0000000000000024),
    ("delta_all", 2, 2, 5, 12345, 1.0000000000000024),
    ("delta_all", 3, 2, 4, 0, 1.2000000000000022),
    ("delta_all", 3, 2, 4, 12345, 1.200000000000002),
    ("delta_all", 4, 2, 4, 0, 1.428571428571433),
    ("delta_all", 4, 2, 4, 12345, 1.428571428571433),
    ("constant", 2, 1, 2, 0, 0.9999964218424131),
    ("constant", 2, 1, 2, 12345, 0.9999973924351571),
    ("constant", 3, 1, 2, 0, 0.9999956855502118),
    ("constant", 3, 1, 2, 12345, 0.9999922000273239),
]


@pytest.mark.parametrize("kind,d,N,M,seed,value", PINNED)
def test_sampled_values_pinned(kind, d, N, M, seed, value):
    if kind == "delta_all":
        got = delta_all_numeric(ClonerSpec(d, N, M), samples=200, seed=seed)
    else:
        channel = (optimal_cloner(ClonerSpec(d, N, M)) if kind == "delta_one"
                   else constant_output_channel(d, N, M))
        got = delta_one_numeric(channel, samples=200, seed=seed)
    assert abs(got - value) < 1e-12


# The constant-output channel at the default 2000 samples, where refinement
# accepts often, pinned to the last digit before refinement scored each
# chain's steps ahead.
@pytest.mark.parametrize("d,seed,value", [
    (2, 0, "0.9999995958566024"),
    (2, 12345, "0.9999999424827574"),
    (3, 0, "0.9999985749797062"),
    (3, 12345, "0.9999997508955759"),
])
def test_constant_channel_default_samples_pinned(d, seed, value):
    assert repr(delta_one_numeric(constant_output_channel(d, 1, 2), seed=seed)) == value


def test_sampled_value_does_not_depend_on_chunk(monkeypatch):
    # the constant channel is not covariant: its value depends on every
    # sampled state; delta_all runs on the real-arithmetic path
    channel = constant_output_channel(3, 1, 2)
    spec = ClonerSpec(3, 2, 4)
    runs = [(channel, lambda: delta_one_numeric(channel, samples=37, seed=5)),
            (optimal_cloner(spec), lambda: delta_all_numeric(spec, samples=37, seed=5))]
    for subject, run in runs:
        budget = cloner._chunk_size(subject)
        assert budget > 64  # the byte rule, not the 16-state floor
        got = []
        # fixed chunk sizes, and the one the byte rule picks for this channel
        for chunk in (1, 7, 16, 64, budget):
            asked = []
            monkeypatch.setattr(cloner, "_chunk_size",
                                lambda ch, chunk=chunk: asked.append(ch) or chunk)
            got.append(run())
            # delta_one is handed the channel itself, delta_all its own copy
            assert len(asked) == 1
            assert (asked[0] is channel if subject is channel
                    else np.array_equal(asked[0].kraus, subject.kraus))
        monkeypatch.undo()
        assert len({value.hex() for value in got}) == 1, got


def test_sampled_states_are_a_prefix_of_longer_runs(monkeypatch):
    monkeypatch.setattr(cloner, "refine_supremum",
                        lambda values, starts, scores, seeds, batch: np.zeros(len(starts)))

    def drawn(samples):
        seen = []

        def values(amps):
            seen.append(amps.copy())
            return np.zeros(len(amps))

        cloner._sampled_supremum(values, identity_channel(3), samples, seed=5)
        return np.concatenate(seen)

    short, long = drawn(10), drawn(40)
    assert short.shape == (10, 3) and long.shape == (40, 3)
    assert np.array_equal(short, long[:10])
    assert np.allclose(np.linalg.norm(long, axis=1), 1, atol=1e-15)


def test_one_seed_sequence_per_sampler_run(monkeypatch):
    created = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        created.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    delta_one_numeric(optimal_cloner(ClonerSpec(2, 1, 2)), samples=40, seed=3)
    assert created == [(3,)]
    delta_all_numeric(ClonerSpec(2, 1, 3), samples=40, seed=4)
    assert created == [(3,), (4,)]


def test_sampler_memory_does_not_grow_with_samples():
    # states are drawn and scored one chunk at a time, as many as the byte
    # budget holds (4369 here); drawing all of them first would hold 64
    # bytes more a state, 1.7 MB more at 8 chunks than at 2
    channel = optimal_cloner(ClonerSpec(2, 1, 2))
    chunk = cloner._chunk_size(channel)
    delta_one_numeric(channel, samples=20, seed=1)  # fill the table caches
    peaks = {}
    for samples in (2 * chunk, 8 * chunk):
        tracemalloc.start()
        try:
            delta_one_numeric(channel, samples=samples, seed=1)
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8 * chunk] <= peaks[2 * chunk] + 16 * 1024, peaks


# --- symmetric representations and Choi spectra without d^M matrices -------


def dense_symmetric_rep(u, N):
    """Oracle: u^{x N} on the full tensor space, compressed by the
    occupation-basis embedding E."""
    E = sym_embed(u.shape[0], N)
    return E.conj().T @ kron_power(u, N) @ E


@pytest.mark.parametrize("d,N", [(2, 1), (2, 5), (3, 4), (4, 3), (2, 10), (3, 7), (8, 2)])
def test_symmetric_rep_matches_dense_oracle(d, N):
    u = haar_unitary(d, np.random.default_rng(10 * d + N))
    assert np.max(np.abs(symmetric_rep(u, N) - dense_symmetric_rep(u, N))) < 1e-12


@pytest.mark.parametrize("d,N", [(2, 64), (3, 20), (4, 10), (8, 3)])
def test_symmetric_rep_is_a_unitary_homomorphism(d, N):
    rng = np.random.default_rng(d * N)
    u, v = haar_unitary(d, rng), haar_unitary(d, rng)
    S_u = symmetric_rep(u, N)
    assert np.max(np.abs(S_u @ S_u.conj().T - np.eye(sym_dimension(d, N)))) < 1e-12
    assert np.max(np.abs(S_u @ symmetric_rep(v, N) - symmetric_rep(u @ v, N))) < 1e-12


@pytest.mark.parametrize("gap", [1e-4, 1e-12, 0.0])
@pytest.mark.parametrize("near_minus_one", [False, True])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_symmetric_rep_survives_close_eigenvalues(d, gap, near_minus_one):
    # Sym^1(u) = u; two eigenphases gap apart, optionally straddling pi
    rng = np.random.default_rng(d)
    q = haar_unitary(d, rng)
    phases = rng.uniform(-np.pi, np.pi, d)
    phases[:2] = (np.pi - gap / 2, gap / 2 - np.pi) if near_minus_one else (0.3, 0.3 + gap)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    assert np.max(np.abs(symmetric_rep(u, 1) - u)) < 1e-12
    assert np.max(np.abs(symmetric_rep(u, 4) - dense_symmetric_rep(u, 4))) < 1e-12


def factor_test_channels():
    # R Kraus operators against the Choi side in_dim * out_dim: with 2R
    # below the side both X and [X_u X_0] go through a QR, with R at or
    # above it neither does (T is the factor itself), and in between X
    # alone does and [X_u X_0] does not
    return [
        optimal_cloner(ClonerSpec(2, 1, 2)),  # R 2, side 6
        optimal_cloner(ClonerSpec(2, 1, 3)),  # R 3, side 8
        optimal_cloner(ClonerSpec(3, 2, 4)),  # R 3, side 90
        optimal_cloner(ClonerSpec(3, 3, 3)),  # R 1, side 100
        constant_output_channel(2, 1, 3),  # R 2, side 8
        constant_output_channel(2, 2, 2),  # R 3, side 9
        su2_component_cloner(CandidatePoint((3, 1), (1, 1))),  # R 3, side 48
        Channel(kraus=[np.eye(2, dtype=complex) / math.sqrt(3)] * 3, d=2, n_in=1, m_out=1),  # R 3, side 4
        Channel(kraus=[np.eye(2, dtype=complex) / 2] * 4, d=2, n_in=1, m_out=1),  # R 4, side 4
    ]


@pytest.mark.parametrize("channel", factor_test_channels())
def test_factor_spectra_match_dense_eigvalsh(channel, monkeypatch):
    C0 = choi(channel)
    assert np.allclose(choi_rows(channel).T @ choi_rows(channel).conj(), C0, atol=1e-14)
    dense = np.linalg.eigvalsh(C0)
    assert np.max(np.abs(padded_to_side(_factor_eigvalsh(choi_rows(channel)), len(C0)) - dense)) < 1e-12
    assert abs(min_choi_eigenvalue(channel) - dense[0]) < 1e-12
    u = haar_unitary(channel.d, np.random.default_rng(3))
    rotated = conjugate_channel(channel, u)
    dense_diff = np.linalg.eigvalsh(choi(rotated) - C0)
    R = len(channel.kraus)
    fast_diff = _factor_eigvalsh(np.concatenate([choi_rows(rotated), choi_rows(channel)]), negative=R)
    assert np.max(np.abs(padded_to_side(fast_diff, len(C0)) - dense_diff)) < 1e-12
    # stacked factors: leading axes (2, 3), six rotations against the channel
    rng = np.random.default_rng(4)
    X = np.array([choi_rows(conjugate_channel(channel, haar_unitary(channel.d, rng)))
                  for _ in range(6)]).reshape((2, 3) + choi_rows(channel).shape)
    assert_factor_spectra(np.concatenate([X, np.broadcast_to(choi_rows(channel), X.shape)], axis=-2), R)
    assert_factor_spectra(X)
    # at least as many rows (factor columns) as the side: no QR is taken
    wide = X[..., :R]
    monkeypatch.setattr(np.linalg, "qr", None)
    assert_factor_spectra(wide)
    fixed = np.broadcast_to(choi_rows(channel)[:, :R], wide.shape)
    assert_factor_spectra(np.concatenate([wide, fixed], axis=-2), R)


def padded_to_side(vals, side):
    """A spectrum from _factor_eigvalsh with its missing zeros put back."""
    pad = np.zeros(vals.shape[:-1] + (side - vals.shape[-1],))
    return np.sort(np.concatenate([vals, pad], axis=-1), axis=-1)


def assert_factor_spectra(rows, negative=0):
    """_factor_eigvalsh on stacked factors given as rows (..., k, side):
    ascending, min(k, side) eigenvalues, and once padded with zeros to the
    side the dense spectrum of each F J F^*."""
    got = _factor_eigvalsh(rows, negative)
    k, side = rows.shape[-2:]
    assert got.shape == rows.shape[:-2] + (min(k, side),)
    assert np.all(np.diff(got, axis=-1) >= 0)
    signs = np.r_[np.ones(k - negative), -np.ones(negative)]
    for idx in np.ndindex(*rows.shape[:-2]):
        F = rows[idx].T
        op = (F * signs) @ F.conj().T
        assert np.max(np.abs(padded_to_side(got[idx], side) - np.linalg.eigvalsh(op))) < 1e-12


def padded_factor_eigvalsh(X, Y=None):
    """Oracle: the factor solve as it was before it took rows, on factors
    (..., side, k_X) and (..., side, k_Y) joined by a concatenate, its
    spectrum padded with zeros to the side and sorted."""
    A = X if Y is None else np.concatenate([X, Y], axis=-1)
    side, k = A.shape[-2:]
    signs = np.ones(k)
    signs[X.shape[-1]:] = -1.0
    T = np.linalg.qr(A, mode="r") if k < side else A
    vals = np.linalg.eigvalsh((T * signs) @ np.swapaxes(T, -1, -2).conj())
    pad = np.zeros(vals.shape[:-1] + (side - T.shape[-2],))
    return np.sort(np.concatenate([vals, pad], axis=-1), axis=-1)


def copied_choi_factor(channel):
    """Oracle input: the factor X of choi = X X^*, (side, R), as a
    C-contiguous copy."""
    return channel.kraus.transpose(2, 1, 0).reshape(-1, len(channel.kraus))


@pytest.mark.parametrize("channel", factor_test_channels())
def test_factor_callers_match_the_padded_solve_bit_for_bit(channel):
    X0 = copied_choi_factor(channel)
    assert np.array_equal(choi(channel), X0 @ X0.conj().T)
    assert min_choi_eigenvalue(channel).hex() == float(padded_factor_eigvalsh(X0)[0]).hex()
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(3):
            u = haar_unitary(channel.d, rng)
            vals = padded_factor_eigvalsh(copied_choi_factor(conjugate_channel(channel, u)), X0)
            worst = max(worst, float(np.max(np.abs(vals))))
        assert covariance_defect(channel, samples=3, seed=seed).hex() == worst.hex()


def looped_twirl_choi(channel, samples, seed):
    """Oracle: twirl_choi as it was, drawing its own unitaries and taking
    each rotated Choi matrix through choi()."""
    rng = np.random.default_rng(seed)
    acc = np.zeros((channel.in_dim * channel.out_dim,) * 2, dtype=complex)
    for _ in range(samples):
        u = haar_unitary(channel.d, rng)
        acc += choi(conjugate_channel(channel, u))
    return acc / samples


def looped_covariance_defect(channel, samples, seed):
    """Oracle: covariance_defect as it was, drawing its own unitaries."""
    rng = np.random.default_rng(seed)
    R = len(channel.kraus)
    rows = np.empty((2 * R, channel.in_dim * channel.out_dim), dtype=complex)
    rows[R:] = choi_rows(channel)
    worst = 0.0
    for _ in range(samples):
        u = haar_unitary(channel.d, rng)
        rows[:R] = choi_rows(conjugate_channel(channel, u))
        vals = _factor_eigvalsh(rows, negative=R)
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst


@pytest.mark.parametrize("channel", factor_test_channels())
@pytest.mark.parametrize("seed", [0, 7])
def test_rotation_loop_matches_the_loops_it_replaced(channel, seed):
    assert covariance_defect(channel, samples=4, seed=seed).hex() == \
        looped_covariance_defect(channel, 4, seed).hex()
    assert np.array_equal(twirl_choi(channel, samples=4, seed=seed),
                          looped_twirl_choi(channel, 4, seed))


def test_conjugation_matches_dense_oracle():
    channel = constant_output_channel(3, 1, 3)
    u = haar_unitary(3, np.random.default_rng(4))
    U_in, U_out = dense_symmetric_rep(u, 1), dense_symmetric_rep(u, 3)
    dense = [U_out.conj().T @ K @ U_in for K in channel.kraus]
    for K, D in zip(conjugate_channel(channel, u).kraus, dense):
        assert np.max(np.abs(K - D)) < 1e-12



@pytest.mark.parametrize("estimate", [covariance_defect, twirl_choi])
@pytest.mark.parametrize("N,M,built", [(2, 2, [2, 2]), (2, 3, [2, 3, 2, 3])])
def test_one_symmetric_rep_per_draw_at_m_equal_n(estimate, N, M, built, monkeypatch):
    calls = []

    def counting(u, sites):
        calls.append(sites)
        return symmetric_rep(u, sites)

    monkeypatch.setattr(channels, "symmetric_rep", counting)
    estimate(optimal_cloner(ClonerSpec(3, N, M)), samples=2, seed=0)
    assert calls == built
