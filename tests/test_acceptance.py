"""Acceptance gate: one test per criterion, each printing a summary line.

Criteria cover the closed-form constants of the optimal cloner, its
numerically measured error functionals, the exact optimization over the
weight-pair domain, the qubit component-cloner realization, and the
representation-theoretic bookkeeping, at the stated tolerances.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from cloneopt import (
    ClonerSpec,
    CandidatePoint,
    adjoint_multiplicity,
    all_clone_overlap,
    choi,
    covariance_defect,
    delta_one_closed_form,
    delta_one_numeric,
    enumerate_W1,
    fund_power_multiplicity,
    haar_state,
    maximize_brute,
    maximize_greedy,
    omega_measure,
    omega_of_point,
    omega_su2,
    optimal_cloner,
    pieri_branch,
    product_power,
    shrinking_factor,
    single_clone_marginal,
    su2_component_cloner,
    sym_dimension,
    weyl_dimension,
)
from cloneopt.channels import min_choi_eigenvalue
from cloneopt.omega_opt import gamma_from_omega
from cloneopt.tensor_core import PureState, sym_embed

from reference import random_feasible_point, transposed_full_marginal


def report(number, text):
    print(f"criterion {number:2d}: PASS  {text}")


def marginal_grid():
    grid = []
    for d, m_cap in ((2, 12), (3, 7)):  # d^M <= 4096
        for M in range(2, m_cap + 1):
            for N in range(1, M):
                grid.append((d, N, M))
    return grid


def test_criterion_01_shrinking_factor_grid():
    for d, N, M in marginal_grid():
        spec = ClonerSpec(d, N, M)
        gamma = float(shrinking_factor(spec))
        psi = haar_state(d, seed=d * 1000 + M * 10 + N)
        marg = single_clone_marginal(spec, psi)
        expected = gamma * psi.projector() + (1 - gamma) / d * np.eye(d)
        assert float(np.max(np.abs(marg - expected))) <= 1e-10, (d, N, M)
    report(1, "single-clone marginal matches gamma*sigma + (1-gamma)/d on the full grid")


def test_criterion_02_qubit_doubling_point():
    spec = ClonerSpec(2, 1, 2)
    psi = PureState(np.array([1.0, 0.0]))
    marg = single_clone_marginal(spec, psi)
    assert abs(marg[0, 0].real - 5 / 6) <= 1e-12
    assert delta_one_closed_form(spec) == Fraction(1, 6)
    report(2, "(2,1,2) fidelity 5/6 and exact rational delta_one = 1/6")


def test_criterion_03_all_clone_overlap():
    for d, N, M in marginal_grid():
        spec = ClonerSpec(d, N, M)
        target = sym_dimension(d, N) / sym_dimension(d, M)
        for k in range(20):
            psi = haar_state(d, seed=7000 + 97 * k + d + M * 13 + N)
            assert abs(all_clone_overlap(spec, psi) - target) <= 1e-10, (d, N, M, k)
    report(3, "all-clone overlap equals d[N]/d[M] for 20 seeded states per grid point")


def test_criterion_04_delta_one_numeric():
    grid = [(d, N, M) for d in (2, 3) for M in range(2, 5) for N in range(1, M)]
    for d, N, M in grid:
        spec = ClonerSpec(d, N, M)
        channel = optimal_cloner(spec)
        est = delta_one_numeric(channel, samples=2000, seed=0)
        closed = float(delta_one_closed_form(spec))
        assert closed - 1e-9 <= est <= closed + 2e-3, (d, N, M, est, closed)
    report(4, "sampled delta_one within [closed - 1e-9, closed + 2e-3] at 2000 samples")


def test_criterion_05_brute_force_ground_truth():
    count = 0
    for d in range(2, 6):
        for M in range(2, 13):
            for N in range(1, M):
                rep = maximize_brute(d, N, M)
                assert rep.omega_max == Fraction(M + d, N + d), (d, N, M)
                assert rep.unique, (d, N, M)
                top = CandidatePoint((M,) + (0,) * (d - 1), (N,) + (0,) * (d - 1))
                assert rep.maximizers[0] == top, (d, N, M)
                count += 1
    report(5, f"brute force: unique maximizer and omega_max=(M+d)/(N+d) on {count} instances")


def test_criterion_06_greedy_equals_brute():
    for d in range(2, 6):
        for M in range(2, 13):
            for N in range(1, M):
                top = CandidatePoint((M,) + (0,) * (d - 1), (N,) + (0,) * (d - 1))
                for s in range(20):
                    start = random_feasible_point(
                        d, N, M, seed=5000 * d + 100 * M + N + 64 * s
                    )
                    assert maximize_greedy(d, N, M, start=start) == top, (d, N, M, s)
    report(6, "greedy ascent reaches the brute-force maximizer from 20 random starts each")


def test_criterion_07_su2_consistency():
    for M in range(1, 13):
        for N in range(1, 13):
            for p in enumerate_W1(2, N, M):
                alpha = Fraction(p.m[0] - p.m[1], 2)
                tilde0, tilde1 = p.m[0] - p.mu[0], p.m[1] - p.mu[1]
                beta = Fraction(tilde0 - tilde1, 2)
                assert omega_of_point(p, 2, N, M) == omega_su2(
                    alpha, beta, Fraction(N, 2)
                ), (N, M, p)
    report(7, "spin formula equals the Casimir formula on every d=2 domain point, M <= 12")


def test_criterion_08_component_cloner_realization():
    checked = 0
    for N in range(1, 5):
        for M in range(N, 9):
            for point in enumerate_W1(2, N, M):
                channel = su2_component_cloner(point)
                exact = float(omega_of_point(point, 2, N, M))
                assert abs(omega_measure(channel) - exact) <= 1e-8, (N, M, point)
                checked += 1
            component = su2_component_cloner(CandidatePoint((M, 0), (N, 0)))
            reference = optimal_cloner(ClonerSpec(2, N, M))
            dist = float(
                np.max(np.abs(np.linalg.eigvalsh(choi(component) - choi(reference))))
            )
            assert dist <= 1e-8, (N, M, dist)
    report(8, f"{checked} component cloners hit the spin formula; optimal labels match "
              "the optimal cloner in Choi distance")


def test_criterion_09_representation_bookkeeping():
    # Pieri dimension sums
    for d in range(2, 5):
        rng = np.random.default_rng(d)
        for N in range(0, 6):
            for _ in range(4):
                m = tuple(sorted(rng.integers(0, 6, size=d).tolist(), reverse=True))
                total = sum(weyl_dimension(w) for w in pieri_branch(N, m))
                assert total == sym_dimension(d, N) * weyl_dimension(m), (d, N, m)
    # total dimension of the M-fold fundamental power
    def partitions(total, slots, cap):
        if slots == 1:
            if total <= cap:
                yield (total,)
            return
        for first in range(min(total, cap), -1, -1):
            for rest in partitions(total - first, slots - 1, first):
                yield (first,) + rest

    for d in range(2, 5):
        for M in range(1, 7):
            total = sum(
                fund_power_multiplicity(m, M) * weyl_dimension(m)
                for m in partitions(M, d, M)
            )
            assert total == d**M, (d, M)
    # adjoint multiplicity is always one
    for d in range(2, 7):
        for N in range(1, 9):
            assert adjoint_multiplicity(d, N) == 1, (d, N)
    report(9, "Pieri dimension sums, d^M totals, and adjoint multiplicity 1 all exact")


def test_criterion_10_channel_sanity():
    grid = [(d, N, M) for d in (2, 3) for M in range(2, 5) for N in range(1, M)]
    for d, N, M in grid:
        channel = optimal_cloner(ClonerSpec(d, N, M))
        assert min_choi_eigenvalue(channel) >= -1e-10, (d, N, M)
        assert channel.completeness_defect() <= 1e-10, (d, N, M)
        assert covariance_defect(channel, samples=50, seed=0) <= 1e-10, (d, N, M)
        # permutation invariance: all site marginals of the expanded output agree
        E = sym_embed(d, M)
        psi = haar_state(d, seed=31 + d + M)
        v = product_power(psi, N)
        out = E @ channel.apply(np.outer(v, v.conj())) @ E.conj().T
        ref = transposed_full_marginal(out, d, M, 0)
        for site in range(1, M):
            assert (
                float(np.max(np.abs(transposed_full_marginal(out, d, M, site) - ref)))
                <= 1e-10
            ), (d, N, M, site)
    report(10, "CP, TP, covariance defect, and site-permutation invariance on the desk grid")


def test_criterion_11_perturbation_probe():
    for N in (1, 2):
        for M in range(N + 1, 4):
            d = 2
            points = enumerate_W1(d, N, M)
            omegas = sorted(
                (omega_of_point(p, d, N, M) for p in points), reverse=True
            )
            omega_max, second = omegas[0], omegas[1]
            closed = delta_one_closed_form(ClonerSpec(d, N, M))
            t = Fraction(1, 10)
            for p in points:
                w = omega_of_point(p, d, N, M)
                if w == omega_max:
                    continue
                mixed = (1 - t) * omega_max + t * w
                # affinity of omega in the mixture makes the gap exact
                assert omega_max - mixed >= t * (omega_max - second), (N, M, p)
                gamma_mix = gamma_from_omega(mixed, N, M)
                delta_mix = Fraction(d - 1, d) * abs(1 - gamma_mix)
                assert delta_mix > closed, (N, M, p)
    report(11, "every 0.1-weight mixture with a non-optimal component drops omega and "
               "raises delta_one strictly")
