"""Exact maximization of the omega functional over the weight-pair domain."""
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneopt import (
    CandidatePoint,
    DimensionGuardError,
    enumerate_W1,
    f2,
    maximize_brute,
    maximize_greedy,
    omega_of_point,
    omega_su2,
)
from cloneopt import omega_opt
from cloneopt.omega_opt import gamma_from_omega
from cloneopt.rep_theory import is_dominant
from cloneopt.tolerances import MAX_D, MAX_SITES

from reference import (
    conjugate_weight,
    contains_sym,
    random_feasible_point,
    recursive_partitions,
)


def top_point(d, N, M):
    return CandidatePoint((M,) + (0,) * (d - 1), (N,) + (0,) * (d - 1))


def test_f2_values():
    assert f2(CandidatePoint((2, 0), (1, 0))) == 1  # 2MN - N^2 - 2N at (2,1)
    assert f2(CandidatePoint((2, 0), (0, 1))) == -5
    assert f2(CandidatePoint((3, 2), (0, 0))) == 0
    for d, N, M in [(2, 1, 2), (3, 2, 4), (4, 3, 7)]:
        assert f2(top_point(d, N, M)) == 2 * M * N - N * N - 2 * N


def test_omega_of_point_values():
    assert omega_of_point(top_point(2, 1, 2), 2, 1, 2) == Fraction(4, 3)
    assert omega_of_point(top_point(3, 2, 4), 3, 2, 4) == Fraction(7, 5)
    assert omega_of_point(top_point(2, 2, 2), 2, 2, 2) == 1


def test_point_validation():
    with pytest.raises(ValueError):
        CandidatePoint((1, 2), (1, 0)).validate(2, 1, 3)  # not dominant
    with pytest.raises(ValueError):
        CandidatePoint((2, 0), (3, 0)).validate(2, 3, 2)  # mu_1 over box bound
    with pytest.raises(ValueError):
        CandidatePoint((2, 0), (2, -1)).validate(2, 1, 2)  # mu_d negative
    CandidatePoint((2, 0), (2, 1)).validate(2, 3, 2)  # N > M is feasible


def test_enumerate_small():
    pts = enumerate_W1(2, 1, 2)
    assert len(pts) == 3
    assert set((p.m, p.mu) for p in pts) == {
        ((2, 0), (1, 0)),
        ((2, 0), (0, 1)),
        ((1, 1), (0, 1)),
    }


def test_enumerate_trivial_input():
    pts = enumerate_W1(3, 0, 4)
    # one mu = 0 per partition of 4 into at most 3 parts
    assert all(p.mu == (0, 0, 0) for p in pts)
    assert len(pts) == 4  # (4,0,0), (3,1,0), (2,2,0), (2,1,1)


@pytest.mark.parametrize("d,N,M", [(2, 1, 2), (2, 2, 4), (3, 2, 4), (3, 3, 5)])
def test_enumerated_points_pass_branching_oracle(d, N, M):
    for p in enumerate_W1(d, N, M):
        n = conjugate_weight(tuple(p.m[k] - p.mu[k] for k in range(d)))
        assert contains_sym(p.m, n, N)


def test_enumeration_guard():
    # the listing's one limit is the range: it answers (2, 1, 31), two
    # labels on each of its 16 partitions
    assert len(enumerate_W1(2, 1, 31)) == 32
    for d, M, message in [(2, 65, r"^M = 65 exceeds guard 64$"),
                          (9, 4, r"^d = 9 exceeds guard 8$")]:
        with pytest.raises(DimensionGuardError, match=message):
            enumerate_W1(d, 1, M)


def test_partitions_match_recursive_oracle():
    # both maximizers walk _partitions, so only an independent walk can
    # catch an order bug in it
    for d in range(2, 9):
        for M in range(0, 31):
            assert list(omega_opt._partitions(M, d)) == list(recursive_partitions(M, d)), (d, M)
    assert sum(1 for _ in omega_opt._partitions(64, 8)) == 116263


def listed_domain(d, N, M):
    """Reference enumeration: one CandidatePoint per label, mu_head in
    itertools.product order over the boxes of each partition."""
    points = []
    for m in omega_opt._partitions(M, d):
        boxes = [m[k] - m[k + 1] for k in range(d - 1)]
        for mu_head in itertools.product(*(range(b + 1) for b in boxes)):
            if sum(mu_head) <= N:
                points.append(CandidatePoint(m, mu_head + (N - sum(mu_head),)))
    return points


def scanned_max(points):
    """Reference maximization: f2 on every point, maximizers in order."""
    best = max(f2(p) for p in points)
    return tuple(p for p in points if f2(p) == best)


# d = 2..8 at small M, N above, equal to and below M; M = 0 and flat
# partitions such as (2, 2, 2) have boxes that are all zero
ORACLE_GRID = [(d, N, M) for d in range(2, 9) for M in range(0, 7) for N in range(0, 9)]


def test_block_walk_matches_listed_domain():
    for d, N, M in ORACLE_GRID:
        assert enumerate_W1(d, N, M) == listed_domain(d, N, M), (d, N, M)
    assert CandidatePoint((2, 2, 2), (0, 0, 2)) in enumerate_W1(3, 2, 6)


def test_brute_matches_list_scan():
    for d, N, M in ORACLE_GRID:
        if N < 1 or M < 1:
            continue
        points = enumerate_W1(d, N, M)
        rep = maximize_brute(d, N, M)
        maximizers = scanned_max(points)
        assert rep.maximizers == maximizers, (d, N, M)
        assert rep.count_enumerated == len(points), (d, N, M)
        assert rep.omega_max == omega_of_point(maximizers[0], d, N, M), (d, N, M)


def test_brute_keeps_tied_labels_in_enumeration_order(monkeypatch):
    # no domain tried has a tied maximum, so make one: every label
    # appears twice in its partition's block and once more, in reverse
    # order, in a second block for the same partition
    walk = omega_opt._label_blocks

    def tripled(*args):
        for m, mu in walk(*args):
            yield m, np.concatenate([mu, mu])
            yield m, mu[::-1]

    monkeypatch.setattr(omega_opt, "_label_blocks", tripled)
    for d, N, M in [(2, 3, 2), (3, 2, 4), (4, 3, 3)]:
        points = enumerate_W1(d, N, M)
        rep = maximize_brute(d, N, M)
        assert len(rep.maximizers) == 3
        assert rep.maximizers == scanned_max(points), (d, N, M)
        assert rep.count_enumerated == len(points) == 3 * len(listed_domain(d, N, M))


def test_partition_maximizer_matches_listed_block():
    # the per-partition step of maximize_exact on its own: _best_mu's F2
    # and its one maximizer equal the block's top value and its tie rows,
    # in order.  The grid holds 4,030 partitions and none has two or more
    # maximizers: each gain of slot k exceeds every gain of slot k + 1
    # (see _best_mu), so no two allocations tie
    slots = 2 * np.arange(1, 6)
    partitions = tied = 0
    for d in range(2, 6):
        for M in range(0, 11):
            for N in range(0, 13):
                for m, block in omega_opt._label_blocks(d, N, M):
                    values = np.sum(block * (2 * np.array(m) - slots[:d] - block), axis=1)
                    rows = [tuple(row) for row in block[values == values.max()].tolist()]
                    mu = tuple(omega_opt._best_mu(d, N, m))
                    assert f2(CandidatePoint(m, mu)) == values.max(), (d, N, M, m)
                    assert [mu] == rows, (d, N, M, m)
                    partitions += 1
                    tied += len(rows) > 1
    assert (partitions, tied) == (4030, 0)


# d = 2..8, N up to M + 2, the sizes `omega max` runs in the benchmark,
# and sizes past M = 30 whose domain is cheap to list
EXACT_GRID = [(d, N, M) for d in range(2, 9) for M in range(1, 13) for N in range(1, M + 3)]
EXACT_GRID += [(3, 2, 10), (4, 3, 12), (5, 2, 14), (7, 8, 22), (8, 10, 30)]
EXACT_GRID += [(2, 1, 31), (2, 5, 40), (3, 4, 35), (2, 1, 64), (3, 2, 50)]


def test_exact_report_equals_brute():
    # every field: omega, gamma, delta_one, maximizers in order,
    # count_enumerated
    for d, N, M in EXACT_GRID:
        assert omega_opt.maximize_exact(d, N, M) == maximize_brute(d, N, M), (d, N, M)


def test_exact_keeps_tied_maximizers_in_enumeration_order(monkeypatch):
    # no domain has a tied maximum, so walk every partition twice: both
    # maximizers list each maximizing label twice and count it twice
    walk = omega_opt._partitions

    def doubled(M, d):
        for m in walk(M, d):
            yield m
            yield m

    monkeypatch.setattr(omega_opt, "_partitions", doubled)
    for d, N, M in [(2, 3, 2), (3, 2, 4), (4, 3, 3), (5, 4, 9)]:
        rep = omega_opt.maximize_exact(d, N, M)
        assert len(rep.maximizers) == 2
        assert rep == maximize_brute(d, N, M), (d, N, M)


@pytest.mark.parametrize("d,N,M", [(2, 0, 3), (2, 3, 0), (1, 1, 2), (0, 0, 0), (1, 2, 40),
                                   (1, 2, 65), (9, 1, 4), (2, 0, 65), (9, 1, 31), (2, 1, 65),
                                   (3, 65, 20), (3, 10**5, 20), (9, 65, 4), (2, 65, 65),
                                   (2, 65, 0)])
def test_exact_raises_the_brute_errors_in_order(d, N, M, monkeypatch):
    # brute and exact share their checks: the same error, type and
    # message, on every row, before any walk; a row past the range is
    # refused with the message of its first size past the range, M, then
    # d, then N
    def refuse(M, d):
        raise AssertionError("enumerated past the guard")

    monkeypatch.setattr(omega_opt, "_partitions", refuse)
    with pytest.raises((ValueError, DimensionGuardError)) as brute:
        maximize_brute(d, N, M)
    with pytest.raises((ValueError, DimensionGuardError)) as exact:
        omega_opt.maximize_exact(d, N, M)
    assert (exact.type, str(exact.value)) == (brute.type, str(brute.value))
    if brute.type is DimensionGuardError:
        assert d > MAX_D or M > MAX_SITES or N > MAX_SITES
        expected = (f"M = {M} exceeds guard 64" if M > MAX_SITES
                    else f"d = {d} exceeds guard 8" if d > MAX_D else f"N = {N} exceeds guard 64")
        assert str(brute.value) == expected


def test_random_feasible_point_indexes_the_enumeration():
    for d, N, M in [(2, 1, 2), (2, 3, 7), (3, 0, 4), (3, 2, 6), (5, 4, 9), (8, 3, 6)]:
        points = enumerate_W1(d, N, M)
        for seed in (0, 1, 17, 977, 123456):
            index = np.random.default_rng(seed).integers(len(points))
            assert random_feasible_point(d, N, M, seed) == points[index], (d, N, M, seed)


def test_brute_guard_refuses_before_enumerating(monkeypatch):
    def refuse(M, d):
        raise AssertionError("enumerated past the guard")

    monkeypatch.setattr(omega_opt, "_partitions", refuse)
    with pytest.raises(DimensionGuardError):
        maximize_brute(2, 1, 65)
    with pytest.raises(DimensionGuardError):
        maximize_brute(9, 1, 4)


def test_brute_small_cases():
    rep = maximize_brute(2, 1, 2)
    assert rep.omega_max == Fraction(4, 3)
    assert rep.unique
    assert rep.maximizers[0] == top_point(2, 1, 2)
    assert rep.count_enumerated == 3
    assert rep.gamma == Fraction(2, 3)
    assert rep.delta_one == Fraction(1, 6)


@pytest.mark.parametrize("d,N", [(2, 1), (3, 2), (8, 5)])
def test_brute_rejects_empty_output(d, N):
    # M = 0 has a one-label domain but no omega: gamma = (N/M) omega
    with pytest.raises(ValueError, match="M >= 1"):
        maximize_brute(d, N, 0)


def test_brute_reversed_direction():
    # N > M is allowed by the domain; maximizer mu = (M, 0, ..., N - M)
    rep = maximize_brute(2, 3, 2)
    assert rep.maximizers[0] == CandidatePoint((2, 0), (2, 1))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_brute_full_grid(d):
    for M in range(2, 13):
        for N in range(1, M):
            rep = maximize_brute(d, N, M)
            assert rep.omega_max == Fraction(M + d, N + d), (d, N, M)
            assert rep.unique, (d, N, M)
            assert rep.maximizers[0] == top_point(d, N, M), (d, N, M)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_greedy_equals_brute_default_start(d):
    for M in range(2, 13):
        for N in range(1, M):
            assert maximize_greedy(d, N, M) == top_point(d, N, M), (d, N, M)


@pytest.mark.parametrize("d,N,M", [(2, 1, 2), (2, 3, 7), (3, 2, 5), (3, 3, 5),
                                   (4, 2, 6), (5, 4, 9)])
def test_greedy_from_random_starts(d, N, M):
    for s in range(20):
        start = random_feasible_point(d, N, M, seed=977 * s + d + 13 * M + N)
        assert maximize_greedy(d, N, M, start=start) == top_point(d, N, M)


def test_greedy_fixed_point():
    p = top_point(3, 2, 5)
    assert maximize_greedy(3, 2, 5, start=p) == p


def mu_gain(m, mu, k):
    # change of F2 when incrementing mu_k by one
    return 2 * m[k] - 2 * (k + 1) - 2 * mu[k] - 1


def exchange_mu(point):
    """Oracle: the former fixed-m search, exchange moves on mu (slot-to-slot
    transfers), each strictly increasing F2, until none improves."""
    d, m, mu = point.d, point.m, list(point.mu)
    caps = [m[k] - m[k + 1] for k in range(d - 1)] + [sum(mu)]
    current = f2(CandidatePoint(m, tuple(mu)))
    while True:
        best = None  # (gain, donor, recipient)
        for j in range(d):
            if mu[j] == 0:
                continue
            for i in range(d):
                if i == j or mu[i] >= caps[i]:
                    continue
                mu[j] -= 1
                gain = mu_gain(m, mu, i) - mu_gain(m, mu, j)
                mu[j] += 1
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, j, i)
        if best is None:
            return CandidatePoint(m, tuple(mu))
        _, j, i = best
        mu[j] -= 1
        mu[i] += 1
        new = f2(CandidatePoint(m, tuple(mu)))
        assert new > current, "exchange move failed to increase F2"
        current = new


def exchange_greedy(d, N, M, start):
    """Oracle: the former greedy, exchange moves on the start's mu, then
    box transfers on m with mu re-optimized by _best_mu."""
    start.validate(d, N, M)
    point = exchange_mu(start)
    current = f2(point)
    while True:
        best = None
        for k in range(1, d):
            for j in range(k):
                cand = list(point.m)
                cand[j] += 1
                cand[k] -= 1
                if cand[-1] < 0 or not is_dominant(tuple(cand)):
                    continue
                cand_point = CandidatePoint(cand, tuple(omega_opt._best_mu(d, N, tuple(cand))))
                val = f2(cand_point)
                if val > current and (best is None or val > best[0]):
                    best = (val, cand_point)
        if best is None:
            return point
        current, point = best


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_greedy_matches_exchange_oracle(d):
    # 1 <= N, M <= 12 (N > M included), 20 seeded starts each: 2,880 per d
    for N in range(1, 13):
        for M in range(1, 13):
            points = enumerate_W1(d, N, M)
            # the balanced partition with its best mu, the former default start
            m0 = tuple(M // d + (k < M % d) for k in range(d))
            default = CandidatePoint(m0, tuple(omega_opt._best_mu(d, N, m0)))
            assert maximize_greedy(d, N, M) == exchange_greedy(d, N, M, default)
            for seed in range(20):
                start = points[np.random.default_rng(seed).integers(len(points))]
                assert maximize_greedy(d, N, M, start) == exchange_greedy(d, N, M, start), (
                    d, N, M, seed)


def test_omega_su2_values():
    assert omega_su2(Fraction(1), Fraction(1, 2), Fraction(1, 2)) == Fraction(4, 3)
    assert omega_su2(Fraction(3, 2), Fraction(3, 2), Fraction(1)) == Fraction(1, 2)
    for N, M in [(1, 2), (2, 3), (3, 7)]:
        assert omega_su2(
            Fraction(M, 2), Fraction(M - N, 2), Fraction(N, 2)
        ) == Fraction(M + 2, N + 2)


def test_omega_su2_validation():
    with pytest.raises(ValueError):
        omega_su2(Fraction(2), Fraction(0), Fraction(1))  # triangle violation
    with pytest.raises(ValueError):
        omega_su2(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))  # sum not integral
    with pytest.raises(ValueError):
        omega_su2(Fraction(1), Fraction(0), Fraction(0))  # gamma 0 needs alpha=beta
    assert omega_su2(Fraction(1), Fraction(1), Fraction(0)) == Fraction(1, 2)


@pytest.mark.parametrize("M", range(2, 13))
@pytest.mark.parametrize("N", [1, 2, 3])
def test_su2_dictionary_matches_general_formula(M, N):
    # d = 2: omega of (m, mu) equals the spin formula with
    # alpha = (m1 - m2)/2, beta = (n1~ - n2~)/2, gamma = N/2
    for p in enumerate_W1(2, N, M):
        alpha = Fraction(p.m[0] - p.m[1], 2)
        tilde = (p.m[0] - p.mu[0], p.m[1] - p.mu[1])
        beta = Fraction(tilde[0] - tilde[1], 2)
        assert omega_of_point(p, 2, N, M) == omega_su2(
            alpha, beta, Fraction(N, 2)
        ), (M, N, p)


@given(st.integers(2, 4), st.integers(1, 5), st.integers(1, 8))
@settings(max_examples=40)
def test_omega_below_max(d, N, M):
    rep = maximize_brute(d, N, M)
    for p in enumerate_W1(d, N, M):
        assert omega_of_point(p, d, N, M) <= rep.omega_max


def test_gamma_relation():
    rep = maximize_brute(3, 2, 4)
    assert rep.gamma == gamma_from_omega(rep.omega_max, 2, 4)
    assert rep.gamma == Fraction(2, 4) * Fraction(7, 5)
