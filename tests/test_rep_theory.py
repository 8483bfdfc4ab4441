"""Highest-weight arithmetic: conjugation, Casimirs, branching, multiplicities."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneopt import (
    adjoint_multiplicity,
    casimirs,
    fund_power_multiplicity,
    parse_weight,
    pieri_branch,
    sym_dimension,
    weyl_dimension,
)
from cloneopt.errors import DimensionGuardError
from cloneopt.rep_theory import is_dominant, pieri_count
from cloneopt.tolerances import BRANCH_SUMMAND_GUARD

from reference import conjugate_weight, contains_sym, normalize_weight, normalized_conjugate


dominant_weights = st.integers(2, 4).flatmap(
    lambda d: st.lists(st.integers(-6, 6), min_size=d, max_size=d).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )
)


def test_conjugate_weight_values():
    assert conjugate_weight((3, 0, 0)) == (0, 0, -3)
    assert normalized_conjugate((3, 0, 0)) == (3, 3, 0)
    assert conjugate_weight((0, 0)) == (0, 0)


@given(dominant_weights)
def test_conjugation_is_involutive(m):
    assert conjugate_weight(conjugate_weight(m)) == m


@given(dominant_weights)
def test_conjugation_preserves_casimir_and_dimension(m):
    c = conjugate_weight(m)
    assert casimirs(m)[2] == casimirs(c)[2]
    assert weyl_dimension(m) == weyl_dimension(c)


def test_casimir_values():
    assert casimirs((2, 1, 0)) == (3, 9, Fraction(6))
    assert casimirs((0, 0, 0)) == (0, 0, Fraction(0))
    # N-fold symmetric power: C2_su = (d-1) N (N+d) / d
    for d in (2, 3, 4):
        for N in (1, 2, 5):
            m = (N,) + (0,) * (d - 1)
            assert casimirs(m)[2] == Fraction((d - 1) * N * (N + d), d)
    # d=2, N=1 cross-check against 2 j(j+1) with j = 1/2
    assert casimirs((1, 0))[2] == Fraction(3, 2)


@given(dominant_weights, st.integers(-5, 5))
def test_traceless_casimir_shift_invariant(m, c):
    shifted = tuple(x + c for x in m)
    assert casimirs(m)[2] == casimirs(shifted)[2]


def test_weyl_dimension_values():
    for d in (2, 3, 5):
        assert weyl_dimension((1,) + (0,) * (d - 1)) == d
    assert weyl_dimension((1, 1, 0)) == 3
    for d in (2, 3, 4):
        for N in (0, 1, 3, 6):
            assert weyl_dimension((N,) + (0,) * (d - 1)) == sym_dimension(d, N)


def test_pieri_examples():
    assert set(pieri_branch(1, (1, 0))) == {(2, 0), (1, 1)}
    assert pieri_branch(2, (0, 0, 0)) == [(2, 0, 0)]


@given(st.integers(0, 5), dominant_weights)
@settings(max_examples=60)
def test_pieri_outputs_dominant_and_distinct(N, m):
    out = pieri_branch(N, m)
    assert pieri_count(N, m) == len(out)
    assert len(set(out)) == len(out)
    assert all(is_dominant(w) for w in out)
    assert all(sum(w) == sum(m) + N for w in out)


def test_pieri_guard_counts_before_listing():
    # every 7-slot composition of at most 64 fits under these caps
    assert pieri_count(64, (448, 384, 320, 256, 192, 128, 64, 0)) == math.comb(71, 7)
    assert pieri_count(64, (64, 48, 32, 16, 0)) == 83521 > BRANCH_SUMMAND_GUARD
    with pytest.raises(DimensionGuardError):
        pieri_branch(64, (64, 48, 32, 16, 0))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_pieri_dimension_sum(d, N):
    rng = np.random.default_rng(10 * d + N)
    for _ in range(5):
        m = tuple(sorted(rng.integers(0, 7, size=d).tolist(), reverse=True))
        total = sum(weyl_dimension(w) for w in pieri_branch(N, m))
        assert total == sym_dimension(d, N) * weyl_dimension(m)


def test_contains_sym_examples():
    assert contains_sym((2, 0), (0, -1), 1)
    assert not contains_sym((1, 1), (0, 0), 2)
    # N = 0: containment iff n is the conjugate of m
    assert contains_sym((2, 1), conjugate_weight((2, 1)), 0)
    assert not contains_sym((2, 1), (2, 1), 0)


def test_fund_power_multiplicity_values():
    assert fund_power_multiplicity((2, 0), 2) == 1
    assert fund_power_multiplicity((1, 1), 2) == 1
    assert fund_power_multiplicity((2, 1), 3) == 2
    assert fund_power_multiplicity((3, 0), 2) == 0  # wrong box count
    assert fund_power_multiplicity((1, 2), 3) == 0  # not dominant


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 6])
def test_fund_power_total_dimension(d, M):
    # all dominant m with sum M, at most d rows
    def partitions(total, slots, cap):
        if slots == 1:
            if total <= cap:
                yield (total,)
            return
        for first in range(min(total, cap), -1, -1):
            for rest in partitions(total - first, slots - 1, first):
                yield (first,) + rest

    total = sum(
        fund_power_multiplicity(m, M) * weyl_dimension(m)
        for m in partitions(M, d, M)
    )
    assert total == d**M


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("N", range(1, 9))
def test_adjoint_multiplicity_is_one(d, N):
    assert adjoint_multiplicity(d, N) == 1


def test_parse_weight():
    assert parse_weight("2,1,0") == (2, 1, 0)
    assert parse_weight(" 3 , 3 , 0 ") == (3, 3, 0)
    with pytest.raises(ValueError):
        parse_weight("1,2,3")
    with pytest.raises(ValueError):
        parse_weight("a,b")


def test_normalize_weight():
    assert normalize_weight((3, 2, 1)) == (2, 1, 0)
    assert normalize_weight((0, -2)) == (2, 0)
