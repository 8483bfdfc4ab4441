"""Highest-weight arithmetic for U(d) / SU(d).

Weights are plain tuples of d integers, non-increasing (dominant), and
may be negative.  All arithmetic is exact (Python integers / Fraction).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, prod

from .errors import DimensionGuardError
from .tolerances import BRANCH_SUMMAND_GUARD

__all__ = [
    "is_dominant",
    "check_dominant",
    "casimirs",
    "weyl_dimension",
    "pieri_branch",
    "fund_power_multiplicity",
    "adjoint_multiplicity",
    "parse_weight",
]


def is_dominant(m: tuple[int, ...]) -> bool:
    return all(m[k] >= m[k + 1] for k in range(len(m) - 1))


def check_dominant(m: tuple[int, ...]) -> tuple[int, ...]:
    m = tuple(int(x) for x in m)
    if len(m) < 2:
        raise ValueError("a highest weight needs at least two components")
    if not is_dominant(m):
        raise ValueError(f"weight {m} is not non-increasing")
    return m


def casimirs(m: tuple[int, ...]) -> tuple[int, int, Fraction]:
    """(C1, C2, C2_su) for the irrep with highest weight m.

    C1 = sum m_j, C2 = sum m_j^2 + sum_{j<k} (m_j - m_k), and the
    traceless quadratic Casimir C2_su = C2 - C1^2 / d, which is
    invariant under uniform shifts of the weight.
    """
    m = check_dominant(m)
    d = len(m)
    c1 = sum(m)
    c2 = sum(x * x for x in m) + sum(
        m[j] - m[k] for j in range(d) for k in range(j + 1, d)
    )
    c2_su = Fraction(c2) - Fraction(c1 * c1, d)
    return c1, c2, c2_su


def weyl_dimension(m: tuple[int, ...]) -> int:
    """Dimension prod_{j<k} (m_j - m_k + k - j) / (k - j), exact."""
    m = check_dominant(m)
    d = len(m)
    num = 1
    den = 1
    for j in range(d):
        for k in range(j + 1, d):
            num *= m[j] - m[k] + k - j
            den *= k - j
    dim, rem = divmod(num, den)
    assert rem == 0
    return dim


def pieri_count(N: int, m: tuple[int, ...]) -> int:
    """Number of summands pieri_branch(N, m) returns, counted without
    listing them: the (mu_2, ..., mu_d) with mu_{k+1} <= m_k - m_{k+1}
    and sum at most N (mu_1 takes the rest).  That is the coefficients
    of prod_k (1 + t + ... + t^cap_k) up to t^N, summed, with each cap
    clipped at N; a zero cap leaves the product as it is."""
    m = check_dominant(m)
    if N < 0:
        raise ValueError("N must be non-negative")
    ways = [1] + [0] * N  # ways[s]: choices of the slots so far with sum s
    for k in range(1, len(m)):
        cap = min(m[k - 1] - m[k], N)
        if not cap:
            continue
        prefix = list(accumulate(ways))
        ways = prefix[: cap + 1] + [
            prefix[s] - prefix[s - cap - 1] for s in range(cap + 1, N + 1)
        ]
    return sum(ways)


def pieri_branch(N: int, m: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Irreducible summands of (N-fold symmetric power) x pi_m.

    Returns all m + mu with sum(mu) = N, mu_k >= 0, and
    mu_{k+1} <= m_k - m_{k+1} for k < d (mu_1 bounded only by the sum).
    Each summand appears exactly once and is dominant.  Raises
    DimensionGuardError, before listing any, when there are more than
    BRANCH_SUMMAND_GUARD.
    """
    count = pieri_count(N, m)
    if count > BRANCH_SUMMAND_GUARD:
        raise DimensionGuardError(
            f"Pieri branching of {N} boxes onto {tuple(m)} has {count} summands, "
            f"above the guard {BRANCH_SUMMAND_GUARD}"
        )
    m = check_dominant(m)
    d = len(m)
    caps = [N] + [m[k - 1] - m[k] for k in range(1, d)]
    # room[k]: the most that slots k, ..., d-1 can take together; a slot
    # leaving more than that to the later ones starts no summand
    room = list(accumulate(reversed(caps), initial=0))[::-1]

    out: list[tuple[int, ...]] = []

    def _extend(k: int, remaining: int, mu: tuple[int, ...]):
        if k == d:
            out.append(tuple(m[i] + mu[i] for i in range(d)))
            return
        lo, hi = max(0, remaining - room[k + 1]), min(remaining, caps[k])
        for x in range(hi, lo - 1, -1):
            _extend(k + 1, remaining - x, mu + (x,))

    _extend(0, N, ())
    return out


def fund_power_multiplicity(m: tuple[int, ...], M: int) -> int:
    """Multiplicity of pi_m in the M-fold tensor power of the defining rep.

    By Schur-Weyl duality it is the number of standard tableaux of shape
    m, given by the hook-length formula in the shifted parts
    l_i = m_i + d - 1 - i (0-based i):

        M! prod_{i<j} (l_i - l_j) / prod_i l_i!

    Zero when sum(m) != M, m is not dominant or m_d < 0.
    """
    m = tuple(int(x) for x in m)
    if sum(m) != M or not is_dominant(m) or (m and m[-1] < 0):
        return 0
    d = len(m)
    shifted = [x + d - 1 - i for i, x in enumerate(m)]
    gaps = prod(shifted[i] - shifted[j] for i in range(d) for j in range(i + 1, d))
    count, rem = divmod(factorial(M) * gaps, prod(factorial(x) for x in shifted))
    assert rem == 0
    return count


def adjoint_multiplicity(d: int, N: int) -> int:
    """Multiplicity of the adjoint weight (2,1,...,1,0) (up to uniform
    shift) in (N-fold symmetric power) x its conjugate.

    Equals 1 for all d >= 2, N >= 1: the non-degeneracy witness.
    """
    if d < 2 or N < 1:
        raise ValueError(f"need d >= 2 and N >= 1, got d={d}, N={N}")
    conj = (N,) * (d - 1) + (0,)  # shifted conjugate of (N,0,...,0)
    # adjoint weight shifted to match total charge d*N
    target = (N + 1,) + (N,) * (d - 2) + (N - 1,)
    return sum(1 for w in pieri_branch(N, conj) if w == target)


def parse_weight(text: str) -> tuple[int, ...]:
    """Parse a comma-separated weight string such as "2,1,0"."""
    try:
        m = tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse weight {text!r}") from exc
    return check_dominant(m)
