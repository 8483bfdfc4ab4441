"""Maximization of the Casimir-ratio functional over weight pairs.

Every covariant, permutation-invariant cloning component is labelled by
a pair (m, mu): m a partition of M into at most d parts, mu a vector of
N boxes respecting the branching constraints.  The integer objective

    F2(m, mu) = sum_k mu_k (2 m_k - 2k - mu_k)

determines the component's omega value exactly; its unique maximum at
m = (M,0,...,0), mu = (N,0,...,0) (for N <= M) identifies the optimal
cloner.  All values are exact rationals.

maximize_exact finds the maximum without listing labels: at fixed m,
F2 has one maximizer, found in O(d), and the labels of m are counted,
not listed.  maximize_brute lists every label (enumerate_W1's walk) and
stays as its oracle.  Both answer every d <= 8, N, M <= 64.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import check_limit
from .rep_theory import check_dominant, is_dominant, pieri_count
from .tolerances import MAX_D, MAX_SITES

__all__ = [
    "CandidatePoint",
    "OmegaReport",
    "f2",
    "omega_of_point",
    "gamma_from_omega",
    "delta_one_from_gamma",
    "enumerate_W1",
    "maximize_brute",
    "maximize_exact",
    "maximize_greedy",
    "omega_su2",
]


@dataclass(frozen=True)
class CandidatePoint:
    """A feasible pair (m, mu): m dominant with m_d >= 0 and sum M,
    mu with sum N, 0 <= mu_k <= m_k - m_{k+1} for k < d, mu_d >= 0."""

    m: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))
        object.__setattr__(self, "mu", tuple(int(x) for x in self.mu))
        if len(self.m) != len(self.mu):
            raise ValueError("m and mu must have equal length")

    @property
    def d(self) -> int:
        return len(self.m)

    def validate(self, d: int, N: int, M: int) -> None:
        if self.d != d:
            raise ValueError(f"point has {self.d} slots, expected {d}")
        check_dominant(self.m)
        if self.m[-1] < 0:
            raise ValueError("m_d must be non-negative")
        if sum(self.m) != M:
            raise ValueError(f"sum(m) = {sum(self.m)} != M = {M}")
        if sum(self.mu) != N:
            raise ValueError(f"sum(mu) = {sum(self.mu)} != N = {N}")
        for k in range(d - 1):
            if not 0 <= self.mu[k] <= self.m[k] - self.m[k + 1]:
                raise ValueError(f"mu[{k}] = {self.mu[k]} violates its box bound")
        if self.mu[-1] < 0:
            raise ValueError("mu_d must be non-negative")


@dataclass(frozen=True)
class OmegaReport:
    """Result of maximizing omega over the feasible domain."""

    d: int
    n_in: int
    m_out: int
    omega_max: Fraction
    gamma: Fraction
    delta_one: Fraction
    maximizers: tuple[CandidatePoint, ...]
    count_enumerated: int

    @property
    def unique(self) -> bool:
        return len(self.maximizers) == 1


def f2(point: CandidatePoint) -> int:
    """sum_k mu_k (2 m_k - 2k - mu_k) with 1-based slot index k."""
    return _f2(point.m, point.mu)


def _f2(m, mu) -> int:
    return sum(x * (2 * mk - 2 * k - x) for k, (mk, x) in enumerate(zip(m, mu), 1))


def _sym_c2su(d: int, N: int) -> Fraction:
    # traceless Casimir of the N-fold symmetric power: (d-1) N (N+d) / d
    return Fraction((d - 1) * N * (N + d), d)


def omega_of_point(point: CandidatePoint, d: int, N: int, M: int) -> Fraction:
    """Exact omega of the component labelled by (m, mu).

    omega = 1/2 + F / (2 C2su) with
    F = F2 + (d+1) N - (2MN - N^2)/d and C2su the traceless quadratic
    Casimir of the input representation.
    """
    point.validate(d, N, M)
    if N == 0:
        raise ValueError("omega is undefined for N = 0 (trivial input)")
    F = Fraction(f2(point)) + (d + 1) * N - Fraction(2 * M * N - N * N, d)
    return Fraction(1, 2) + F / (2 * _sym_c2su(d, N))


def gamma_from_omega(omega: Fraction, N: int, M: int) -> Fraction:
    return Fraction(N, M) * omega


def delta_one_from_gamma(gamma: Fraction, d: int) -> Fraction:
    return Fraction(d - 1, d) * abs(1 - gamma)


def _partitions(M: int, d: int):
    """Dominant tuples of d non-negative integers summing to M, in reverse
    lexicographic order."""
    p = [M] + [0] * (d - 1)
    while True:
        yield tuple(p)
        # lower the rightmost slot i < d - 1 whose tail still fits under it,
        # sum(p[i:]) <= (d - i) (p[i] - 1), then fill the tail greedily
        tail = p[-1]
        for i in range(d - 2, -1, -1):
            tail += p[i]
            if tail <= (d - i) * (p[i] - 1):
                break
        else:
            return
        cap = p[i] = p[i] - 1
        left = tail - cap
        for j in range(i + 1, d):
            p[j] = min(cap, left)
            left -= p[j]


def _check_labels(d: int, N: int, M: int) -> None:
    """The label domain's one range check, shared by both maximizers."""
    if d < 2 or N < 0 or M < 0:
        raise ValueError("need d >= 2, N >= 0, M >= 0")
    check_limit("M", M, MAX_SITES)
    check_limit("d", d, MAX_D)
    check_limit("N", N, MAX_SITES)


def _label_blocks(d: int, N: int, M: int):
    """Walk the feasible domain one dominant partition m at a time, in
    _partitions order: yield (m, mu) with mu an int64 array holding, one
    row per label, the mu_head of the box grid in itertools.product order
    followed by mu_last = N - sum(mu_head) >= 0.  The range is checked
    first; then time and memory grow with the label count, which
    maximize_exact(d, N, M).count_enumerated gives without listing: no
    row with sum(mu_head) > N is built."""
    import numpy as np

    _check_labels(d, N, M)
    for m in _partitions(M, d):
        # extend the rows slot by slot, each by the values that keep its
        # sum <= N; left[i] is N - sum(row i), and every kept value takes
        # a copy of its parent row
        left = np.array([N], dtype=np.int64)
        block = np.zeros((1, d), dtype=np.int64)
        for k in range(d - 1):
            side = min(m[k] - m[k + 1], N)
            if side:
                parent, value = np.nonzero(left[:, None] >= np.arange(side + 1))
                left = left.take(parent) - value
                block = block.take(parent, axis=0)
                block[:, k] = value
        block[:, -1] = left
        yield m, block


def enumerate_W1(d: int, N: int, M: int) -> list[CandidatePoint]:
    """Exhaustive, duplicate-free enumeration of the feasible domain."""
    return [
        CandidatePoint(m, tuple(mu))
        for m, block in _label_blocks(d, N, M)
        for mu in block.tolist()
    ]


def _report(d, N, M, maximizers, count) -> OmegaReport:
    omega = omega_of_point(maximizers[0], d, N, M)
    gamma = gamma_from_omega(omega, N, M)
    return OmegaReport(
        d=d,
        n_in=N,
        m_out=M,
        omega_max=omega,
        gamma=gamma,
        delta_one=delta_one_from_gamma(gamma, d),
        maximizers=tuple(maximizers),
        count_enumerated=count,
    )


def maximize_brute(d: int, N: int, M: int) -> OmegaReport:
    """Global maximum of F2 over the full enumeration, with all maximizers
    in enumeration order: the listing oracle of maximize_exact, which
    `verify all` and the tests hold equal to it field for field.  F2 is
    evaluated one partition block at a time in exact int64 arithmetic;
    only the labels that tie the maximum become CandidatePoints."""
    import numpy as np

    if N < 1 or M < 1:
        raise ValueError("maximization needs N >= 1 and M >= 1")
    slots = 2 * np.arange(1, d + 1)
    best = None
    maximizers: list[CandidatePoint] = []
    count = 0
    for m, mu in _label_blocks(d, N, M):
        count += len(mu)
        values = np.sum(mu * (2 * np.array(m) - slots - mu), axis=1)
        top = int(values.max())
        if best is None or top > best:
            best, maximizers = top, []
        if top == best:
            ties = mu[values == top].tolist()
            maximizers.extend(CandidatePoint(m, tuple(row)) for row in ties)
    return _report(d, N, M, maximizers, count)


# ---------------------------------------------------------------------------
# Exact maximization one partition at a time
# ---------------------------------------------------------------------------


def _best_mu(d: int, N: int, m: tuple[int, ...]) -> list[int]:
    """The maximizer of F2 over mu for fixed m, which is unique: fill the
    slots in order, each up to its box m_k - m_{k+1}, and put the rest in
    the last slot.  A unit raising mu_k to x gains 2 m_k - 2k - 2x + 1
    (1-based k), decreasing in x, and the last unit the box of slot k
    admits gains 2 m_{k+1} - 2k + 1, four more than the first unit of
    slot k + 1.  Every gain of a slot exceeds every gain of the slots
    after it, so the N largest gains are the first N in slot order."""
    mu, left = [], N
    for k in range(d - 1):
        take = min(m[k] - m[k + 1], left)
        mu.append(take)
        left -= take
    return mu + [left]


def maximize_exact(d: int, N: int, M: int) -> OmegaReport:
    """maximize_brute's report, field for field, without listing labels,
    over the whole range d <= MAX_D, N, M <= MAX_SITES.

    Partitions m are walked in _partitions order.  Each contributes its
    one maximizer (_best_mu) and its label count, the Pieri count of N
    boxes on m: the mu_head with 0 <= mu_k <= m_k - m_{k+1} and
    sum <= N (mu_last's only cap is N), counted once per multiset of box
    sides, capped at N.  The errors are maximize_brute's, in its order:
    the ValueError on N and M, then those of _check_labels."""
    if N < 1 or M < 1:
        raise ValueError("maximization needs N >= 1 and M >= 1")
    _check_labels(d, N, M)
    best = None
    maximizers: list[CandidatePoint] = []
    count = 0
    counts: dict[tuple[int, ...], int] = {}
    for m in _partitions(M, d):
        sides = (min(m[k] - m[k + 1], N) for k in range(d - 1))
        caps = tuple(sorted(c for c in sides if c))
        if caps not in counts:
            counts[caps] = pieri_count(N, m)
        count += counts[caps]
        mu = _best_mu(d, N, m)
        top = _f2(m, mu)
        if best is None or top > best:
            best, maximizers = top, []
        if top == best:
            maximizers.append(CandidatePoint(m, tuple(mu)))
    return _report(d, N, M, maximizers, count)


# ---------------------------------------------------------------------------
# Greedy ascent: box transfers on m, mu re-optimized exactly at each m
# ---------------------------------------------------------------------------


def maximize_greedy(
    d: int, N: int, M: int, start: CandidatePoint | None = None
) -> CandidatePoint:
    """Ascend to the F2 maximizer by strictly increasing box transfers.

    Only the start's m is used: at every m, mu is the exact fixed-m
    maximizer _best_mu.  Each move transfers one box of m downward-to-upward
    (m_j + 1, m_k - 1 with j < k, dominance preserved).  Every applied
    move strictly increases F2, so the ascent terminates; grid tests pin
    agreement with the brute-force maximizer.
    """
    if N < 1:
        raise ValueError("maximization needs N >= 1")
    if start is None:
        base, extra = divmod(M, d)
        m0 = tuple(base + 1 if k < extra else base for k in range(d))
        start = CandidatePoint(m0, (0,) * (d - 1) + (N,))
    start.validate(d, N, M)
    point = CandidatePoint(start.m, tuple(_best_mu(d, N, start.m)))
    current = f2(point)
    while True:
        best = None  # (value, point)
        m = list(point.m)
        for k in range(1, d):
            for j in range(k):
                cand = m.copy()
                cand[j] += 1
                cand[k] -= 1
                if cand[-1] < 0 or not is_dominant(tuple(cand)):
                    continue
                cm = tuple(cand)
                cand_point = CandidatePoint(cm, tuple(_best_mu(d, N, cm)))
                val = f2(cand_point)
                if val > current and (best is None or val > best[0]):
                    best = (val, cand_point)
        if best is None:
            return point
        assert best[0] > current, "box-transfer move failed to increase F2"
        current, point = best


def _check_spins(alpha, beta, gamma) -> tuple[Fraction, Fraction, Fraction]:
    """The spin labels as Fractions.  Raises ValueError unless each is a
    non-negative half-integer, alpha + beta + gamma is an integer and
    |alpha - beta| <= gamma <= alpha + beta (the triangle condition)."""
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    for spin in (alpha, beta, gamma):
        if spin < 0 or (2 * spin).denominator != 1:
            raise ValueError(f"spin {spin} is not a non-negative half-integer")
    if (alpha + beta + gamma).denominator != 1:
        raise ValueError("alpha + beta + gamma must be an integer")
    if not (abs(alpha - beta) <= gamma <= alpha + beta):
        raise ValueError(
            f"triangle condition violated for ({alpha}, {beta}, {gamma})"
        )
    return alpha, beta, gamma


def omega_su2(alpha: Fraction, beta: Fraction, gamma: Fraction) -> Fraction:
    """Exact omega for a qubit component with spins (alpha, beta) and
    fixed input spin gamma = N/2:

        omega = 1/2 + (alpha(alpha+1) - beta(beta+1)) / (2 gamma(gamma+1))

    Requires the triangle condition |alpha - beta| <= gamma <= alpha + beta
    and consistent half-integers (alpha + beta + gamma integral), else
    ValueError; gamma = 0 then forces alpha = beta.
    """
    alpha, beta, gamma = _check_spins(alpha, beta, gamma)
    if gamma == 0:
        return Fraction(1, 2)
    return Fraction(1, 2) + (alpha * (alpha + 1) - beta * (beta + 1)) / (
        2 * gamma * (gamma + 1)
    )
