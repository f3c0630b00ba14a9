"""Exact LLL reduction and the distance-heuristic acceleration.

The reduction is integral (fraction-free) LLL: a rational basis is scaled
once to integer rows, and the Gram-Schmidt data is kept as integer Gram
determinants and scaled coefficients, so the size-reduction and Lovasz
tests are exact integer comparisons. The accelerated variant alternates
cheap low-delta LLL rounds with greedy sub-lattice distance improvement
sweeps on the same integer rows until a basis vector reaches the requested
norm.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .errors import DependentInput
from .heuristic import _check_count, _sweep_prefixes
from .lattice import LatticeBasis
from .qlinalg import QVector, integer_rows, rational, rational_vectors

_QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class LLLParams:
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", rational(self.delta))
        if self.delta == _QUARTER:
            # no approximation guarantee at 1/4; stacklevel 3 skips the
            # dataclass-generated __init__ to name the caller's line
            warnings.warn(
                "delta = 1/4 gives the weakest admissible reduction",
                stacklevel=3,
            )
        elif not (_QUARTER < self.delta < 1):
            raise ValueError("delta must lie in [1/4, 1)")


@dataclass
class ReductionTrace:
    swap_count: int = 0
    size_reduction_count: int = 0
    final_shortest_norm_sq: Optional[Fraction] = None
    wall_time: float = 0.0
    # accelerated-run extras; plain LLL leaves the defaults
    rounds_used: int = 0
    reached_target: Optional[bool] = None
    lll_time: float = 0.0
    heuristic_time: float = 0.0


@dataclass(frozen=True)
class AccelConfig:
    delta: LLLParams
    target_norm_sq: Fraction
    max_rounds: int = 1000
    heuristic_passes: int = 1  # passes per fixed vector in each sweep

    def __post_init__(self):
        object.__setattr__(self, "target_norm_sq", rational(self.target_norm_sq))
        if self.target_norm_sq <= 0:
            raise ValueError("target_norm_sq must be positive")
        _check_count("max_rounds", self.max_rounds)
        _check_count("heuristic_passes", self.heuristic_passes)


def _gso_row(gk: list[int], d: list[int], lam: list[list[int]]) -> int:
    """Row k = len(lam) of Cohen's integral Gram-Schmidt data from the
    inner products gk[j] = G[k][j], j <= k; returns its pivot d_{k+1}.

    With d_{i+1} the Gram determinant of rows 0..i (d_0 = 1) and
    lam[k][j] = d_{j+1} mu_kj, entry j is the recurrence
    u <- (d_{i+1} u - lam[k][i] lam[j][i]) / d_i over i < j from
    u = G[k][j], every division exact (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.7), and the pivot is the same
    recurrence at j = k. d[0..k] and lam[0..k-1] are read; the row
    lam[k][0..k-1] is appended to lam, and the pivot is returned unchecked.
    This is LLL's own step, not qlinalg's left-looking pass
    (_eliminate_gram), because LLL's rows move under swaps and size
    reductions: that pass would also have to keep its adjugate rows u_k
    current, O(n^2) more work per swap or size reduction, O(n^4) where a
    round makes O(n^2) of them.
    """
    k = len(lam)
    lk = [0] * (k + 1)  # the pivot passes through lk[k]
    lam.append(lk)
    for j in range(k + 1):
        u, lj = gk[j], lam[j]
        for i in range(j):
            u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
        lk[j] = u
    return lk.pop()


def _lll_rows(
    b: list[list[int]], p: int, q: int, trace: ReductionTrace
) -> tuple[list[int], list[list[int]]]:
    """Reduce integer rows in place with parameter delta = p/q, and return
    their integral Gram-Schmidt data (d, lam), lam by columns.

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7): d[i+1] is the Gram determinant of b_0..b_i (d[0] = 1) and
    lam[k][j] = d[j+1] * mu_kj; both stay integers and every division below
    is exact. Each test is the rational one times a positive factor, so
    swaps and size reductions are those of rational LLL. Gram-Schmidt data
    of row k is computed when k is first reached, by _gso_row on the row's
    inner products with rows 0..k, so kmax is the last row whose data is
    current and lam holds rows 0..kmax. At the end every row's data is
    current, and lam is returned transposed: (d, lam) is then exactly the
    (d, lam) of qlinalg._eliminate_gram's record of the reduced rows' Gram
    matrix, which the heuristic sweep starts from. Counts are added to
    trace.
    """
    n = len(b)
    d = [1] * (n + 1)
    lam: list[list[int]] = []
    swaps = reductions = 0

    def add_row(k: int) -> None:
        bk = b[k]
        u = _gso_row([sum(map(mul, bk, bj)) for bj in b[: k + 1]], d, lam)
        if u == 0:
            raise DependentInput(f"basis vector {k} is dependent")
        d[k + 1] = u

    def size_reduce(k: int, l: int, m: int, dl: int) -> None:
        """b_k -= r b_l for r the integer nearest mu_kl = m / dl."""
        r = (2 * m + dl) // (2 * dl)
        b[k] = [x - r * y for x, y in zip(b[k], b[l])]
        lk, ll = lam[k], lam[l]
        lk[l] = m - r * dl
        for i in range(l):
            lk[i] -= r * ll[i]

    add_row(0)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            add_row(k)
            kmax = k
        lk = lam[k]
        m = lk[k - 1]
        if 2 * abs(m) > d[k]:  # |mu_k,k-1| > 1/2
            size_reduce(k, k - 1, m, d[k])
            reductions += 1
            m = lk[k - 1]
        # Lovasz fails: |b*_k|^2 < (delta - mu^2) |b*_{k-1}|^2
        if q * (d[k + 1] * d[k - 1] + m * m) < p * d[k] * d[k]:
            b[k], b[k - 1] = b[k - 1], b[k]
            lk1 = lam[k - 1]
            for j in range(k - 1):
                lk[j], lk1[j] = lk1[j], lk[j]
            dk, dk1 = d[k], d[k + 1]
            new_dk = (d[k - 1] * dk1 + m * m) // dk
            for i in range(k + 1, kmax + 1):
                li = lam[i]
                t = li[k]
                li[k] = (dk1 * li[k - 1] - m * t) // dk
                li[k - 1] = (new_dk * t + m * li[k]) // dk1
            d[k] = new_dk
            swaps += 1
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                m, dl = lk[l], d[l + 1]
                if 2 * abs(m) > dl:
                    size_reduce(k, l, m, dl)
                    reductions += 1
            k += 1
    trace.swap_count += swaps
    trace.size_reduction_count += reductions
    return d, [[lam[l][j] for l in range(j + 1, n)] for j in range(n)]


def _min_norm_sq(rows: list[list[int]]) -> int:
    return min(sum(map(mul, r, r)) for r in rows)


def lll_reduce(basis: LatticeBasis, p: LLLParams) -> tuple[LatticeBasis, ReductionTrace]:
    """Delta-parameterized reduction with exact arithmetic.

    The output basis spans the same lattice, satisfies |mu_ij| <= 1/2 for
    i > j, and meets the Lovasz condition with parameter delta for every
    consecutive pair, all as exact rational statements. A rational basis is
    reduced as integer rows scaled by the lcm of its denominators.
    """
    t0 = time.perf_counter()
    trace = ReductionTrace()
    rows, scale = integer_rows(basis.vectors)
    _lll_rows(rows, p.delta.numerator, p.delta.denominator, trace)
    out = LatticeBasis(rational_vectors(rows, scale), validate=False)
    trace.final_shortest_norm_sq = Fraction(_min_norm_sq(rows), scale * scale)
    trace.wall_time = time.perf_counter() - t0
    return out, trace


def shortest_basis_vector(basis: LatticeBasis) -> tuple[QVector, Fraction]:
    """Basis vector of minimal squared norm; first index wins ties.

    The norms are compared as integers, on rows scaled once by the lcm of
    the basis denominators.
    """
    rows, scale = integer_rows(basis.vectors)
    norms = [sum(map(mul, r, r)) for r in rows]
    i = norms.index(min(norms))
    return basis.vectors[i], Fraction(norms[i], scale * scale)


def accelerated_reduce(
    basis: LatticeBasis, cfg: AccelConfig
) -> tuple[LatticeBasis, ReductionTrace]:
    """Alternate low-delta LLL with distance-improvement sweeps.

    Each round first reduces, then for i = n-1 down to 1 treats b_i as the
    fixed vector over the prefix b_0..b_{i-1}, runs the greedy improvement,
    and applies its shift vector to the prefix before the next i. The same
    row-norm test, after LLL and again after the sweep, stops the run once
    a basis vector has squared norm at most the target. It also stops when
    rounds are exhausted, or when a full round leaves the basis unchanged
    (a fixed point, so no further round could make progress); the two
    latter cases are flagged with reached_target = False. The rounds work
    on integer rows scaled by the lcm of the basis denominators.
    """
    t_start = time.perf_counter()
    trace = ReductionTrace(reached_target=False)
    rows, scale = integer_rows(basis.vectors)
    # |b|^2 <= target  <=>  |row|^2 * target_den <= target_num * scale^2
    target_num = cfg.target_norm_sq.numerator * scale * scale
    target_den = cfg.target_norm_sq.denominator
    delta = cfg.delta.delta
    prev: Optional[tuple[tuple[int, ...], ...]] = None
    while trace.rounds_used < cfg.max_rounds:
        trace.rounds_used += 1
        t0 = time.perf_counter()
        d, lam = _lll_rows(rows, delta.numerator, delta.denominator, trace)
        trace.lll_time += time.perf_counter() - t0
        if _min_norm_sq(rows) * target_den <= target_num:
            trace.reached_target = True
            break
        t0 = time.perf_counter()
        _sweep_prefixes(rows, d, lam, cfg.heuristic_passes)
        trace.heuristic_time += time.perf_counter() - t0
        if _min_norm_sq(rows) * target_den <= target_num:
            trace.reached_target = True
            break
        snapshot = tuple(map(tuple, rows))
        if snapshot == prev:
            break  # deterministic fixed point; further rounds are no-ops
        prev = snapshot
    current = LatticeBasis(rational_vectors(rows, scale), validate=False)
    trace.final_shortest_norm_sq = Fraction(_min_norm_sq(rows), scale * scale)
    trace.wall_time = time.perf_counter() - t_start
    return current, trace

