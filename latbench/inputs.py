"""Seeded workload inputs, generated without any help from latkit.

Every input is a list of integer rows drawn from the benchmark's own
SplitMix64 generator, so a change to latkit (its random-basis generator
included) cannot change what is measured. The same seed always gives the
same inputs. Each workload's list is stratified: it is made of whole
rounds, and every round holds one input of each stratum in a fixed order,
so two seeds differ in the draws but never in the mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from checks import bareiss_det, dot, gram_det

_MASK = (1 << 64) - 1

# reduce: (kind, dimension); entries of uniform bases lie in +-UNIFORM_BOUND,
# knapsack bases carry KNAPSACK_BITS-bit weights in their last column.
REDUCE_STRATA = (("uniform", 10), ("uniform", 12), ("uniform", 14),
                 ("knapsack", 10), ("knapsack", 12), ("knapsack", 14))
UNIFORM_BOUND = 100
KNAPSACK_BITS = 30

# mdsp-exact: (route, n) where the lattice has rank n + 1 in dimension n + 1.
MDSP_STRATA = (("exact", 3), ("exact", 4), ("cvp", 6))
MDSP_BOUND = 12
# Band of shift-box sizes (product of the certified range widths) a draw
# must fall in on each route; other draws are set aside. The box is heavy
# tailed (a 4-dimensional draw with entries in +-20 can exceed 10^9
# points), the exact solver's time is proportional to it, and on these
# draws the CVP enumeration's time grows with it too (under 50 ms up to
# 10^6 points, seconds beyond 10^8). The floor keeps each exact stratum's
# times within a factor of three, so the mix, and with it the median, is
# the same from seed to seed; the bands give both exact strata similar times.
BOX_BAND = {("exact", 3): (400, 1200), ("exact", 4): (200, 600), ("cvp", 6): (1, 10**5)}

# certify: ambient dimensions of full-dimensional instances.
CERTIFY_DIMS = (16, 20, 24)
CERTIFY_BOUND = 100


class SplitMix64:
    """Small, fully specified 64-bit generator (Steele, Lea, Flood 2014)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, for 0 < n <= 2**64."""
        limit = (1 << 64) - (1 << 64) % n
        while True:
            r = self.next64()
            if r < limit:
                return r % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def stream(seed: int, workload: str) -> SplitMix64:
    """Independent generator per (seed, workload)."""
    tag = sum(ord(c) << (8 * i) for i, c in enumerate(workload)) & _MASK
    return SplitMix64((seed * 0x2545F4914F6CDD1D) ^ tag)


def uniform_rows(rng: SplitMix64, dim: int, bound: int) -> list[list[int]]:
    """Nonsingular square integer matrix with entries in [-bound, bound]."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)]
        if bareiss_det(rows) != 0:
            return rows


def knapsack_rows(rng: SplitMix64, dim: int, bits: int) -> list[list[int]]:
    """Rows e_i + a_i e_last for i < dim - 1, then N e_last; det = N."""
    rows = []
    for i in range(dim - 1):
        row = [0] * dim
        row[i] = 1
        row[-1] = rng.randint(1, (1 << bits) - 1)
        rows.append(row)
    last = [0] * dim
    last[-1] = rng.randint(1 << bits, (1 << (bits + 1)) - 1)
    rows.append(last)
    return rows


@dataclass(frozen=True)
class Input:
    kind: str
    dim: int
    rows: list[list[int]]  # reduce: the basis; mdsp/certify: v first, then B


def reduce_inputs(seed: int, rounds: int) -> list[Input]:
    rng = stream(seed, "reduce")
    out = []
    for _ in range(rounds):
        for kind, dim in REDUCE_STRATA:
            rows = (uniform_rows(rng, dim, UNIFORM_BOUND) if kind == "uniform"
                    else knapsack_rows(rng, dim, KNAPSACK_BITS))
            out.append(Input(kind, dim, rows))
    return out


def shift_box(rows: list[list[int]]) -> int:
    """Number of shift vectors in the certified enumeration box.

    Recomputes, from the definition, the per-coordinate integer ranges
    [s_i, t_i] that hold the optimum: with p^2 the squared projection of v
    on span(B), x_i is admissible when (v.(b_i + x v))^2 <= p^2 |b_i + x v|^2,
    a quadratic in x with root interval -alpha_i +- sqrt(beta_i^2).
    """
    v, bs = rows[0], rows[1:]
    v_sq = dot(v, v)
    # p^2 = |v|^2 - dist^2(v, span B), dist^2 = det G(v, B) / det G(B)
    p_sq = v_sq - Fraction(gram_det(rows), gram_det(bs))
    lead = v_sq * (v_sq - p_sq)
    points = 1
    for b in bs:
        w = dot(v, b)
        alpha = Fraction(w, v_sq)
        const = w * w - p_sq * dot(b, b)
        beta_sq = alpha * alpha - const / lead
        # s = floor(-alpha - beta), t = ceil(-alpha + beta)
        lo = -_ceil_plus_sqrt(alpha, beta_sq)
        hi = _ceil_plus_sqrt(-alpha, beta_sq)
        points *= hi - lo + 1
    return points


def _ceil_plus_sqrt(r: Fraction, q: Fraction) -> int:
    """ceil(r + sqrt(q)) for rational r and q >= 0, exactly."""
    # start below: ceil(r) - 1 < r and floor(sqrt(q)) = isqrt(floor(q)) <= sqrt(q)
    m = -((-r.numerator) // r.denominator) + isqrt(q.numerator // q.denominator) - 1
    # then the smallest integer m >= r + sqrt(q), i.e. m - r >= 0, (m - r)^2 >= q
    while not (m - r >= 0 and (m - r) ** 2 >= q):
        m += 1
    return m


def mdsp_inputs(seed: int, rounds: int) -> tuple[list[Input], int]:
    """Draws whose shift box lies outside their stratum's BOX_BAND are set
    aside; returns the inputs and the number of draws set aside."""
    rng = stream(seed, "mdsp-exact")
    out = []
    set_aside = 0
    for _ in range(rounds):
        for route, n in MDSP_STRATA:
            lo, hi = BOX_BAND[route, n]
            rows = uniform_rows(rng, n + 1, MDSP_BOUND)
            while not lo <= shift_box(rows) <= hi:
                set_aside += 1
                rows = uniform_rows(rng, n + 1, MDSP_BOUND)
            out.append(Input(route, n + 1, rows))
    return out, set_aside


def certify_inputs(seed: int, rounds: int) -> list[Input]:
    rng = stream(seed, "certify")
    return [Input("certify", dim, uniform_rows(rng, dim, CERTIFY_BOUND))
            for _ in range(rounds) for dim in CERTIFY_DIMS]
