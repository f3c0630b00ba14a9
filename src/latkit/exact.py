"""Exact maximum-distance solver through the MDSP = CVP isomorphism.

Every function here reads the instance's stored integer form
(MDSPInstance._primal): the rows (B, v) scaled to integers once and the
elimination record (d, lambda, u) of the Gram matrix P of
(v, b_{n-1}, ..., b_0). Every MDSP value there is det P / T, T the last
of the integers Q_k of one O(n^2) recurrence over the record's rows u_k
(lattice._value). shift_dist_sq evaluates it at one shift, and
shift_ranges reads p^2 off it at x = 0. solve_exact finds the closest
vector of the instance's Gram-form CVP side by the integer
Schnorr-Euchner enumeration of enumerate_cvp, which walks that
recurrence level by level and prunes on Q_k (cvp._search), with no
adjugate and no CVP form built; dist^2 comes from integers, once, and
B(x) from the scaled rows, on the first read of the solution's basis.
Ties go to the lexicographically smallest shift, and there is no
dimension cap.

The certified shift ranges remain a certificate, not the search: any basis
B(x) whose span is at least as far from v as span(B) must keep every
single-line projection of v below p = |proj(v, span(B))|, and solving that
condition per coordinate yields an integer interval [s_i, t_i] that holds
every maximizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cvp import _search
from .errors import DegenerateFixedVector
from .lattice import LatticeBasis, MDSPInstance, _integral_shift, _value
from .qlinalg import ceil_plus_sqrt, floor_minus_sqrt, rational_vectors


@dataclass(frozen=True)
class ShiftRanges:
    """Per-coordinate integer ranges certified to contain the optimum.

    alpha[i] is the line-projection center v.b_i / |v|^2; beta_sq_bound[i]
    is a certified rational upper bound on the squared half-width of the
    admissible real interval around -alpha[i]. Integers outside [s_i, t_i]
    force the line projection of v on b_i + x_i v strictly above p.
    """

    s: tuple[int, ...]
    t: tuple[int, ...]
    alpha: tuple[Fraction, ...]
    beta_sq_bound: tuple[Fraction, ...]


@dataclass(frozen=True)
class MDSPSolution:
    """The maximizing shift x, dist^2 from v to span(B(x)), and B(x).

    solve_exact stores the instance's scaled integer rows and scale s, not
    B(x), and builds basis from them on first read. Equality, hashing,
    repr, copies and pickles see only the three fields.
    """

    x: tuple[int, ...]
    dist_sq: Fraction
    basis: LatticeBasis

    def __getattr__(self, name: str):
        # reached only for an attribute missing from the solution
        scaled = self.__dict__.get("_scaled")
        if scaled is None or name != "basis":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        (*rest, v), scale = scaled
        shifted = [[b + xi * e for b, e in zip(row, v)] for row, xi in zip(rest, self.x)]
        basis = LatticeBasis(rational_vectors(shifted, scale), validate=False)
        object.__setattr__(self, "basis", basis)
        return basis


def shift_ranges(inst: MDSPInstance) -> ShiftRanges:
    """Certified enumeration ranges for every shift coordinate.

    The admissible real interval for x_i is where the squared line
    projection (v.(b_i + x v))^2 / |b_i + x v|^2 stays at most p^2. That
    condition is a rational quadratic in x with positive leading
    coefficient, so its root interval is [-alpha_i - w, -alpha_i + w] with
    w^2 rational; the integer range takes the exact floor and ceiling of
    the endpoints. p^2 = |v|^2 - dist^2(v, span B) by Pythagoras, the
    distance being shift_dist_sq at x = 0.
    """
    v = inst.fixed
    v_sq = v.norm_sq()
    if v_sq == 0:
        raise DegenerateFixedVector("fixed vector is zero")
    p_sq = v_sq - shift_dist_sq(inst, [0] * inst.n)
    lead = v_sq * (v_sq - p_sq)  # positive: v is outside span(B)
    s: list[int] = []
    t: list[int] = []
    alphas: list[Fraction] = []
    beta_sqs: list[Fraction] = []
    for b in inst.rest.vectors:
        w = v.dot(b)
        alpha = w / v_sq
        const = w * w - p_sq * b.norm_sq()  # <= 0 by nested projection
        beta_sq = alpha * alpha - const / lead
        s.append(floor_minus_sqrt(-alpha, beta_sq))
        t.append(ceil_plus_sqrt(-alpha, beta_sq))
        alphas.append(alpha)
        beta_sqs.append(beta_sq)
    return ShiftRanges(tuple(s), tuple(t), tuple(alphas), tuple(beta_sqs))


def shift_dist_sq(inst: MDSPInstance, x: Sequence[int]) -> Fraction:
    """dist^2 from v to span(B(x)): D / (s^2 T) for (T, D) = _value at x
    on the instance's stored form, in O(n^2).

    Raises LengthMismatch unless x has n coordinates, ValueError unless
    they are integers, and SingularMatrix on a dependent [B; v].
    """
    _, scale, e = inst._primal()
    t, det = _value(e, _integral_shift(inst.n, x))
    return Fraction(det, scale * scale * t)


def solve_exact(inst: MDSPInstance) -> MDSPSolution:
    """The maximizing shift, through the CVP route, in integers.

    The instance's stored form (MDSPInstance._primal), which mdsp_to_cvp,
    the heuristic and the verifier share, holds the rows (B, v) scaled to
    integers by s and the eliminated integer Gram matrix P of
    (v, b_{n-1}, ..., b_0). The search of enumerate_cvp (no dimension
    cap) runs on P and returns the maximizer x, ties going to the
    lexicographically smallest, with z^T adj(P) z = T and det P = D at
    z = (1, -x_{n-1}, ..., -x_0); so d^2 = D / (s^2 T). The solution
    keeps the scaled rows and s, and builds B(x), rows_i + x_i v divided
    by s once, on the first read of its basis. If v is
    orthogonal to span(B), the unique maximizer is x = 0. A zero v raises
    DegenerateFixedVector and a dependent [B; v] SingularMatrix.
    """
    if inst.fixed.is_zero():
        raise DegenerateFixedVector("fixed vector is zero")
    rows, scale, eliminated = inst._primal()  # raises SingularMatrix
    x, t, det = _search(eliminated)
    sol = object.__new__(MDSPSolution)
    object.__setattr__(sol, "x", x)
    object.__setattr__(sol, "dist_sq", Fraction(det, scale * scale * t))
    object.__setattr__(sol, "_scaled", (rows, scale))
    return sol
