"""Bidirectional transformation between maximum-distance and closest-vector
instances, carried in rational Gram form.

The orthonormalizing map L of the decomposed basis is irrational in
general, so the CVP side is represented by the quadratic form
(j + c)^T G' (j + c) with G' = L L^T = G^-1 rational, where G is the Gram
matrix of the v-orthogonal parts b_i' = b_i - gamma_i v. The squared
fixed-vector norm rides along so distances can be recovered without the
original instance.

The API stays in that rational form; the computation is integer. The
enumeration runs on the primal side of the isomorphism: the objective is
an affine function of z^T P^-1 z = T / D, with P the integer Gram matrix
of (v, b_{n-1}, ..., b_0), z = (1, -x_{n-1}, ..., -x_0) and D = det P.
T is the last of the integers Q_k of one recurrence over the rows u_k of
P's elimination record (d, lambda, u) (lattice._value), which gives an
objective at one point and which the search walks level by level,
pruning on Q_k (_search). The forward map keeps that record, from the
MDSP instance's stored form (MDSPInstance._primal), on the instance it
returns. gram and offset are built from it, off adj(P) by
back-substitution, only when a caller first reads them. A hand-built
form is scaled to integers, checked symmetric positive definite and
bordered into such a P, from step adj(M), when it is built, and keeps
that record the same way (_bordered), so every instance holds one record
and every objective, enumeration and recovery reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .errors import (
    DegenerateResidual,
    DependentInput,
    LengthMismatch,
    NonSquare,
    NotSPD,
)
from .lattice import (
    LatticeBasis,
    MDSPInstance,
    _integral_shift,
    _value,
)
from .qlinalg import (
    QMatrix,
    QVector,
    _adjugate,
    _eliminate_gram,
    _Record,
    adjugate_spd,
    integer_rows,
    inverse,
    rational,
)

# The record of an eliminated P (_eliminate_gram) with the factor
# f = f_num / f_den that scales its objective to the form's, which every
# instance holds as _primal: mdsp_to_cvp stores it, and a hand-built form
# stores _bordered's when it is built.
_Primal = tuple[_Record, int, int]


@dataclass(frozen=True)
class CVPGramInstance:
    """Closest-vector instance as a rational positive definite form.

    Every instance carries its primal elimination record, which is not a
    field: an instance returned by mdsp_to_cvp holds the one it was built
    from and builds gram and offset on first access, and a hand-built form
    stores its bordered record (_bordered) when it is built. Equality,
    hashing, repr, copies and pickles see only the fields. It raises
    NonSquare unless gram is square, LengthMismatch unless offset has its
    order, ValueError unless scale_sq, which is |v|^2 and is coerced with
    rational(), is positive, and NotSPD unless gram is symmetric positive
    definite.
    """

    gram: QMatrix
    offset: QVector
    scale_sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "scale_sq", rational(self.scale_sq))
        if not self.gram.is_square:
            raise NonSquare("the form needs a square matrix")
        if self.offset.dim != self.gram.rows:
            raise LengthMismatch(
                f"offset has length {self.offset.dim}, expected {self.gram.rows}"
            )
        if not self.scale_sq > 0:
            raise ValueError(f"scale_sq must be positive, got {self.scale_sq}")
        object.__setattr__(self, "_primal", _bordered(self))

    def __getattr__(self, name: str):
        # reached only for an attribute missing from the instance
        primal = self.__dict__.get("_primal")
        if primal is None or name not in ("gram", "offset"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        gram, offset = _public_fields(primal[0], primal[1])
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "offset", offset)
        return self.__dict__[name]

    @property
    def n(self) -> int:
        return len(self._primal[0][0]) - 2

    def objective(self, j: Sequence[int]) -> Fraction:
        """(j + offset)^T gram (j + offset), exact.

        Evaluated in integers, by _value on the stored record. Raises
        LengthMismatch unless j has n coordinates and ValueError unless
        they are integers.
        """
        primal = self._primal
        return Fraction(*_terms(primal, *_value(primal[0], _integral_shift(self.n, j))))


@dataclass(frozen=True)
class CVPSolution:
    j: tuple[int, ...]
    objective: Fraction


def mdsp_to_cvp(inst: MDSPInstance) -> CVPGramInstance:
    """Forward reduction: decompose against v and invert the residual Gram.

    The elimination (d, lam) of the Gram matrix P of (v, b_{n-1}, ..., b_0),
    on the rows (B, v) scaled to integers by s, comes from inst's stored
    integer form (MDSPInstance._primal). The CVP instance keeps it for
    enumerate_cvp, objective and recover_mdsp_distance_sq; scale_sq is
    d[1] / s^2 = |v|^2, and gram and offset are built on first access
    (_public_fields). A zero v raises DependentInput and a dependent
    [B; v] SingularMatrix.
    """
    if inst.fixed.is_zero():
        raise DependentInput("fixed vector is zero")
    _, scale, eliminated = inst._primal()
    scale_sq = scale * scale
    c = object.__new__(CVPGramInstance)
    object.__setattr__(c, "scale_sq", Fraction(eliminated[0][1], scale_sq))
    object.__setattr__(c, "_primal", (eliminated, scale_sq, 1))
    return c


def _public_fields(e: _Record, scale_sq: int) -> tuple[QMatrix, QVector]:
    """gram and offset of the instance mdsp_to_cvp built from the
    record (d, lam, u) of the elimination of the Gram matrix P of the
    scaled rows (v, b_{n-1}, ..., b_0), with s^2 = scale_sq.

    With G = P reversed, the Gram matrix of (B, v), Gram(b') is the Schur
    complement of |v|^2 in G / s^2, so its inverse is
    (s^2 / det G) adj(G)[:n, :n], adj(G) being adj(P) reversed, built by
    back-substitution (_adjugate); gamma_i = G[i][n] / G[n][n] =
    P[0][n-i] / d[1], P[0][1..n] being lam's first column.
    """
    d, lam, _ = e
    adj = _adjugate(d, lam)
    gram = QMatrix([QVector._of_ints([a * scale_sq for a in row[:0:-1]], d[-1])
                    for row in adj[:0:-1]])
    return gram, QVector._of_ints(lam[0][::-1], d[1])


def cvp_to_mdsp(basis_rows: QMatrix, target: QVector) -> MDSPInstance:
    """Reverse reduction from a row-basis CVP instance.

    Uses the standard orthonormal basis of R^(n+1): the fixed vector is
    e_0 and the remaining vectors are the columns of [0; L^-1] lifted by
    gamma = -(L^T)^-1 t along e_0.
    """
    n = basis_rows.rows
    if target.dim != n:
        raise ValueError("target dimension does not match the basis")
    l_inv = inverse(basis_rows)  # raises SingularMatrix
    gamma = l_inv.transpose().mul_vec(-target)  # (L^T)^-1 = (L^-1)^T
    e0 = QVector([1] + [0] * n)
    rest = []
    for i in range(n):
        col = l_inv.col(i)
        rest.append(QVector([gamma[i]] + list(col.entries)))
    return MDSPInstance(e0, LatticeBasis(rest, validate=False), validate=True)


def recover_mdsp_distance_sq(c: CVPGramInstance, j: Sequence[int]) -> Fraction:
    """Distance recovery: scale_sq / (1 + scale_sq * objective(j)).

    On an instance produced by mdsp_to_cvp this equals the squared distance
    of v from span(B(j)) exactly. The scale correction accounts for the
    fixed vector not being unit length. With scale_sq = a / b and
    objective(j) = num / den, read off the instance's stored record by
    _value and _terms, it is built as the one Fraction a den / (b den + a
    num). The record exists only for a symmetric positive definite form,
    which the constructor checks.
    """
    primal = c._primal
    num, den = _terms(primal, *_value(primal[0], _integral_shift(c.n, j)))
    a, b = c.scale_sq.numerator, c.scale_sq.denominator
    return Fraction(a * den, b * den + a * num)


def enumerate_cvp(c: CVPGramInstance) -> CVPSolution:
    """Lexicographically smallest minimizer of the form over all integer
    vectors, in integers and in any dimension.

    Runs _search on the instance's stored record of the eliminated
    primal Gram matrix P. The form is the CVP side of the MDSP instance
    with Gram matrix P, whose squared distance is 1 / (z^T P^-1 z) on P's
    own scale, so the objective is that of _terms.
    """
    primal = c._primal
    j, t, det = _search(primal[0])
    return CVPSolution(j, Fraction(*_terms(primal, t, det)))


# The old name of enumerate_cvp, kept and exported by the package only
# because latbench/run.py calls it; it goes when the benchmark moves to
# enumerate_cvp.
solve_cvp_bruteforce = enumerate_cvp


def _terms(primal: _Primal, t: int, det: int) -> tuple[int, int]:
    """(num, den): the form's value where z^T P^-1 z = T / D is
    f (step T - D) / (D step), with step = d[1] = |v|^2 on P's scale and f
    the primal's factor."""
    (d, _, _), f_num, f_den = primal
    step = d[1]
    return f_num * (step * t - det), f_den * det * step


def _bordered(c: CVPGramInstance) -> _Primal:
    """(e, f_num, f_den): the record e of the elimination of P, an integer
    Gram matrix of some (v, b_{n-1}, ..., b_0) whose CVP side is a positive
    multiple of the hand-built form c, and the factor f = f_num / f_den
    that scales its objective to c's.

    The form is scaled once to M = den G' with den = lcm(den G') and
    w = step offset with step = lcm(den offset). With M positive definite,
    it borders step adj(M) as

        G = [[step adj(M) / k + w w^T, step w], [step w^T, step^2]],

    with adj(M) divided by the gcd k of its entries, which strips the
    powers of det(G) that a form read off an adjugate carries. Its Schur
    complement of step^2 is step adj(M) / k = (step det(M) / k) M^-1 and
    its offset is w / step, so f = det(M) step / (den k), and P is G
    reversed. This bordering is the price of one enumerator for both kinds
    of instance. Raises NotSPD unless M is symmetric positive definite:
    adjugate_spd checks every leading minor but the last, det(M), which it
    returns. Then G is positive definite, so P's elimination cannot fail.
    """
    m, den = integer_rows(c.gram.row_vectors())
    (w,), step = integer_rows([c.offset])
    n = len(m)
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise NotSPD("matrix is not symmetric")
    try:
        adj, det = adjugate_spd(m)
    except DegenerateResidual:
        raise NotSPD("matrix is not positive definite") from None
    if det <= 0:
        raise NotSPD("matrix is not positive definite")
    content = gcd(*(a for row in adj for a in row))
    g = [[step * (a // content) + wi * wj for a, wj in zip(row, w)] + [step * wi]
         for row, wi in zip(adj, w)]
    g.append([step * wj for wj in w] + [step * step])
    return _eliminate_gram([row[::-1] for row in reversed(g)]), det * step, den * content


def _search(e: _Record) -> tuple[tuple[int, ...], int, int]:
    """(x, T, D): the lexicographically smallest integer x minimizing
    z^T P^-1 z = T / D, z = (1, -x_{n-1}, ..., -x_0), for P the positive
    definite Gram matrix of (v, b_{n-1}, ..., b_0) and e the record of its
    elimination (CVPGramInstance._primal); (T, D) is _value at x.

    det Gram(B(x)) = det P z^T P^-1 z with B(x) = (b_i + x_i v), so x
    maximizes the distance of v from span(B(x)), d^2 = D / T on P's scale.
    The search walks _value's recurrence over the record's rows u_k and
    pivots d_k. From Q_1 = 1, level k chooses j = x_{n-k} and sets

        H = p - d_k j,  p = u_k[0..k-1] . z[0..k-1],
        Q_{k+1} = (d_{k+1} Q_k + H^2) / d_k,

    each division exact, with T = Q_{n+1} and D = d_{n+1}. Q_{k+1} / d_{k+1}
    is the partial sum of the terms H^2 / (d_k d_{k+1}) of T / D, so a
    candidate is pruned when Q_{k+1} D > best_T d_{k+1}, that is when the
    integer Q_{k+1} exceeds floor(best_T d_{k+1} / D). Those limits are
    recomputed whenever best_T falls and read at every candidate, never
    kept from a level's entry, since a deeper level may lower best_T
    meanwhile. The search is depth-first from x_{n-1} down to x_0
    (Fincke-Pohst), each level in zig-zag order of |H| from floor(p / d_k)
    (Schnorr-Euchner), so the first candidate over the limit ends its
    level. best_T starts infinite, and the first dive, Babai's nearest
    plane, takes it. Only a strictly larger value is pruned, so all ties
    reach a leaf, where the lexicographically smaller x wins.
    """
    d, _, u = e
    n, big_d = len(d) - 2, d[-1]
    heads = [uk[:-1] for uk in u]  # u_k[0..k-1]
    y = [-1] * (n + 1)  # -z: y[k] = x_{n-k}, written as level k chooses
    limits = [float("inf")] * (n + 2)  # limits[k] = floor(best_T d_k / D)
    best_t, best_x = limits[0], ()

    def descend(k: int, q: int) -> None:
        nonlocal best_t, best_x
        a, base = d[k], d[k + 1] * q
        j_lo, h_lo = divmod(-sum(map(mul, heads[k], y)), a)  # H at j_lo, in [0, a)
        j_hi, h_hi = j_lo + 1, h_lo - a
        while True:
            if h_lo <= -h_hi:
                j, h = j_lo, h_lo
                j_lo, h_lo = j_lo - 1, h_lo + a
            else:
                j, h = j_hi, h_hi
                j_hi, h_hi = j_hi + 1, h_hi - a
            q_next = (base + h * h) // a
            if q_next > limits[k + 1]:
                return
            y[k] = j
            if k < n:
                descend(k + 1, q_next)
            else:
                x = tuple(y[:0:-1])
                if q_next < best_t or x < best_x:
                    best_t, best_x = q_next, x
                    limits[:] = [best_t * dk // big_d for dk in d]

    descend(1, 1)
    return best_x, best_t, big_d

