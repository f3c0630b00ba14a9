"""Bidirectional transformation between maximum-distance and closest-vector
instances, carried in rational Gram form.

The orthonormalizing map L of the decomposed basis is irrational in
general, so the CVP side is represented by the quadratic form
(j + c)^T G' (j + c) with G' = L L^T = G^-1 rational, where G is the Gram
matrix of the v-orthogonal parts b_i' = b_i - gamma_i v. The squared
fixed-vector norm rides along so distances can be recovered without the
original instance.

The API stays in that rational form; the computation is integer, on a form
(M, w, step) with G' a positive multiple of M and c = w / step. The
forward map reads it off the fraction-free adjugate of the integer Gram
matrix of (B, v) and stores it on the instance it returns; any other
instance is scaled to integers once. The enumeration runs on the leading
minors and lambda data of the fraction-free LDL^T of M.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import (
    DegenerateResidual,
    DependentInput,
    DimensionCapExceeded,
    NonSquare,
    NotSPD,
    SingularMatrix,
)
from .lattice import LatticeBasis, MDSPInstance
from .qlinalg import (
    QMatrix,
    QVector,
    _eliminate_gram,
    adjugate_spd,
    integer_gram,
    integer_rows,
    inverse,
    ldl_decompose,
    sqrt_dyadic,
)


@dataclass(frozen=True)
class CVPGramInstance:
    """Closest-vector instance as a rational positive definite form."""

    gram: QMatrix
    offset: QVector
    scale_sq: Fraction

    @property
    def n(self) -> int:
        return self.gram.rows

    def objective(self, j: Sequence[int]) -> Fraction:
        """(j + offset)^T gram (j + offset), exact.

        Evaluated in integers on the form of _scaled_form:
        num u^T M u / (den step^2) with u = step j + w.
        """
        m, w, step, num, den = _scaled_form(self)
        u = [step * int(ji) + wk for ji, wk in zip(j, w)]
        return Fraction(num * _quad(m, u), den * step * step)


# A CVP form in integers, (M, w, step, num, den): gram = (num / den) M and
# offset = w / step, with num, den and step positive. M may be shared and
# is never modified in place.
_Form = tuple[list[list[int]], list[int], int, int, int]


def _scaled_form(c: CVPGramInstance) -> _Form:
    """The integer form of c: the one mdsp_to_cvp stored, or else the form
    scaled once, M = den G' with den = lcm(den G'), and w = step c with
    step = lcm(den c)."""
    stored = getattr(c, "_form", None)
    if stored is not None:
        return stored
    m, den = integer_rows(c.gram.row_vectors())
    (w,), step = integer_rows([c.offset])
    return m, w, step, 1, den


def _quad(m: list[list[int]], u: list[int]) -> int:
    """u^T m u."""
    return sum(a * sum(map(mul, row, u)) for a, row in zip(u, m))


@dataclass(frozen=True)
class CVPSolution:
    j: tuple[int, ...]
    objective: Fraction


@dataclass(frozen=True)
class EmbeddedCVPInstance:
    """Fixed-precision embedding with explicit row vectors.

    Rows are dyadic rational approximations of a triangular square root of
    the Gram form; their pairwise products reproduce the exact Gram matrix
    within the stated precision.
    """

    basis_rows: list[QVector]
    target: QVector
    precision_bits: int


def _mdsp_form(inst: MDSPInstance) -> tuple[list[list[int]], int, _Form]:
    """(rows, s, form): the rows (B, v) scaled to integers by s, and the
    integer form of the instance's CVP side, read off G = Gram(rows) and its
    adjugate.

    Gram(b') is the Schur complement of |v|^2 in G / s^2, so its inverse is
    (s^2 / det G) adj(G)[:n, :n]; gamma_i = G[i][n] / G[n][n]. A zero v
    raises DependentInput and a dependent [B; v] SingularMatrix.
    """
    if inst.fixed.is_zero():
        raise DependentInput("fixed vector is zero")
    n = inst.n
    rows, scale = integer_rows([*inst.rest.vectors, inst.fixed])
    g = integer_gram(rows)
    try:
        adj = adjugate_spd(g)
        det = sum(map(mul, g[n], adj[n]))  # Laplace expansion along row n
    except DegenerateResidual:
        det = 0
    if det == 0:
        raise SingularMatrix("the fixed vector and the basis are dependent")
    m = [row[:n] for row in adj[:n]]
    w = [row[n] for row in g[:n]]
    return rows, scale, (m, w, g[n][n], scale * scale, det)


def mdsp_to_cvp(inst: MDSPInstance) -> CVPGramInstance:
    """Forward reduction: decompose against v and invert the residual Gram.

    The fields are the integer form of _mdsp_form as Fractions. The form
    itself rides along as an attribute that is not a field, so equality
    and repr see only the rational fields. A zero v raises DependentInput
    and a dependent [B; v] SingularMatrix.
    """
    _, scale, form = _mdsp_form(inst)
    m, w, step, num, den = form
    c = CVPGramInstance(
        gram=QMatrix([[Fraction(a * num, den) for a in row] for row in m]),
        offset=QVector([Fraction(wk, step) for wk in w]),
        scale_sq=Fraction(step, scale * scale),
    )
    object.__setattr__(c, "_form", form)
    return c


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
    gamma = inverse(basis_rows.transpose()).mul_vec(-target)
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
    fixed vector not being unit length.
    """
    return c.scale_sq / (1 + c.scale_sq * c.objective(j))


def solve_cvp_bruteforce(c: CVPGramInstance, dim_cap: int = 6) -> CVPSolution:
    """Exact minimizer of the form over all integer vectors, for n <= dim_cap.

    The enumeration is enumerate_cvp; ties go to the lexicographically
    smallest vector.
    """
    if c.n > dim_cap:
        raise DimensionCapExceeded(f"dimension {c.n} above cap {dim_cap}")
    return enumerate_cvp(c)


def enumerate_cvp(c: CVPGramInstance) -> CVPSolution:
    """Lexicographically smallest minimizer of the form, in integers.

    Runs _enumerate on the integer form of _scaled_form. Raises NonSquare
    unless the form is square and NotSPD unless it is symmetric positive
    definite.
    """
    if not c.gram.is_square:
        raise NonSquare("the form needs a square matrix")
    m, w, step, num, den = _scaled_form(c)
    n = c.n
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise NotSPD("matrix is not symmetric")
    j, t, big_w = _enumerate(m, w, step)
    return CVPSolution(j, Fraction(num * t, den * big_w * step * step))


def _enumerate(
    m: list[list[int]], w: list[int], step: int
) -> tuple[tuple[int, ...], int, int]:
    """(j, T, W): the lexicographically smallest minimizer j of
    (j + w / step)^T M (j + w / step) for a symmetric integer M, with
    u^T M u = T / W at u = step j + w.

    Depth-first enumeration over the LDL^T factorization (Fincke-Pohst),
    each level visited in zig-zag order from its center (Schnorr-Euchner).
    One fraction-free elimination of a copy of M gives its leading minors
    d_k and lambda data, and u^T M u is the sum over k of
    z_k^2 / (d_k d_{k-1}) with z_k = d_k u_k + sum_{m>k} lambda_mk u_m.
    Level k is weighted by W / (d_k d_{k-1}), W the lcm of those products,
    so every partial sum and comparison is an integer. Zig-zag order visits
    |z_k| in non-decreasing order, so the first value over the remaining
    budget ends the level; only a strictly larger value is pruned, so all
    ties reach a leaf. The start bound, the order, the pruning and the tie
    comparisons are homogeneous in a positive scaling of (M, w, step), so
    every such scaling gives the same j. Raises NotSPD unless M is
    positive definite.
    """
    n = len(m)
    # the start bound: the componentwise rounding of -w / step
    best_j = tuple((step - 2 * wk) // (2 * step) for wk in w)
    u = [step * j + wk for j, wk in zip(best_j, w)]
    best_q = _quad(m, u)
    m = [row[:] for row in m]  # _eliminate_gram works in place
    try:
        _eliminate_gram(m)
    except DependentInput:
        raise NotSPD("matrix is not positive definite") from None
    d = [m[k][k] for k in range(n)]
    if min(d) <= 0:
        raise NotSPD("matrix is not positive definite")
    prods = [dk * dp for dk, dp in zip(d, [1] + d)]
    big_w = lcm(*prods)
    weight = [big_w // p for p in prods]
    best_t = big_w * best_q

    def descend(k: int, partial: int, chosen: tuple[int, ...]) -> None:
        nonlocal best_t, best_j
        a = d[k] * step
        b = d[k] * w[k] + sum(m[k][i] * u[i] for i in range(k + 1, n))
        wt = weight[k]
        j_lo = -b // a  # z(j) = a j + b; z(j_lo) <= 0 < z(j_lo + 1)
        z_lo = a * j_lo + b
        j_hi, z_hi = j_lo + 1, z_lo + a
        while True:
            if -z_lo <= z_hi:
                j, z = j_lo, z_lo
                j_lo, z_lo = j_lo - 1, z_lo - a
            else:
                j, z = j_hi, z_hi
                j_hi, z_hi = j_hi + 1, z_hi + a
            t = partial + wt * z * z
            if t > best_t:
                return
            cand = (j,) + chosen
            if k:
                u[k] = step * j + w[k]
                descend(k - 1, t, cand)
            elif t < best_t or cand < best_j:
                best_t, best_j = t, cand

    descend(n - 1, 0, ())
    return best_j, best_t, big_w


def embed_cvp(c: CVPGramInstance, precision_bits: int) -> EmbeddedCVPInstance:
    """Fixed-precision row embedding of the Gram form.

    Rows are L * diag(sqrt(d_k)) with dyadic square roots; the row Gram
    matrix matches the exact one within 2**(8 - precision_bits) relative
    error. Perfect-square pivots embed exactly.
    """
    if precision_bits < 32:
        raise ValueError("precision_bits must be at least 32")
    ldl = ldl_decompose(c.gram)  # raises NotSPD
    n = c.n
    roots = [sqrt_dyadic(d, precision_bits + 8) for d in ldl.diag]
    rows = [
        QVector([ldl.lower.data[i][k] * roots[k] for k in range(n)])
        for i in range(n)
    ]
    target_coords = [
        -sum((rows[i][k] * c.offset[i] for i in range(n)), Fraction(0))
        for k in range(n)
    ]
    return EmbeddedCVPInstance(rows, QVector(target_coords), precision_bits)
