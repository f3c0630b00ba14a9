"""Bidirectional transformation between maximum-distance and closest-vector
instances, carried in rational Gram form.

The orthonormalizing map L of the decomposed basis is irrational in
general, so the CVP side is represented by the quadratic form
(j + c)^T G' (j + c) with G' = L L^T = G^-1 rational, where G is the Gram
matrix of the v-orthogonal parts b_i' = b_i - gamma_i v. The squared
fixed-vector norm rides along so distances can be recovered without the
original instance.

The API stays in that rational form; the computation is integer. The
forward map reads the form (M, w, step), with G' a positive multiple of M
and c = w / step, off the fraction-free adjugate of the integer Gram
matrix P of (B, v), and stores the form and P on the instance it
returns; any other instance is scaled to integers once. The enumeration
runs on the primal side of the isomorphism: the objective is an affine
function of z^T P^-1 z, z = (x, -1) up to order, which forward
substitution with the fraction-free LDL^T of P, in reversed order, gives
level by level, so it needs neither M nor a second elimination. A form
with no stored P is first bordered into one, from step adj(M).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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

_DIM_CAP = 6  # largest dimension solve_cvp_bruteforce accepts


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


def mdsp_to_cvp(inst: MDSPInstance) -> CVPGramInstance:
    """Forward reduction: decompose against v and invert the residual Gram.

    On the rows (B, v) scaled to integers by s, with G their Gram matrix,
    Gram(b') is the Schur complement of |v|^2 in G / s^2, so its inverse
    is (s^2 / det G) adj(G)[:n, :n]; gamma_i = G[i][n] / G[n][n]. The
    fields are that integer form as Fractions. The form itself, and G for
    enumerate_cvp, ride along as attributes that are not fields, so
    equality and repr see only the rational fields. A zero v raises
    DependentInput and a dependent [B; v] SingularMatrix.
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
    step, scale_sq = g[n][n], scale * scale
    c = CVPGramInstance(
        gram=QMatrix([[Fraction(a * scale_sq, det) for a in row] for row in m]),
        offset=QVector([Fraction(wk, step) for wk in w]),
        scale_sq=Fraction(step, scale_sq),
    )
    object.__setattr__(c, "_form", (m, w, step, scale_sq, det))
    object.__setattr__(c, "_primal", (g, scale_sq, 1))
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
    fixed vector not being unit length.
    """
    return c.scale_sq / (1 + c.scale_sq * c.objective(j))


def solve_cvp_bruteforce(c: CVPGramInstance) -> CVPSolution:
    """Exact minimizer of the form over all integer vectors, for n <= _DIM_CAP.

    The enumeration is enumerate_cvp; ties go to the lexicographically
    smallest vector.
    """
    if c.n > _DIM_CAP:
        raise DimensionCapExceeded(f"dimension {c.n} above cap {_DIM_CAP}")
    return enumerate_cvp(c)


def enumerate_cvp(c: CVPGramInstance) -> CVPSolution:
    """Lexicographically smallest minimizer of the form, in integers.

    Runs _enumerate on the bordered Gram matrix G of _bordered, in
    reversed order. The form is the CVP side of the MDSP instance with
    Gram matrix G, whose squared distance is 1 / (z^T G^-1 z) on G's own
    scale, so the objective is f (G[n][n] T - W) / (W G[n][n]) with f the
    factor _bordered returns. Raises NonSquare unless the form is square
    and NotSPD unless it is symmetric positive definite.
    """
    if not c.gram.is_square:
        raise NonSquare("the form needs a square matrix")
    g, f_num, f_den = _bordered(c)
    step = g[-1][-1]
    j, t, big_w = _enumerate([row[::-1] for row in reversed(g)])
    return CVPSolution(j, Fraction(f_num * (step * t - big_w), f_den * big_w * step))


def _bordered(c: CVPGramInstance) -> tuple[list[list[int]], int, int]:
    """(G, f_num, f_den): an integer Gram matrix G of some (B, v) whose CVP
    side is a positive multiple of c, and the factor f = f_num / f_den that
    scales its objective to c's.

    mdsp_to_cvp stored the Gram matrix it read its form off, with f = s^2.
    Any other form (M, w, step, num, den) of _scaled_form, with M positive
    definite, borders step adj(M) as

        G = [[step adj(M) / k + w w^T, step w], [step w^T, step^2]],

    with adj(M) divided by the gcd k of its entries, which strips the
    powers of det(G) that a form read off an adjugate carries. Its Schur
    complement of step^2 is step adj(M) / k = (step det(M) / k) M^-1 and
    its offset is w / step, so f = num det(M) step / (den k). Raises NotSPD
    unless M is symmetric positive definite: adjugate_spd checks every
    leading minor but the last, det(M).
    """
    stored = getattr(c, "_primal", None)
    if stored is not None:
        return stored
    m, w, step, num, den = _scaled_form(c)
    n = c.n
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise NotSPD("matrix is not symmetric")
    try:
        adj = adjugate_spd(m)
    except DegenerateResidual:
        raise NotSPD("matrix is not positive definite") from None
    det = sum(map(mul, m[0], adj[0]))  # Laplace expansion along row 0
    if det <= 0:
        raise NotSPD("matrix is not positive definite")
    content = gcd(*(a for row in adj for a in row))
    g = [[step * (a // content) + wi * wj for a, wj in zip(row, w)] + [step * wi]
         for row, wi in zip(adj, w)]
    g.append([step * wj for wj in w] + [step * step])
    return g, num * det * step, den * content


def _enumerate(p: list[list[int]]) -> tuple[tuple[int, ...], int, int]:
    """(x, T, W): the lexicographically smallest integer x minimizing
    z^T P^-1 z = T / W, z = (1, -x_{n-1}, ..., -x_0), for P the positive
    definite Gram matrix of (v, b_{n-1}, ..., b_0). P is eliminated in
    place; a zero pivot raises DependentInput.

    det Gram(B(x)) = det P z^T P^-1 z with B(x) = (b_i + x_i v), so x
    maximizes the distance of v from span(B(x)), d^2 = W / T on P's scale.
    One fraction-free elimination of P gives its leading minors D_0..D_n
    (D_-1 = 1) and Bareiss rows R, and forward substitution gives

        z^T P^-1 z = sum over p of H_p^2 / (D_{p-1} D_p),

    with H_0 = 1 and H_p = c_p - D_{p-1} x_{n-p} at level p. The centre
    c_q starts as -P[0][q], and choosing level p updates every deeper one
    exactly (a Bareiss step on the column z):

        c_q <- (D_p c_q - R[p][q] H_p) / D_{p-1}.

    Level p is weighted by W / (D_{p-1} D_p), W the lcm of those products,
    so every partial sum and comparison is an integer. The search is
    depth-first from x_{n-1} down to x_0 (Fincke-Pohst), each level in
    zig-zag order from its centre (Schnorr-Euchner), starting from the
    componentwise rounding of -P[0][q] / P[0][0]. Zig-zag order visits
    |H_p| in non-decreasing order, so the first value over the remaining
    budget ends the level; only a strictly larger value is pruned, so all
    ties reach a leaf.
    """
    n = len(p) - 1
    step, w = p[0][0], p[0]
    best_x = tuple((step - 2 * w[n - i]) // (2 * step) for i in range(n))
    if _eliminate_gram(p) == 0:
        raise DependentInput("the vectors are dependent")
    d = [1] + [p[k][k] for k in range(n + 1)]  # d[k] = D_{k-1}
    prods = [a * b for a, b in zip(d, d[1:])]
    big_w = lcm(*prods)
    weight = [big_w // q for q in prods]
    tails = [row[k + 1:] for k, row in enumerate(p)]  # R[k][q] for q > k
    # T at the start point, by the same substitution
    c = [-e for e in w]
    best_t = weight[0]
    for k in range(1, n + 1):
        h = c[k] - d[k] * best_x[n - k]
        best_t += weight[k] * h * h
        for q in range(k + 1, n + 1):
            c[q] = (d[k + 1] * c[q] - p[k][q] * h) // d[k]

    def descend(k: int, partial: int, chosen: tuple[int, ...], c: list[int]) -> None:
        # c[i] is the centre of level k + i
        nonlocal best_t, best_x
        a, wt, c0 = d[k], weight[k], c[0]
        j_lo = c0 // a  # z(j) = a j - c0 = -H_k; z(j_lo) <= 0 < z(j_lo + 1)
        z_lo = a * j_lo - c0
        j_hi, z_hi = j_lo + 1, z_lo + a
        if k < n:
            nxt, row, rest = d[k + 1], tails[k], c[1:]
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
            if k < n:
                deeper = [(nxt * cq + r * z) // a for cq, r in zip(rest, row)]
                descend(k + 1, t, cand, deeper)
            elif t < best_t or cand < best_x:
                best_t, best_x = t, cand

    descend(1, weight[0], (), [-e for e in w[1:]])
    return best_x, best_t, big_w


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
