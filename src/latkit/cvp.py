"""Bidirectional transformation between maximum-distance and closest-vector
instances, carried in rational Gram form.

The orthonormalizing map L of the decomposed basis is irrational in
general, so the CVP side is represented by the quadratic form
(j + c)^T G' (j + c) with G' = L L^T = G^-1 rational, where G is the Gram
matrix of the v-orthogonal parts b_i' = b_i - gamma_i v. The squared
fixed-vector norm rides along so distances can be recovered without the
original instance.

The API stays in that rational form; the computation is integer. The
forward map reads G' off the fraction-free adjugate of the integer Gram
matrix of (B, v), and the enumeration scales the form to integers once and
runs on the leading minors and lambda data of its fraction-free LDL^T.
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

        Evaluated in integers on the scaled form of _scaled_form:
        u^T M u / (den step^2) with u = step j + w.
        """
        m, den, w, step = _scaled_form(self)
        u = [step * int(ji) + wk for ji, wk in zip(j, w)]
        return Fraction(_quad(m, u), den * step * step)


def _scaled_form(c: CVPGramInstance) -> tuple[list[list[int]], int, list[int], int]:
    """(M, den, w, step): the form scaled to integers once, M = den G' with
    den = lcm(den G'), and the offset as w = step c with step = lcm(den c)."""
    m, den = integer_rows(c.gram.row_vectors())
    (w,), step = integer_rows([c.offset])
    return m, den, w, step


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

    With G the integer Gram matrix of the rows (B, v) scaled by s, Gram(b')
    is the Schur complement of |v|^2 in G / s^2, so its inverse is the
    leading n x n block of s^2 adj(G) / det G. gamma_i = G[i][n] / G[n][n]
    and |v|^2 = G[n][n] / s^2. A dependent [B; v] raises SingularMatrix.
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
    s_sq = scale * scale
    return CVPGramInstance(
        gram=QMatrix([[Fraction(a * s_sq, det) for a in row[:n]] for row in adj[:n]]),
        offset=QVector([Fraction(row[n], g[n][n]) for row in g[:n]]),
        scale_sq=Fraction(g[n][n], s_sq),
    )


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

    Depth-first enumeration over the LDL^T factorization (Fincke-Pohst),
    each level visited in zig-zag order from its center (Schnorr-Euchner).
    The form is scaled once: M = lcm(den G') G' and u = step j + w with
    step = lcm(den c), w = step c. One fraction-free elimination of M gives
    its leading minors d_k and lambda data, and u^T M u is the sum over k
    of z_k^2 / (d_k d_{k-1}) with z_k = d_k u_k + sum_{m>k} lambda_mk u_m.
    Level k is weighted by W / (d_k d_{k-1}), W the lcm of those products,
    so every partial sum and comparison is an integer. Zig-zag order visits
    |z_k| in non-decreasing order, so the first value over the remaining
    budget ends the level; only a strictly larger value is pruned, so all
    ties reach a leaf. Raises NotSPD unless the form is positive definite.
    """
    n = c.n
    if not c.gram.is_square:
        raise NonSquare("the form needs a square matrix")
    g = c.gram.data
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        raise NotSPD("matrix is not symmetric")
    m, den, w, step = _scaled_form(c)
    # the start bound: the componentwise rounding of -c
    best_j = tuple((step - 2 * wk) // (2 * step) for wk in w)
    u = [step * j + wk for j, wk in zip(best_j, w)]
    best_q = _quad(m, u)
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
    return CVPSolution(best_j, Fraction(best_t, big_w * den * step * step))


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
