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
an affine function of z^T P^-1 z, with P the integer Gram matrix of
(v, b_{n-1}, ..., b_0) and z = (1, -x_{n-1}, ..., -x_0), which forward
substitution on P's elimination record (d, lambda) gives level by level,
and one bordered row step of the elimination kernel at one point
(lattice._value). The forward map keeps that record, from the MDSP
instance's stored form (MDSPInstance._primal), on the instance it
returns. gram and offset are built from it, off adj(P), only when a
caller first reads them. A hand-built form is scaled to integers once and
bordered into such a P, from step adj(M).
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
    LengthMismatch,
    NonSquare,
    NotSPD,
)
from .lattice import (
    LatticeBasis,
    MDSPInstance,
    _eliminate,
    _Eliminated,
    _integral_shift,
    _value,
)
from .qlinalg import (
    QMatrix,
    QVector,
    _adjugate,
    adjugate_spd,
    integer_rows,
    inverse,
    ldl_decompose,
    sqrt_dyadic,
)

# An eliminated P (lattice._Eliminated) with the factor f = f_num / f_den
# that scales its objective to the form's (_primal_of).
_Primal = tuple[_Eliminated, int, int]


@dataclass(frozen=True)
class CVPGramInstance:
    """Closest-vector instance as a rational positive definite form.

    An instance returned by mdsp_to_cvp carries its primal elimination
    record, which is not a field, and builds gram and offset on first
    access; equality, hashing, repr, copies and pickles see the same
    fields as on an instance built from them. A hand-built form raises
    NonSquare unless gram is square, LengthMismatch unless offset has its
    order, and ValueError unless scale_sq, which is |v|^2, is positive.
    """

    gram: QMatrix
    offset: QVector
    scale_sq: Fraction

    def __post_init__(self):
        if not self.gram.is_square:
            raise NonSquare("the form needs a square matrix")
        if self.offset.dim != self.gram.rows:
            raise LengthMismatch(
                f"offset has length {self.offset.dim}, expected {self.gram.rows}"
            )
        if not self.scale_sq > 0:
            raise ValueError(f"scale_sq must be positive, got {self.scale_sq}")

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
        primal = self.__dict__.get("_primal")
        return len(primal[0][0]) - 2 if primal is not None else self.gram.rows

    def objective(self, j: Sequence[int]) -> Fraction:
        """(j + offset)^T gram (j + offset), exact.

        Evaluated in integers: on mdsp_to_cvp's instance by _value on the
        stored P, otherwise on the form of _scaled_form as
        u^T M u / (den step^2) with u = step j + w. Raises LengthMismatch
        unless j has n coordinates and ValueError unless they are integers.
        """
        x = _integral_shift(self.n, j)
        primal = self.__dict__.get("_primal")
        if primal is not None:
            return _objective(primal, *_value(primal[0], x))
        m, w, step, den = _scaled_form(self)
        u = [step * ji + wk for ji, wk in zip(x, w)]
        return Fraction(_quad(m, u), den * step * step)


# A hand-built CVP form in integers, (M, w, step, den): gram = M / den and
# offset = w / step, with den and step positive.
_Form = tuple[list[list[int]], list[int], int, int]


def _scaled_form(c: CVPGramInstance) -> _Form:
    """The form of c scaled once, M = den G' with den = lcm(den G'), and
    w = step c with step = lcm(den c)."""
    m, den = integer_rows(c.gram.row_vectors())
    (w,), step = integer_rows([c.offset])
    return m, w, step, den


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


def _public_fields(e: _Eliminated, scale_sq: int) -> tuple[QMatrix, QVector]:
    """gram and offset of the instance mdsp_to_cvp built from the
    elimination (d, lam) of the Gram matrix P of the scaled rows
    (v, b_{n-1}, ..., b_0), with s^2 = scale_sq.

    With G = P reversed, the Gram matrix of (B, v), Gram(b') is the Schur
    complement of |v|^2 in G / s^2, so its inverse is
    (s^2 / det G) adj(G)[:n, :n], adj(G) being adj(P) reversed;
    gamma_i = G[i][n] / G[n][n] = lam[n-i][0] / d[1].
    """
    d, lam = e
    adj = _adjugate(d, lam)
    gram = QMatrix([[Fraction(a * scale_sq, d[-1]) for a in row[:0:-1]] for row in adj[:0:-1]])
    return gram, QVector([Fraction(lq[0], d[1]) for lq in lam[:0:-1]])


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


def enumerate_cvp(c: CVPGramInstance) -> CVPSolution:
    """Lexicographically smallest minimizer of the form over all integer
    vectors, in integers and in any dimension.

    Runs _search on the eliminated primal Gram matrix P of _primal_of.
    The form is the CVP side of the MDSP instance with Gram matrix P,
    whose squared distance is 1 / (z^T P^-1 z) on P's own scale, so the
    objective is that of _objective. Raises NotSPD unless the form is
    symmetric positive definite.
    """
    primal = _primal_of(c)
    j, t, det = _search(primal[0])
    return CVPSolution(j, _objective(primal, t, det))


# The old name of enumerate_cvp, kept and exported by the package only
# because latbench/run.py calls it; it goes when the benchmark moves to
# enumerate_cvp.
solve_cvp_bruteforce = enumerate_cvp


def _objective(primal: _Primal, t: int, det: int) -> Fraction:
    """The form's value where z^T P^-1 z = T / D: f (step T - D) / (D step),
    with step = d[1] = |v|^2 on P's scale and f the primal's factor."""
    (d, _), f_num, f_den = primal
    step = d[1]
    return Fraction(f_num * (step * t - det), f_den * det * step)


def _primal_of(c: CVPGramInstance) -> _Primal:
    """(e, f_num, f_den): the primal Gram matrix P of c, in the order
    (v, b_{n-1}, ..., b_0), as _eliminate returns it, and the factor
    f = f_num / f_den that scales its objective to c's. mdsp_to_cvp stored
    e, with f = s^2; any other form is bordered (_bordered), reversed and
    eliminated here."""
    primal = c.__dict__.get("_primal")
    if primal is not None:
        return primal
    g, f_num, f_den = _bordered(c)
    return _eliminate([row[::-1] for row in reversed(g)]), f_num, f_den


def _bordered(c: CVPGramInstance) -> tuple[list[list[int]], int, int]:
    """(G, f_num, f_den): an integer Gram matrix G of some (B, v) whose CVP
    side is a positive multiple of the hand-built form c, and the factor
    f = f_num / f_den that scales its objective to c's.

    The form (M, w, step, den) of _scaled_form, with M positive definite,
    borders step adj(M) as

        G = [[step adj(M) / k + w w^T, step w], [step w^T, step^2]],

    with adj(M) divided by the gcd k of its entries, which strips the
    powers of det(G) that a form read off an adjugate carries. Its Schur
    complement of step^2 is step adj(M) / k = (step det(M) / k) M^-1 and
    its offset is w / step, so f = det(M) step / (den k). This bordering
    is the price of one enumerator for both kinds of instance. Raises
    NotSPD unless M is symmetric positive definite: adjugate_spd checks
    every leading minor but the last, det(M), which it returns.
    """
    m, w, step, den = _scaled_form(c)
    n = c.n
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
    return g, det * step, den * content


def _search(e: _Eliminated) -> tuple[tuple[int, ...], int, int]:
    """(x, T, D): the lexicographically smallest integer x minimizing
    z^T P^-1 z = T / D, z = (1, -x_{n-1}, ..., -x_0), for P the positive
    definite Gram matrix of (v, b_{n-1}, ..., b_0), as _eliminate returns
    it; (T, D) is _value at x.

    det Gram(B(x)) = det P z^T P^-1 z with B(x) = (b_i + x_i v), so x
    maximizes the distance of v from span(B(x)), d^2 = D / T on P's scale.
    The fraction-free elimination of P gives its leading minors D_0..D_n
    (D_-1 = 1) and Bareiss rows R, and forward substitution gives

        z^T P^-1 z = sum over p of H_p^2 / (D_{p-1} D_p),

    with H_0 = 1 and H_p = c_p - D_{p-1} x_{n-p} at level p. The centre
    c_q starts as -P[0][q], and choosing level p updates every deeper one
    exactly (a Bareiss step on the column z):

        c_q <- (D_p c_q - R[p][q] H_p) / D_{p-1}.

    The weights are the search's own: level p is weighted by
    W / (D_{p-1} D_p), W the lcm of those products, so every partial sum
    and comparison is an integer. The search is depth-first from x_{n-1}
    down to x_0 (Fincke-Pohst), each level in zig-zag order from its centre
    (Schnorr-Euchner), starting from the componentwise rounding of
    -P[0][q] / P[0][0] = -lam[q][0] / d[1], whose value _value gives.
    Zig-zag order visits |H_p| in non-decreasing order, so the first value
    over the remaining budget ends the level; only a strictly larger value
    is pruned, so all ties reach a leaf.
    """
    d, lam = e
    n = len(d) - 2
    prods = [a * b for a, b in zip(d, d[1:])]
    big_w = lcm(*prods)
    weight = [big_w // q for q in prods]
    step, w = d[1], [lq[0] for lq in lam[1:]]  # P[0][1..n]
    best_x = tuple((step - 2 * w[n - 1 - i]) // (2 * step) for i in range(n))
    t, det = _value(e, best_x)
    unit = big_w // det  # T W / D = T unit; D divides W
    best_t = t * unit
    tails = [[lq[k] for lq in lam[k + 1:]] for k in range(n)]  # R[k][q], q > k

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

    descend(1, weight[0], (), [-a for a in w])
    return best_x, best_t // unit, det


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
