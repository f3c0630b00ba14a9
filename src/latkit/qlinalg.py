"""Exact rational vectors, matrices, and orthogonalization primitives.

A vector holds integer numerators over one denominator >= 1 in lowest
terms (QVector), and a matrix holds such vectors as its rows (QMatrix);
both do their arithmetic on the integers. Every elimination runs on
integer rows: a family is scaled once by the lcm of its vectors'
denominators (integer_rows), and integer results come back as vectors
without a Fraction (rational_vectors). Fractions are built only at the
API boundary, anew on each read of a vector's or a matrix's entries, and
for scalar results: no object of this module holds one at rest.
Every symmetric elimination is one left-looking pass over an integer Gram
matrix G, which it only reads (_eliminate_gram). It builds the record
(d, lambda, u): the leading minors d, the Bareiss entries
lambda_kj = d_{j+1} mu_kj stored by columns, and for each k the last row
u_k of the adjugate of G's leading (k+1) x (k+1) block, u_k[k] = d_k.
Row k costs dot products and one back-substitution, each inner loop a
C-level sum and one exact division per entry. With Lambda the lower
triangle of lambda and the d_{j+1}, G = Lambda diag(1 / (d_j d_{j+1}))
Lambda^T, and every reader works off that record: each adjugate row is
the same back-substitution (_back_substitute, _adjugate_row), and
z^T adj(G) z = d_n sum_k (u_k . z)^2 / (d_k d_{k+1}) is one recurrence
over the u_k (lattice._value, and on unit vectors the diagonal,
_adjugate_diagonal). The record's d and lambda give distances and
volumes.
The record describes one object, the dual basis of the rows (the rows of
G^-1 R, R the matrix of the rows): adj(G) is det G times its Gram matrix,
and u_k . R is d_{k+1} times the last dual vector of rows 0..k, which is
b*_k / |b*_k|^2: the record holds Gram-Schmidt's data too. The
adjugate's lower triangle (_adjugate_lower) is the heuristic sweep's
state and, mirrored (_adjugate), gives inverses and the MDSP-to-CVP map;
on an instance the heuristic builds only the rows it reads.
lll._lll_rows keeps its own incremental row step, a row when it first
reaches it: its rows move under swaps and size reductions, and keeping u
current there would cost O(n^2) per move, O(n^4) where a round makes
O(n^2) of them. Its final (d, lambda) is the record's, so the heuristic
sweep after it builds its lower triangle from that data without
eliminating again.
No floating point enters any correctness-bearing path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence, Union

from .errors import (
    DegenerateResidual,
    DependentInput,
    LengthMismatch,
    NonSquare,
    SingularMatrix,
)

RationalLike = Union[Fraction, int, str]

_INT = {int}


def rational(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to a canonical Fraction; a
    Fraction is returned as it is."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class _Frozen:
    """Slots set once, by the constructor through object.__setattr__;
    copies and pickles, under every protocol, take the state (None, slots)
    and restore the slots so."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__!r} object is immutable")

    def __getstate__(self) -> tuple[None, dict]:
        slots = (name for cls in type(self).__mro__ for name in getattr(cls, "__slots__", ()))
        return None, {name: getattr(self, name) for name in slots}

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class QVector(_Frozen):
    """Immutable vector of rationals, held as integer numerators _num over
    one denominator _den >= 1, in lowest terms: gcd(_den, *_num) = 1, so
    equal vectors hold equal pairs. Arithmetic runs on the integers, and
    Fractions are built only when entries, iteration or indexing read them.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, entries: Iterable[RationalLike]):
        entries, den = tuple(entries), 1
        if not entries:
            raise LengthMismatch("vector must have positive dimension")
        if {*map(type, entries)} != _INT:  # not all plain ints: bools, strings, Fractions
            entries = [rational(e) for e in entries]
            den = lcm(*(f.denominator for f in entries))
            entries = [f.numerator * (den // f.denominator) for f in entries]
        self._hold(entries, den)

    @classmethod
    def _of_ints(cls, nums: Sequence[int], den: int = 1) -> "QVector":
        """The vector nums / den of a nonempty sequence of ints and an int
        den >= 1, reduced by their gcd; no other check."""
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        return cls.__new__(cls)._hold(nums, den)

    def _hold(self, nums: Sequence[int], den: int) -> "QVector":
        object.__setattr__(self, "_num", tuple(nums))
        object.__setattr__(self, "_den", den)
        return self

    @classmethod
    def zero(cls, dim: int) -> "QVector":
        return cls([0] * dim)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as canonical Fractions, built anew on each read."""
        return tuple([Fraction(x, self._den) for x in self._num])

    @property
    def dim(self) -> int:
        return len(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: Union[int, slice]):
        if isinstance(i, slice):
            return self.entries[i]
        return Fraction(self._num[i], self._den)

    def _merge(self, other: "QVector", op) -> "QVector":
        self._check_dim(other)
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        return QVector._of_ints([op(x * a, y * b) for x, y in zip(self._num, other._num)], den)

    def __add__(self, other: "QVector") -> "QVector":
        return self._merge(other, add)

    def __sub__(self, other: "QVector") -> "QVector":
        return self._merge(other, sub)

    def __neg__(self) -> "QVector":
        return QVector._of_ints([-x for x in self._num], self._den)

    def scaled(self, c: RationalLike) -> "QVector":
        c = rational(c)
        return QVector._of_ints([c.numerator * x for x in self._num], c.denominator * self._den)

    def dot(self, other: "QVector") -> Fraction:
        self._check_dim(other)
        return Fraction(sum(map(mul, self._num, other._num)), self._den * other._den)

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return not any(self._num)

    def _check_dim(self, other: "QVector") -> None:
        if len(self._num) != len(other._num):
            raise LengthMismatch(
                f"dimension mismatch: {len(self._num)} vs {len(other._num)}"
            )

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QVector) and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"QVector({list(self.entries)!r})"


class QMatrix(_Frozen):
    """Immutable rectangular matrix of rationals, held as a tuple of QVector
    rows, each integer numerators over one denominator. Arithmetic runs on
    the rows' integers, and Fractions are built only when data, indexing or
    repr read them."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        rows = [r if isinstance(r, QVector) else tuple(r) for r in rows]
        if not rows or not rows[0]:
            raise LengthMismatch("matrix must have positive dimensions")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise LengthMismatch("ragged rows in matrix")
        rows = [r if isinstance(r, QVector) else QVector(r) for r in rows]
        object.__setattr__(self, "_rows", tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([QVector._of_ints([int(i == j) for j in range(n)]) for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[QVector]) -> "QMatrix":
        if not cols:
            raise LengthMismatch("need at least one column")
        dim = cols[0].dim
        if any(c.dim != dim for c in cols):
            raise LengthMismatch("column dimensions differ")
        a, scale = integer_rows(cols)
        return cls(rational_vectors(list(zip(*a)), scale))

    @classmethod
    def from_rows(cls, rows: Sequence[QVector]) -> "QMatrix":
        return cls(rows)

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as rows of canonical Fractions, built anew on each read."""
        return tuple([r.entries for r in self._rows])

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def col(self, j: int) -> QVector:
        den = lcm(*(r._den for r in self._rows))
        return QVector._of_ints([r._num[j] * (den // r._den) for r in self._rows], den)

    def row_vectors(self) -> list[QVector]:
        return list(self._rows)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._rows[i][j]

    def transpose(self) -> "QMatrix":
        return QMatrix.from_columns(self._rows)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise LengthMismatch("inner dimensions do not match")
        a, s = integer_rows(self._rows)
        b, t = integer_rows(other._rows)
        cols = list(zip(*b))
        return QMatrix(rational_vectors([[sum(map(mul, r, c)) for c in cols] for r in a], s * t))

    def mul_vec(self, v: QVector) -> QVector:
        if self.cols != v.dim:
            raise LengthMismatch("matrix-vector dimension mismatch")
        a, s = integer_rows(self._rows)
        return QVector._of_ints([sum(map(mul, r, v._num)) for r in a], s * v._den)

    def is_integral(self) -> bool:
        return all(r._den == 1 for r in self._rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"QMatrix({[list(r) for r in self._rows]!r})"


def dist_sq_to_span(v: QVector, basis: Sequence[QVector]) -> Fraction:
    """Squared distance from v to span(basis), an exact rational.

    It is det G(basis, v) / det G(basis) for the Gram matrix G, both read
    off one fraction-free elimination of the integer Gram matrix of the
    scaled rows (basis, v): its last two leading principal minors. Raises
    DependentInput if the basis is dependent.
    """
    if not basis:
        return v.norm_sq()
    g, _, scale = _scaled_gram([*basis, v])
    d = _eliminate_gram(g)[0]
    return Fraction(d[-1], d[-2] * scale * scale)


def integer_rows(vectors: Sequence[QVector]) -> tuple[list[list[int]], int]:
    """The vectors times the lcm of all their denominators, as integer rows,
    together with that lcm: each vector's numerators, copied into a new
    list, times lcm / its denominator. An integral family (lcm 1) gives
    its numerators as they are."""
    scale = lcm(*(v._den for v in vectors))
    if scale == 1:
        return [list(v._num) for v in vectors], 1
    return [[x * (scale // v._den) for x in v._num] for v in vectors], scale


def rational_vectors(rows: Sequence[Sequence[int]], scale: int) -> list[QVector]:
    """Inverse of integer_rows: each nonempty integer row divided by scale,
    as integers in lowest terms (QVector._of_ints), with no Fraction."""
    return [QVector._of_ints(row, scale) for row in rows]


def integer_gram(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer Gram matrix of the rows."""
    g = [[0] * len(rows) for _ in rows]
    for i, p in enumerate(rows):
        for j in range(i + 1):
            g[i][j] = g[j][i] = sum(map(mul, p, rows[j]))
    return g


def adjugate_spd(a: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj(G), det G) for a symmetric positive definite integer matrix G.

    Both are read off the record of G's elimination (_eliminate_gram):
    det G is its last pivot d_n, and adj(G) its lower triangle, built row
    by row by back-substitution (_adjugate_lower), mirrored. No pivoting is
    needed because all leading principal minors are positive; a pivot <= 0
    before the last step means the matrix came from a dependent family
    and raises DegenerateResidual. The last pivot is returned unchecked:
    det G <= 0, a degenerate instance the caller reports, still gives the
    adjugate, since no step divides by it.
    """
    try:
        d, lam, _ = _eliminate_gram(a)
    except DependentInput:
        raise DegenerateResidual("Gram matrix is not positive definite") from None
    return _adjugate(d, lam), d[-1]


# The record of the elimination of an integer Gram matrix G, as
# _eliminate_gram returns it: (d, lam, u), lam stored by columns.
_Record = tuple[list[int], list[list[int]], list[list[int]]]


def _eliminate_gram(g: Sequence[Sequence[int]]) -> _Record:
    """(d, lam, u): the record of the fraction-free elimination of an
    integer Gram matrix G, by one left-looking pass; g is read on and below
    its diagonal only, and never written.

    d[k] is the k-th leading principal minor (d[0] = 1), the Gram
    determinant of the first k rows. lam is stored by columns:
    lam[j][l - j - 1] = d_{j+1} mu_lj for l > j, the minor of G on rows
    0..j and columns 0..j-1, l, which is also entry (j, l) of the Bareiss
    elimination of G. u[k] is the last row of the adjugate of G's leading
    (k+1) x (k+1) block, u[k][k] = d_k: on the rows r of G,
    sum_j u[k][j] r_j = d_k r*_k, d_{k+1} times the last dual vector of
    r_0..r_k. Row k costs dot products and one back-substitution, each
    inner loop a C-level sum: lam_kj = u_j . g_k[0..j] (Cramer's rule),
    u_k by back-substitution (_last_row, one exact division per entry),
    and d_{k+1} = u_k . g_k.

    No pivoting: d[k+1] is positive unless the first k+1 rows are
    dependent. A pivot <= 0 before the last row raises DependentInput; the
    last, det g, is returned unchecked.
    """
    d, lam, u = [1], [], []
    last = len(g) - 1
    for k, gk in enumerate(g):
        for lj, uj in zip(lam, u):
            lj.append(sum(map(mul, uj, gk)))
        lam.append([])
        uk = _last_row(d, lam, k)
        p = sum(map(mul, uk, gk))
        if p <= 0 and k < last:
            raise DependentInput(f"vector {k} is in the span of its predecessors")
        d.append(p)
        u.append(uk)
    return d, lam, u


def _last_row(d: Sequence[int], lam: Sequence[list[int]], k: int) -> list[int]:
    """u_k, the last row of the adjugate of G's leading (k+1) x (k+1)
    block, from d[0..k] and lam's entries in rows 0..k:
    Lambda^T u_k = d_k d_{k+1} e_k, so u_k[k] = d_k and
    u_k[k-1] = -lam_{k,k-1} need no division (_back_substitute)."""
    if not k:
        return [1]
    return _back_substitute(d, lam, [0] * (k - 1) + [-lam[k - 1][0], d[k]], k - 2)


def _back_substitute(
    d: Sequence[int], lam: Sequence[list[int]], y: list[int], top: int
) -> list[int]:
    """Complete y, in place, to the solution of Lambda^T y = b with b zero
    on entries 0..top, given y past top: y[j] = -sum_{l>j} lam_lj y[l] /
    d_{j+1} for j = top down to 0, one exact division per entry.

    Lambda is lower triangular, lam below its diagonal and d_{j+1} on it,
    and G = Lambda diag(1 / (d_j d_{j+1})) Lambda^T. So the u_k are the
    rows of U = diag(d_j d_{j+1}) Lambda^-1, each solving
    Lambda^T u_k = d_k d_{k+1} e_k, and adj(G) = d_n Lambda^-T U, whose
    row i solves Lambda^T y = d_n U e_i, b_j = d_n u_j[i], which is zero
    below i (_adjugate_row, _adjugate_lower). A column of lam may run past
    y; only its first entries are read.
    """
    for j in range(top, -1, -1):
        y[j] = -sum(map(mul, lam[j], y[j + 1:])) // d[j + 1]
    return y


def _adjugate_row(
    d: Sequence[int], lam: Sequence[list[int]], u: Sequence[list[int]], i: int
) -> list[int]:
    """Row i of adj(G) from the record (d, lam, u) of G's elimination, in
    O(n^2): Lambda^T y = d_n (u_j[i])_j, whose right side is zero below i
    (_back_substitute). Its last entry is u_{n-1}[i], adj(G)'s last row
    being u_{n-1}, so det G divides nothing."""
    n, dn = len(u), d[-1]
    y = [0] * (n - 1) + [u[-1][i]]
    for j in range(n - 2, i - 1, -1):
        y[j] = (dn * u[j][i] - sum(map(mul, lam[j], y[j + 1:]))) // d[j + 1]
    return _back_substitute(d, lam, y, i - 1)


def _adjugate_lower(d: Sequence[int], lam: Sequence[list[int]]) -> list[list[int]]:
    """Rows i of adj(G)'s lower triangle, entries j <= i, from d and lam
    alone, the last row first: it is u_{n-1} (_last_row), and row i solves
    Lambda^T y = d_n d_i e_i (_back_substitute) with its entries past i,
    adj[l][i] for l > i, read off the rows already built, so each row
    costs only its own triangle."""
    n = len(lam)
    dn = d[n]
    rows = [_last_row(d, lam, n - 1)]
    for i in range(n - 2, -1, -1):
        tail = [row[i] for row in reversed(rows)]
        y = [0] * i + [(dn * d[i] - sum(map(mul, lam[i], tail))) // d[i + 1]]
        rows.append(_back_substitute(d, lam, y + tail, i - 1)[:i + 1])
    rows.reverse()
    return rows


def _adjugate(d: Sequence[int], lam: Sequence[list[int]]) -> list[list[int]]:
    """adj(G) from the record (d, lam) of G: its lower triangle
    (_adjugate_lower), mirrored."""
    lower = _adjugate_lower(d, lam)
    n = len(lower)
    return [[lower[i][j] if j <= i else lower[j][i] for j in range(n)] for i in range(n)]


def _adjugate_diagonal(d: Sequence[int], u: Sequence[list[int]]) -> list[int]:
    """The diagonal of adj(G) from the record (d, u) of its elimination, in
    O(n^2): entry i is z^T adj(G) z at z = e_i, the recurrence of
    lattice._value, Q <- (d_{k+1} Q + u_k[i]^2) / d_k, which is d_i after
    step i."""
    diag: list[int] = []
    for k, uk in enumerate(u):
        p, prev = d[k + 1], d[k]
        diag = [(p * e + c * c) // prev for e, c in zip(diag, uk)]
        diag.append(prev)
    return diag


def _scaled_gram(vectors: Sequence[QVector]) -> tuple[list[list[int]], list[list[int]], int]:
    """Integer Gram matrix of the nonempty family scaled by the lcm of its
    denominators, together with the scaled rows and that lcm."""
    dim = vectors[0].dim
    if any(u.dim != dim for u in vectors):
        raise LengthMismatch("vectors have differing dimensions")
    rows, scale = integer_rows(vectors)
    return integer_gram(rows), rows, scale


def rel_volume_sq(basis: Sequence[QVector]) -> Fraction:
    """Squared relative volume det(B^T B) of an independent family.

    Computed by fraction-free elimination on the integer Gram matrix; the
    empty family has volume 1 by convention.
    """
    if not basis:
        return Fraction(1)
    g, _, scale = _scaled_gram(basis)
    vol = _eliminate_gram(g)[0][-1]
    if vol == 0:
        raise DependentInput("vectors are linearly dependent")
    return Fraction(vol, scale ** (2 * len(basis)))


def inverse(m: QMatrix) -> QMatrix:
    """Exact inverse s adj(A^T A) A^T / det(A^T A) of m = A / s, A integral;
    A^T A is the Gram matrix of A's columns."""
    if not m.is_square:
        raise NonSquare(f"inverse of a {m.rows}x{m.cols} matrix")
    a, scale = integer_rows(m.row_vectors())
    g = integer_gram(list(zip(*a)))
    try:
        adj, det = adjugate_spd(g)
    except DegenerateResidual:
        raise SingularMatrix("matrix is singular") from None
    if det == 0:
        raise SingularMatrix("matrix is singular")
    return QMatrix([QVector._of_ints([scale * sum(map(mul, r, aj)) for aj in a], det) for r in adj])


def is_unimodular(m: QMatrix) -> bool:
    """True iff m is integral with determinant +1 or -1: for integral m,
    det(m m^T) = det(m)^2 (rel_volume_sq) is 1 exactly then."""
    if not m.is_square:
        raise NonSquare("unimodularity is defined for square matrices")
    if not m.is_integral():
        return False
    try:
        return rel_volume_sq(m.row_vectors()) == 1
    except DependentInput:
        return False


# -- rational square-root helpers -------------------------------------------
#
# These keep irrational quantities (square roots of rationals) out of the
# decision paths: each rounds r -/+ sqrt(q) by exact integer predicates.


def floor_minus_sqrt(r: Fraction, q: Fraction) -> int:
    """Exact floor of r - sqrt(q) for rationals r and q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")

    def le(m: int) -> bool:
        d = r - m
        return d >= 0 and q <= d * d

    m = (r.numerator // r.denominator) - isqrt(q.numerator // q.denominator) - 1
    while le(m + 1):
        m += 1
    while not le(m):
        m -= 1
    return m


def ceil_plus_sqrt(r: Fraction, q: Fraction) -> int:
    """Exact ceiling of r + sqrt(q)."""
    return -floor_minus_sqrt(-r, q)

