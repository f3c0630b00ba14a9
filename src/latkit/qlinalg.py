"""Exact rational vectors, matrices, and orthogonalization primitives.

Vectors and matrices hold ``fractions.Fraction`` entries, but every
elimination runs on integer rows, scaled once by the lcm of their
denominators (integer_rows); Fractions are built only from the results.
An integer entry k with |k| <= 128 is one shared immutable Fraction,
built at import (rational): the range holds almost every entry of the
paper's experiment's bases, before and after LLL, so their vectors
allocate no Fraction per entry.
Every symmetric elimination is one kernel, the row step of Cohen's
integral Gram-Schmidt (_gso_row): row k of the integer data (d, lambda)
from the inner products of row k with rows 0..k. _eliminate_gram runs it
once per row of an integer Gram matrix, which it only reads. Its
(d, lambda) give distances, volumes and LDL; one more step, on the matrix
bordered by a vector z, gives -z^T adj(G) z (lattice._value); and,
back-substituted (_jordan_columns), it gives the record from which each
adjugate row is its own recurrence (_adjugate_row).
The record describes one object, the dual basis of the rows (the rows of
G^-1 R, R the matrix of the rows): adj(G) is det G times its Gram matrix,
and column c_k of the record gives the last dual vector of rows 0..k,
which is b*_k / |b*_k|^2, so Gram-Schmidt and projections read it too
(gram_schmidt, project_onto_span). The record's lower triangle (_adjugate_lower) is the heuristic sweep's state
and, mirrored (_adjugate), gives inverses and the MDSP-to-CVP map; on an
instance the heuristic builds only the rows it reads. lll._lll_rows calls
the kernel itself, a row when it first reaches it, since eliminating up
front makes every swap update the rows past kmax (22% slower on the
reduce workload); its final (d, lambda) is _eliminate_gram's, so the
heuristic sweep after it builds its lower triangle from that data
without eliminating again.
Only determinant eliminates apart: it pivots rows, since a Gram matrix
loses the sign. No floating point enters any correctness-bearing path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import (
    DegenerateResidual,
    DependentInput,
    LengthMismatch,
    NonSquare,
    NotSPD,
    SingularMatrix,
)

Rational = Fraction
RationalLike = Union[Fraction, int, str]

_SMALL_BOUND = 128
_SMALL = tuple(Fraction(k) for k in range(-_SMALL_BOUND, _SMALL_BOUND + 1))
_ZERO = _SMALL[_SMALL_BOUND]
_ONE = _SMALL[_SMALL_BOUND + 1]


def rational(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to a canonical Fraction.

    An int k with |k| <= 128 gives the one Fraction(k) built at import,
    shared by every vector that holds k; Fractions are immutable, so the
    sharing changes no value. The range covers the uniform bases of the
    paper's experiment, whose entries bench bounds by 100, and almost
    every entry of an LLL-reduced one, while a wider table only adds to
    every process's memory. Other inputs, bools included, keep their own
    Fraction.
    """
    if type(x) is int and -_SMALL_BOUND <= x <= _SMALL_BOUND:
        return _SMALL[x + _SMALL_BOUND]
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
    """Immutable vector of rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[RationalLike]):
        entries = tuple(rational(e) for e in entries)
        if not entries:
            raise LengthMismatch("vector must have positive dimension")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _of(cls, entries: tuple[Fraction, ...]) -> "QVector":
        """The vector of a nonempty tuple of canonical Fractions, taken as
        it is: no coercion and no check."""
        v = cls.__new__(cls)
        object.__setattr__(v, "entries", entries)
        return v

    @classmethod
    def zero(cls, dim: int) -> "QVector":
        return cls([_ZERO] * dim)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __add__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self.entries)

    def scaled(self, c: RationalLike) -> "QVector":
        c = rational(c)
        return QVector(c * a for a in self.entries)

    def dot(self, other: "QVector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), _ZERO)

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def _check_dim(self, other: "QVector") -> None:
        if len(self.entries) != len(other.entries):
            raise LengthMismatch(
                f"dimension mismatch: {len(self.entries)} vs {len(other.entries)}"
            )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"QVector({list(self.entries)!r})"


class QMatrix(_Frozen):
    """Immutable rectangular matrix of rationals, row-major."""

    __slots__ = ("data",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        data = tuple(tuple(rational(e) for e in row) for row in rows)
        if not data or not data[0]:
            raise LengthMismatch("matrix must have positive dimensions")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise LengthMismatch("ragged rows in matrix")
        object.__setattr__(self, "data", data)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[QVector]) -> "QMatrix":
        if not cols:
            raise LengthMismatch("need at least one column")
        dim = cols[0].dim
        if any(c.dim != dim for c in cols):
            raise LengthMismatch("column dimensions differ")
        return cls([[c[i] for c in cols] for i in range(dim)])

    @classmethod
    def from_rows(cls, rows: Sequence[QVector]) -> "QMatrix":
        return cls([list(r) for r in rows])

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def col(self, j: int) -> QVector:
        return QVector(r[j] for r in self.data)

    def row_vectors(self) -> list[QVector]:
        return [QVector(r) for r in self.data]

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def transpose(self) -> "QMatrix":
        return QMatrix(zip(*self.data))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise LengthMismatch("inner dimensions do not match")
        ot = list(zip(*other.data))
        return QMatrix(
            [
                [sum((a * b for a, b in zip(row, col)), _ZERO) for col in ot]
                for row in self.data
            ]
        )

    def mul_vec(self, v: QVector) -> QVector:
        if self.cols != v.dim:
            raise LengthMismatch("matrix-vector dimension mismatch")
        return QVector(
            sum((a * b for a, b in zip(row, v.entries)), _ZERO) for row in self.data
        )

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.data for e in row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"QMatrix({[list(r) for r in self.data]!r})"


@dataclass(frozen=True)
class GramSchmidtResult:
    """Orthogonalization of a basis.

    ``bstar`` are pairwise orthogonal, ``mu`` is unit lower triangular with
    the projection coefficients below the diagonal, and ``dk[k]`` is the
    squared relative volume of the first k+1 input vectors, i.e. the running
    product of the squared lengths of the orthogonal vectors.
    """

    bstar: list[QVector]
    mu: QMatrix
    dk: list[Fraction]


@dataclass(frozen=True)
class LDLDecomposition:
    """Exact factorization g = lower * diag * lower^T of an SPD matrix."""

    lower: QMatrix
    diag: list[Fraction]


def gram_schmidt(basis: Sequence[QVector]) -> GramSchmidtResult:
    """Orthogonalize a linearly independent basis, exactly.

    One elimination of the scaled integer Gram matrix gives all three
    (Cohen's integral Gram-Schmidt): lam[i][j] = d_{j+1} mu_ij (i > j) for
    the leading minors d_{k+1} = dk[k] s^(2k+2). Its back-substitution
    (_jordan_columns) gives b*: on the scaled rows r = s b, the last dual
    vector of r_0..r_k is r*_k / |r*_k|^2 = (d_k r_k - sum_{j<k} c_k[j] r_j)
    / d_{k+1}, and |r*_k|^2 = d_{k+1} / d_k, so d_k s b*_k is the numerator.
    Raises DependentInput at the first dependent vector.
    """
    if not basis:
        raise LengthMismatch("gram_schmidt requires a nonempty basis")
    g, rows, scale = _scaled_gram(basis)
    n = len(g)
    d, lam = _eliminate_gram(g)
    if d[n] == 0:
        raise DependentInput(f"vector {n - 1} is in the span of its predecessors")
    mu = [[Fraction(lam[i][j], d[j + 1]) if j < i else _ONE if i == j else _ZERO
           for j in range(n)] for i in range(n)]
    bstar = [QVector(Fraction(dk * col[k] - sum(map(mul, ck, col)), dk * scale)
                     for col in zip(*rows[:k + 1]))
             for k, (dk, ck) in enumerate(zip(d, _jordan_columns(d, lam)))]
    dk = [Fraction(p, scale ** (2 * k + 2)) for k, p in enumerate(d[1:])]
    return GramSchmidtResult(bstar, QMatrix(mu), dk)


def project_onto_span(v: QVector, basis: Sequence[QVector]) -> QVector:
    """Orthogonal projection of v onto span(basis); empty span maps to 0.

    Eliminating the scaled rows r of (basis, v) as gram_schmidt does,
    v - proj is b*_n, so d_n s proj = sum_{j<n} c_n[j] r_j.
    """
    if not basis:
        return QVector.zero(v.dim)
    g, rows, scale = _scaled_gram([*basis, v])
    d, lam = _eliminate_gram(g)
    n = len(basis)
    cn = _jordan_columns(d, lam)[n]
    return QVector(Fraction(sum(map(mul, cn, col)), d[n] * scale) for col in zip(*rows[:n]))


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
    d, _ = _eliminate_gram(g)
    return Fraction(d[-1], d[-2] * scale * scale)


def integer_rows(vectors: Sequence[QVector]) -> tuple[list[list[int]], int]:
    """The vectors times the lcm of all their denominators, as integer rows,
    together with that lcm. An integral family (lcm 1) gives its numerators
    as they are."""
    scale = lcm(*(e.denominator for v in vectors for e in v.entries))
    if scale == 1:
        return [[e.numerator for e in v.entries] for v in vectors], 1
    rows = [[e.numerator * (scale // e.denominator) for e in v.entries] for v in vectors]
    return rows, scale


def rational_vectors(rows: Sequence[Sequence[int]], scale: int) -> list[QVector]:
    """Inverse of integer_rows: each nonempty integer row divided by scale."""
    if scale == 1:
        return [QVector._of(tuple(map(rational, row))) for row in rows]
    return [QVector._of(tuple([Fraction(e, scale) for e in row])) for row in rows]


def integer_gram(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer Gram matrix of the rows."""
    g = [[0] * len(rows) for _ in rows]
    for i, p in enumerate(rows):
        for j in range(i + 1):
            g[i][j] = g[j][i] = sum(map(mul, p, rows[j]))
    return g


def adjugate_spd(a: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj(G), det G) for a symmetric positive definite integer matrix G.

    One-step fraction-free Gauss-Jordan on [G | I], keeping only the
    blocks that carry information. After k steps, with d_k the k-th leading
    principal minor (d_0 = 1), the matrix is

        [ d_k I   X  |  A     0    ]
        [ 0       S  |  -X^T  d_k I]

    with A (k x k, symmetric) the running adjugate, X (k x (n-k)) and S the
    symmetric Bareiss Schur complement, whose first row past its pivot is
    row k of lam in _eliminate_gram's layout, lam[q][k] for q > k. Step k,
    with pivot p = S[0][0] = d_{k+1}, prev = d_k and c_k the first column
    of X, is:

        X_i <- (p X_i[1:] - c_k[i] S_0[1:]) / prev   for each old row i
        A_ij <- (p A_ij + c_k[i] c_k[j]) / prev      for old i, j
        A gains the row (-c_k, prev) and X the row S_0[1:]

    Every division is exact, and at k = n, A = adj(G) and the last pivot
    is d_n = det G. A never feeds back into S or X, so the elimination is
    recorded first (_eliminate_gram), and A is built from the record
    afterwards (_adjugate). No pivoting is needed because all leading principal minors are
    positive; a pivot <= 0 before the last step means the matrix came from
    a dependent family and raises DegenerateResidual. The last pivot is
    returned unchecked: det G <= 0, a degenerate instance the caller
    reports, still gives the adjugate.
    """
    try:
        d, lam = _eliminate_gram(a)
    except DependentInput:
        raise DegenerateResidual("Gram matrix is not positive definite") from None
    return _adjugate(d, lam), d[-1]


def _adjugate(d: Sequence[int], lam: Sequence[list[int]]) -> list[list[int]]:
    """adj(G) from the elimination (d, lam) of G: its lower triangle
    (_adjugate_lower), mirrored."""
    lower = _adjugate_lower(d, lam)
    n = len(lower)
    return [[lower[i][j] if j <= i else lower[j][i] for j in range(n)] for i in range(n)]


def _adjugate_lower(d: Sequence[int], lam: Sequence[list[int]]) -> list[list[int]]:
    """Rows i of adj(G)'s lower triangle, entries j <= i, from the
    elimination (d, lam) of G: the columns c_k (_jordan_columns), then row
    by row (_adjugate_row), each entry its own recurrence."""
    cols = _jordan_columns(d, lam)
    return [_adjugate_row(d, cols, i, lower=True) for i in range(len(cols))]


def _jordan_columns(d: Sequence[int], lam: Sequence[list[int]]) -> list[list[int]]:
    """The columns c_k of adjugate_spd's X block, by back-substitution.

    (d, lam) is the fraction-free elimination of G in _eliminate_gram's
    layout, which is also Cohen's integral LLL data of a basis of Gram
    matrix G (lll._lll_rows), so that serves as it is. Column q of X starts
    at step i as lam[q][i] and each later step k < q makes it
    (d_{k+1} x - c_k[i] lam[q][k]) / d_k. (-c_k, d_k) is the last row of
    the adjugate of G's leading (k+1) x (k+1) block: in the rows r_0..r_k
    of G, d_{k+1} times their last dual vector, d_k r*_k for r*_k the part
    of r_k orthogonal to r_0..r_{k-1}.
    """
    cols: list[list[int]] = []
    for lq in lam:
        x: list[int] = []
        for k, (t, ck) in enumerate(zip(lq, cols)):
            p, prev = d[k + 1], d[k]
            x = [(p * e - ci * t) // prev for e, ci in zip(x, ck)]
            x.append(t)
        cols.append(x)
    return cols


def _adjugate_row(
    d: Sequence[int], cols: Sequence[list[int]], i: int, lower: bool = False
) -> list[int]:
    """Row i of adj(G) from the record of its elimination; with lower, only
    its entries j <= i.

    Entry (i, j), j <= i, starts at step i as d_i (j = i) or -c_i[j], and
    each later step k makes it (d_{k+1} a + c_k[i] c_k[j]) / d_k; entry
    (i, k), k > i, starts at step k as -c_k[i].
    """
    row = [-c for c in cols[i]]
    row.append(d[i])
    for k in range(i + 1, len(cols)):
        ck = cols[k]
        p, prev, ci = d[k + 1], d[k], ck[i]
        row = [(p * e + ci * cj) // prev for e, cj in zip(row, ck)]
        if not lower:
            row.append(-ci)
    return row


def _adjugate_diagonal(d: Sequence[int], cols: Sequence[list[int]]) -> list[int]:
    """The diagonal of adj(G) from the record of its elimination, in
    O(n^2): the recurrence of _adjugate_row for the entries (i, i)."""
    diag: list[int] = []
    for k, ck in enumerate(cols):
        p, prev = d[k + 1], d[k]
        diag = [(p * e + c * c) // prev for e, c in zip(diag, ck)]
        diag.append(prev)
    return diag


def _gso_row(gk: Sequence[int], d: Sequence[int], lam: list[list[int]]) -> int:
    """Row k = len(lam) of Cohen's integral Gram-Schmidt data from the
    inner products gk[j] = G[k][j], j <= k; returns its pivot d_{k+1}.

    With d_{i+1} the Gram determinant of rows 0..i (d_0 = 1) and
    lam[k][j] = d_{j+1} mu_kj, entry j is the recurrence
    u <- (d_{i+1} u - lam[k][i] lam[j][i]) / d_i over i < j from
    u = G[k][j], every division exact (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.7), and the pivot is the same
    recurrence at j = k. d[0..k] and lam[0..k-1] are read, and gk only on
    and below the diagonal; the row lam[k][0..k-1] is appended to lam, and
    the pivot is returned unchecked. This is the only symmetric elimination
    step in latkit: the row is row k of the fraction-free (Bareiss)
    elimination of G, lam[k][j] = g[j][k].
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


def _eliminate_gram(g: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """(d, lam): the fraction-free elimination of an integer Gram matrix,
    one _gso_row per row; g is read on and below its diagonal only, and
    never written.

    No pivoting: d[k+1] is the (k+1)-th leading principal minor, the Gram
    determinant of the first k+1 rows, which is positive unless those rows
    are dependent, and lam[k][j] (j < k) is d_{j+1} mu_kj. A pivot <= 0
    before the last row raises DependentInput; the last, det g, is returned
    unchecked.
    """
    d, lam = [1], []
    last = len(g) - 1
    for k, gk in enumerate(g):
        p = _gso_row(gk, d, lam)
        if p <= 0 and k < last:
            raise DependentInput(f"vector {k} is in the span of its predecessors")
        d.append(p)
    return d, lam


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
        return _ONE
    g, _, scale = _scaled_gram(basis)
    vol = _eliminate_gram(g)[0][-1]
    if vol == 0:
        raise DependentInput("vectors are linearly dependent")
    return Fraction(vol, scale ** (2 * len(basis)))


def determinant(m: QMatrix) -> Fraction:
    """det(s m) / s^n by integer Bareiss elimination with row pivoting."""
    if not m.is_square:
        raise NonSquare(f"determinant of a {m.rows}x{m.cols} matrix")
    a, scale = integer_rows(m.row_vectors())
    n = len(a)
    sign = prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return _ZERO
        sign = sign if piv == k else -sign
        a[k], a[piv] = a[piv], a[k]
        p, tail = a[k][k], a[k][k + 1:]
        for ai in a[k + 1:]:
            f = ai[k]
            ai[k + 1:] = [(x * p - f * y) // prev for x, y in zip(ai[k + 1:], tail)]
        prev = p
    return Fraction(sign * a[-1][-1], scale ** n)


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
    return QMatrix([[Fraction(scale * sum(map(mul, r, aj)), det) for aj in a] for r in adj])


def is_unimodular(m: QMatrix) -> bool:
    """True iff m is integral with determinant +1 or -1."""
    if not m.is_square:
        raise NonSquare("unimodularity is defined for square matrices")
    if not m.is_integral():
        return False
    return abs(determinant(m)) == 1


def ldl_decompose(g: QMatrix) -> LDLDecomposition:
    """Exact L D L^T factorization of a symmetric positive definite matrix.

    With a = den g integral and (d, lam) its elimination (_eliminate_gram),
    d_k the leading minors (d_0 = 1): L[i][j] = lam[i][j] / d_{j+1} and
    D_k = d_{k+1} / (d_k den). Raises NotSPD if a pivot is <= 0.
    """
    if not g.is_square:
        raise NonSquare("LDL factorization needs a square matrix")
    n = g.rows
    if any(g.data[i][j] != g.data[j][i] for i in range(n) for j in range(i)):
        raise NotSPD("matrix is not symmetric")
    a, den = integer_rows(g.row_vectors())
    try:
        d, lam = _eliminate_gram(a)
    except DependentInput:
        d = [0]
    if d[-1] <= 0:
        raise NotSPD("matrix is not positive definite")
    lower = [[Fraction(lam[i][j], d[j + 1]) if j < i else _ONE if i == j else _ZERO
              for j in range(n)] for i in range(n)]
    return LDLDecomposition(QMatrix(lower), [Fraction(q, p * den) for p, q in zip(d, d[1:])])


# -- integer and rational root helpers ------------------------------------
#
# These keep irrational quantities (square roots of rationals) out of the
# decision paths: callers compare against exact predicates or use certified
# one-sided enclosures.


def iroot_floor(x: int, n: int) -> int:
    """Largest r with r**n <= x, for x >= 0, n >= 1."""
    if x < 0:
        raise ValueError("negative radicand")
    if n < 1:
        raise ValueError("root order must be positive")
    if x == 0:
        return 0
    if n == 1:
        return x
    if n == 2:
        return isqrt(x)
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def iroot_ceil(x: int, n: int) -> int:
    r = iroot_floor(x, n)
    return r if r ** n == x else r + 1


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


def sqrt_dyadic(x: Fraction, rel_bits: int) -> Fraction:
    """Dyadic lower approximation of sqrt(x), relative error below 2**-rel_bits."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return _ZERO
    k = rel_bits + 4
    while True:
        m = (x.numerator << (2 * k)) // x.denominator
        s = isqrt(m)
        if s >> (rel_bits + 2):
            return Fraction(s, 1 << k)
        k += rel_bits + 4
