"""Lattice bases, maximum-distance instances, and certificate utilities.

An MDSP instance is a full basis of an (n+1)-dimensional lattice split into
a distinguished fixed vector v and the n remaining vectors B. Candidate
sub-lattice bases have the shift form B(x) = {b_i + x_i v} for integer x,
and a decision certificate is exactly such an integer tuple.

An instance carries its integer form, built on first use and kept for its
lifetime: the rows (B, v) scaled to integers once, and one fraction-free
elimination of their Gram matrix P in the order (v, b_{n-1}, ..., b_0)
(_eliminate). Every MDSP computation reads it: the distance of v from
span B(x) at any x is one forward substitution on it (_value), which the
certificate verifier and exact.shift_dist_sq evaluate; the exact solver
and the CVP map search it; and the heuristic reads its adjugate entries
off the same elimination. Its vectors cannot be rebound, so the form
cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import (
    DependentInput,
    LengthMismatch,
    NonSquare,
    SingularMatrix,
)
# dist_sq_to_span is not called in this module; it stays importable as
# lattice.dist_sq_to_span because latbench's traced runs rebind that name.
from .qlinalg import (  # noqa: F401
    QMatrix,
    QVector,
    _eliminate_gram,
    determinant,
    dist_sq_to_span,
    gram_schmidt,
    integer_gram,
    integer_rows,
    inverse,
    iroot_ceil,
    iroot_floor,
    is_unimodular,
    rational,
    rel_volume_sq,
)

ShiftVector = tuple[int, ...]

# A primal Gram matrix P with its elimination, as _eliminate returns it:
# (P, d, lam, weight, W), with P unchanged, (d, lam) its fraction-free
# elimination (qlinalg._eliminate_gram): d[k] = D_{k-1} the leading minors
# of P (D_-1 = 1) and lam[q][k] = R[k][q] for q > k the Bareiss rows;
# weight[p] = W / (D_{p-1} D_p) and W the lcm of those products.
_Eliminated = tuple[list[list[int]], list[int], list[list[int]], list[int], int]
# An instance's integer form, as MDSPInstance._primal returns it: the rows
# (B, v) scaled to integers by s, s, and their eliminated P.
_IntegerForm = tuple[list[list[int]], int, _Eliminated]


class LatticeBasis:
    """An ordered, linearly independent family of rational vectors; its
    vectors cannot be rebound."""

    __slots__ = ("_vectors", "dim")

    def __init__(self, vectors: Sequence[QVector], *, validate: bool = True):
        vecs = tuple(vectors)
        if not vecs:
            raise LengthMismatch("a basis needs at least one vector")
        dim = vecs[0].dim
        if any(v.dim != dim for v in vecs):
            raise LengthMismatch("basis vectors have differing dimensions")
        if len(vecs) > dim:
            raise DependentInput("more vectors than the ambient dimension")
        if validate:
            rel_volume_sq(vecs)  # raises DependentInput on dependence
        self._vectors = vecs
        self.dim = dim

    @property
    def vectors(self) -> tuple[QVector, ...]:
        return self._vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> QVector:
        return self.vectors[i]

    @property
    def is_full_rank(self) -> bool:
        return len(self.vectors) == self.dim

    def matrix(self) -> QMatrix:
        """Matrix whose columns are the basis vectors."""
        return QMatrix.from_columns(self.vectors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatticeBasis) and self.vectors == other.vectors

    def __repr__(self) -> str:
        return f"LatticeBasis({list(self.vectors)!r})"


class MDSPInstance:
    """A fixed vector v together with the n remaining basis vectors.

    Together they form a basis of an (n+1)-dimensional lattice. Usually the
    ambient dimension is also n+1, but the family may sit inside a larger
    space (the accelerated reduction builds such prefixes); operations that
    need a square matrix require is_full_dimensional.

    fixed and rest cannot be rebound, since the integer form that _primal
    builds on first use answers for them for the instance's lifetime.
    """

    __slots__ = ("_fixed", "_rest", "_form")

    def __init__(self, fixed: QVector, rest: LatticeBasis, *, validate: bool = True):
        if fixed.dim != rest.dim:
            raise LengthMismatch("fixed vector and basis live in different spaces")
        if len(rest) + 1 > fixed.dim:
            raise LengthMismatch(
                f"{len(rest) + 1} vectors cannot be independent in dimension {fixed.dim}"
            )
        if validate:
            rel_volume_sq((fixed,) + rest.vectors)  # raises DependentInput
        self._fixed = fixed
        self._rest = rest
        self._form = None  # built by _primal on first use

    @property
    def fixed(self) -> QVector:
        return self._fixed

    @property
    def rest(self) -> LatticeBasis:
        return self._rest

    @classmethod
    def from_vectors(cls, fixed, rest_vectors, *, validate: bool = True) -> "MDSPInstance":
        fixed_v = fixed if isinstance(fixed, QVector) else QVector(fixed)
        rest_vs = [v if isinstance(v, QVector) else QVector(v) for v in rest_vectors]
        return cls(fixed_v, LatticeBasis(rest_vs, validate=False), validate=validate)

    @property
    def n(self) -> int:
        return len(self.rest)

    @property
    def is_full_dimensional(self) -> bool:
        return len(self.rest) + 1 == self.fixed.dim

    def full_matrix(self) -> QMatrix:
        """Columns [v | b_1 ... b_n]; square iff the instance is full dimensional."""
        return QMatrix.from_columns((self.fixed,) + self.rest.vectors)

    def _primal(self) -> _IntegerForm:
        """(rows, s, P): the rows (B, v) scaled to integers by s, and the
        Gram matrix P of (v, b_{n-1}, ..., b_0) as _eliminate returns it.
        Built on the first call and kept, so an instance is scaled and
        eliminated once. A dependent [B; v] raises SingularMatrix on every
        call."""
        form = self._form
        if form is None:
            rows, scale = integer_rows([*self._rest.vectors, self._fixed])
            form = self._form = (rows, scale, _eliminate(integer_gram(rows[::-1])))
        return form

    def __repr__(self) -> str:
        return f"MDSPInstance(fixed={self.fixed!r}, rest={self.rest!r})"


def _eliminate(p: list[list[int]]) -> _Eliminated:
    """P with its fraction-free elimination (_eliminate_gram), P the
    integer Gram matrix of (v, b_{n-1}, ..., b_0), and the weights that
    cvp._search and _value read. P is only read. A dependent family raises
    SingularMatrix."""
    try:
        d, lam = _eliminate_gram(p)
    except DependentInput:
        d = [0]
    if d[-1] == 0:
        raise SingularMatrix("the fixed vector and the basis are dependent")
    prods = [a * b for a, b in zip(d, d[1:])]
    big_w = lcm(*prods)
    return p, d, lam, [big_w // q for q in prods], big_w


def _value(e: _Eliminated, x: Sequence[int]) -> tuple[int, int]:
    """(T, W) with z^T P^-1 z = T / W at z = (1, -x_{n-1}, ..., -x_0), for P
    as _eliminate returns it: cvp._search's forward substitution along one
    path, O(n^2).

    With B(x) = (b_i + x_i v), det Gram(B(x)) = det P z^T P^-1 z, so on
    P's scale dist^2(v, span B(x)) = W / T and |v|^2 = P[0][0].
    """
    p, d, lam, weight, big_w = e
    n = len(p) - 1
    c = [-a for a in p[0]]
    t = weight[0]
    for k in range(1, n + 1):
        h = c[k] - d[k] * x[n - k]
        t += weight[k] * h * h
        for q in range(k + 1, n + 1):
            c[q] = (d[k + 1] * c[q] - lam[q][k] * h) // d[k]
    return t, big_w


@dataclass(frozen=True)
class EquivalenceWitness:
    """Unimodular change of basis u with second = first . u."""

    u: QMatrix


@dataclass(frozen=True)
class DMDSPQuery:
    """Decision query: does some shift reach dist^2 >= gamma^2 |v|^2.

    The threshold is carried squared so the comparison stays rational.
    """

    instance: MDSPInstance
    gamma_sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "gamma_sq", rational(self.gamma_sq))
        if not (0 < self.gamma_sq <= 1):
            raise ValueError("gamma_sq must lie in (0, 1]")

    @classmethod
    def from_gamma(cls, instance: MDSPInstance, gamma) -> "DMDSPQuery":
        g = rational(gamma)
        if not (0 < g <= 1):
            raise ValueError("gamma must lie in (0, 1]")
        return cls(instance, g * g)


@dataclass(frozen=True)
class CertificateBounds:
    """Size bounds certifying that decision certificates stay polynomial.

    k0 is the product of the denominators of the fixed vector's entries,
    dk are the squared relative volumes of the basis prefixes, bigD their
    product, bigE = bigD^2 * (product of squared orthogonal lengths), and
    per_coordinate_bound[i] stores the squared form
    bigE^2 * k0^8 * |v|^2 * |b_i|^2 bounding each certificate coordinate.
    input_bit_size_l totals the bit lengths of every numerator and
    denominator in the instance.
    """

    k0: int
    dk: list[Fraction]
    bigD: Fraction
    bigE: Fraction
    per_coordinate_bound: list[Fraction]
    input_bit_size_l: int


def _integral_shift(n: int, x: Sequence[int]) -> list[int]:
    """The coordinates of a shift vector as ints.

    Raises LengthMismatch unless x has n coordinates, and ValueError if
    some coordinate is not an integer.
    """
    if len(x) != n:
        raise LengthMismatch(f"shift vector has length {len(x)}, expected {n}")
    xs = [xi if isinstance(xi, int) else rational(xi) for xi in x]
    if any(xi.denominator != 1 for xi in xs):
        raise ValueError(f"shift vector {tuple(map(str, xs))} is not integral")
    return [int(xi) for xi in xs]


def apply_shift(inst: MDSPInstance, x: Sequence[int]) -> LatticeBasis:
    """Basis B(x) = {b_i + x_i v}; spans the same lattice as [v|B] with v.

    Raises ValueError if some x_i is not an integer.
    """
    xs = _integral_shift(inst.n, x)
    v = inst.fixed
    shifted = [b + v.scaled(xi) for b, xi in zip(inst.rest.vectors, xs)]
    return LatticeBasis(shifted, validate=False)


def same_lattice(a: QMatrix, b: QMatrix) -> tuple[bool, Optional[EquivalenceWitness]]:
    """Do the columns of a and b generate the same lattice.

    Computes u = a^-1 b and reports it as a witness iff it is unimodular.
    """
    if not a.is_square or not b.is_square:
        raise NonSquare("lattice equivalence needs square bases")
    if a.rows != b.rows:
        raise LengthMismatch("bases have different dimensions")
    u = inverse(a) @ b
    if is_unimodular(u):
        return True, EquivalenceWitness(u)
    return False, None


def verify_dmdsp_certificate(q: DMDSPQuery, x: Sequence[int]) -> bool:
    """Check a shift-vector certificate against a decision query.

    Accepts iff x is integral and the squared distance from v to
    span(B(x)) is at least gamma_sq * |v|^2. A certificate of the wrong
    length raises LengthMismatch, and a dependent [B; v] (so B(x) is
    dependent or v lies in its span) DependentInput.

    That [v|B(x)] spans the same lattice as [v|B] needs no computation:
    [v|B(x)] = [v|B] U with U = [[1, x^T], [0, I]], and U is integral iff
    x is, with det U = 1; so U is an explicit unimodular witness for every
    integral x.

    The distance test runs in integers on the instance's stored form, with
    no elimination of its own: (T, W) = _value(P, x) gives
    dist^2 = W / T and |v|^2 = P[0][0] on P's scale, so the test is
    W * den(gamma_sq) >= num(gamma_sq) * P[0][0] * T, in O(n^2).
    """
    inst = q.instance
    try:
        xs = _integral_shift(inst.n, x)
    except ValueError:  # a non-integral x is no certificate
        return False
    try:
        _, _, e = inst._primal()
    except SingularMatrix:
        raise DependentInput("the fixed vector and the basis are dependent") from None
    t, big_w = _value(e, xs)
    v_sq = e[0][0][0]  # P[0][0]
    gamma_sq = q.gamma_sq
    return big_w * gamma_sq.denominator >= gamma_sq.numerator * v_sq * t


def _bit_size(f: Fraction) -> int:
    return max(1, abs(f.numerator).bit_length()) + f.denominator.bit_length()


def certificate_bounds(inst: MDSPInstance) -> CertificateBounds:
    """Exact certificate size quantities for an instance."""
    v = inst.fixed
    k0 = 1
    for e in v.entries:
        k0 *= e.denominator
    gs = gram_schmidt(inst.rest.vectors)
    dk = list(gs.dk)
    big_d = Fraction(1)
    for d in dk:
        big_d *= d
    big_e = big_d * big_d * dk[-1]
    v_sq = v.norm_sq()
    k0_8 = Fraction(k0) ** 8
    per_coord = [
        big_e * big_e * k0_8 * v_sq * b.norm_sq() for b in inst.rest.vectors
    ]
    l_bits = sum(_bit_size(e) for e in v.entries) + sum(
        _bit_size(e) for b in inst.rest.vectors for e in b.entries
    )
    return CertificateBounds(
        k0=k0,
        dk=dk,
        bigD=big_d,
        bigE=big_e,
        per_coordinate_bound=per_coord,
        input_bit_size_l=l_bits,
    )


def minkowski_bound_sq(basis: LatticeBasis, frac_bits: int = 64) -> Fraction:
    """Certified upper bound on the squared length of a shortest vector.

    Returns n * |det|^(2/n) exactly when that power is rational, otherwise
    a rational upper enclosure tight to about 2**-frac_bits, obtained from
    integer root ceilings of the scaled numerator and denominator.
    """
    if not basis.is_full_rank:
        raise NonSquare("Minkowski bound needs a full-rank square basis")
    n = basis.dim
    det_sq = determinant(basis.matrix()) ** 2
    p, q = det_sq.numerator, det_sq.denominator
    rp = iroot_floor(p, n)
    rq = iroot_floor(q, n)
    if rp ** n == p and rq ** n == q:
        return n * Fraction(rp, rq)
    shift = 1 << (n * frac_bits)
    num_up = iroot_ceil(p * shift, n)
    den_down = iroot_floor(q * shift, n)
    return n * Fraction(num_up, den_down)
