"""Lattice bases, maximum-distance instances, and certificate utilities.

An MDSP instance is a full basis of an (n+1)-dimensional lattice split into
a distinguished fixed vector v and the n remaining vectors B. Candidate
sub-lattice bases have the shift form B(x) = {b_i + x_i v} for integer x,
and a decision certificate is exactly such an integer tuple.

An instance carries its integer form, built on first use (or by
validation) and kept for its lifetime: the rows (B, v) scaled to integers
once, and the record (d, lambda, u) of one fraction-free elimination of
their Gram matrix P in the order (v, b_{n-1}, ..., b_0) (_primal).
Every MDSP computation reads it: the distance of v from span B(x) at any
x is det P / z^T adj(P) z for z = (1, -x), and z^T adj(P) z is one
O(n^2) recurrence over the u_k (_value), which the certificate verifier
and exact.shift_dist_sq evaluate; the exact solver and the CVP map search
it; and the heuristic reads its adjugate entries off the same record by
back-substitution. Nothing it was built from can be rebound (vectors,
entries, dim), so the form cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import (
    DependentInput,
    LengthMismatch,
    NonSquare,
    SingularMatrix,
)
# dist_sq_to_span is not called in this module; it stays importable as
# lattice.dist_sq_to_span because latbench's traced runs (KernelTimer in
# latbench/run.py) rebind that name. For the same reason same_lattice stays,
# with the inverse it calls (cvp.inverse is rebound too), and so do
# EquivalenceWitness and is_unimodular, which same_lattice uses; no route
# calls them. They can go once latbench stops rebinding latkit's names.
from .qlinalg import (  # noqa: F401
    QMatrix,
    QVector,
    _Frozen,
    _eliminate_gram,
    _Record,
    dist_sq_to_span,
    integer_gram,
    integer_rows,
    inverse,
    is_unimodular,
    rational,
    rel_volume_sq,
)

# An instance's integer form, as MDSPInstance._primal returns it: the rows
# (B, v) scaled to integers by s, s, and the record (d, lam, u) of the
# elimination of their Gram matrix P (_eliminate_gram): d[k] = D_{k-1} the
# leading minors of P (D_-1 = 1), lam[k] = R[k][k+1..n] the Bareiss rows,
# which are lambda's columns, and u[k] the last row of the adjugate of P's
# leading (k+1) x (k+1) block. P itself is not kept: P[0][0] = d[1] and
# P[0][1..n] = lam[0].
_IntegerForm = tuple[list[list[int]], int, _Record]


class LatticeBasis(_Frozen):
    """An ordered, linearly independent family of rational vectors; immutable."""

    __slots__ = ("vectors", "dim")

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
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "dim", dim)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> QVector:
        return self.vectors[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatticeBasis) and self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash(self.vectors)

    def __repr__(self) -> str:
        return f"LatticeBasis({list(self.vectors)!r})"


class MDSPInstance(_Frozen):
    """A fixed vector v together with the n remaining basis vectors.

    Together they form a basis of an (n+1)-dimensional lattice. Usually the
    ambient dimension is also n+1, but the family may sit inside a larger
    space (a prefix b_0..b_i of a longer basis, with b_i as v, is one);
    operations that need a square matrix require is_full_dimensional.

    Immutable, since the integer form of _primal answers for its fields.
    """

    __slots__ = ("fixed", "rest", "_form")

    def __init__(self, fixed: QVector, rest: LatticeBasis, *, validate: bool = True):
        if fixed.dim != rest.dim:
            raise LengthMismatch("fixed vector and basis live in different spaces")
        if len(rest) + 1 > fixed.dim:
            raise LengthMismatch(
                f"{len(rest) + 1} vectors cannot be independent in dimension {fixed.dim}"
            )
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "rest", rest)
        object.__setattr__(self, "_form", None)  # built by _primal on first use
        if validate:  # by building the form, so a validated instance eliminates once
            try:
                self._primal()
            except SingularMatrix:
                raise DependentInput("the fixed vector and the basis are dependent") from None

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
        """(rows, s, (d, lam, u)): the rows (B, v) scaled to integers by s, and
        the record of the fraction-free elimination (_eliminate_gram) of the
        Gram matrix P of (v, b_{n-1}, ..., b_0), which is only read. Built
        on the first call and kept, so an instance is scaled and eliminated
        once. A dependent [B; v] raises SingularMatrix on every call."""
        form = self._form
        if form is None:
            rows, scale = integer_rows([*self.rest.vectors, self.fixed])
            try:
                e = _eliminate_gram(integer_gram(rows[::-1]))
                if e[0][-1] == 0:  # det P, which _eliminate_gram leaves unchecked
                    raise DependentInput
            except DependentInput:
                raise SingularMatrix("the fixed vector and the basis are dependent") from None
            form = (rows, scale, e)
            object.__setattr__(self, "_form", form)
        return form

    def __repr__(self) -> str:
        return f"MDSPInstance(fixed={self.fixed!r}, rest={self.rest!r})"


def _value(e: _Record, x: Sequence[int]) -> tuple[int, int]:
    """(T, D) = (z^T adj(P) z, det P) at z = (1, -x_{n-1}, ..., -x_0), for e
    the record of P as MDSPInstance._primal returns it, in O(n^2):
    T = det Gram(B(x)) on P's scale for B(x) = (b_i + x_i v), so
    dist^2(v, span B(x)) = D / T and |v|^2 = d[1].

    T = D sum_k (u_k . z)^2 / (d_k d_{k+1}) is the last of the integers
    Q_{k+1} = (d_{k+1} Q_k + (u_k . z)^2) / d_k from Q_0 = 0, where
    Q_k = z_k^T adj(P_k) z_k for P_k the leading k x k block of P and z_k
    the first k entries of z, so each division is exact: n + 1 dot
    products and n + 1 divisions, with nothing written. cvp._search walks
    the same recurrence and prunes on Q_k.
    """
    d, _, u = e
    z = [1, *(-xi for xi in reversed(x))]
    t = 0
    for k, uk in enumerate(u):
        s = sum(map(mul, uk, z))
        t = (d[k + 1] * t + s * s) // d[k]
    return t, d[-1]


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
    some coordinate is not an integer, an infinite float or None included.
    """
    if len(x) != n:
        raise LengthMismatch(f"shift vector has length {len(x)}, expected {n}")
    try:
        xs = [xi if isinstance(xi, int) else rational(xi) for xi in x]
    except (OverflowError, TypeError):
        raise ValueError(f"shift vector {tuple(x)!r} is not integral") from None
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
    no elimination of its own: (T, D) = _value(P, x) gives
    dist^2 = D / T and |v|^2 = d[1] on P's scale, so the test is
    D * den(gamma_sq) >= num(gamma_sq) * d[1] * T, in O(n^2).
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
    t, det = _value(e, xs)
    v_sq = e[0][1]  # d[1] = P[0][0]
    gamma_sq = q.gamma_sq
    return det * gamma_sq.denominator >= gamma_sq.numerator * v_sq * t


def _bit_size(f: Fraction) -> int:
    return max(1, abs(f.numerator).bit_length()) + f.denominator.bit_length()


def certificate_bounds(inst: MDSPInstance) -> CertificateBounds:
    """Exact certificate size quantities for an instance.

    dk, the squared relative volumes of B's prefixes, are the leading
    minors d_{k+1} / s^(2k+2) of one elimination (_eliminate_gram) of the
    Gram matrix of B's rows scaled to integers by s. A dependent B raises
    DependentInput at its first vector in the span of its predecessors.
    """
    v = inst.fixed
    k0 = 1
    for e in v.entries:
        k0 *= e.denominator
    rows, scale = integer_rows(inst.rest.vectors)
    minors = _eliminate_gram(integer_gram(rows))[0]
    if minors[-1] == 0:  # det, which _eliminate_gram leaves unchecked
        raise DependentInput(f"vector {len(rows) - 1} is in the span of its predecessors")
    dk = [Fraction(p, scale ** (2 * k + 2)) for k, p in enumerate(minors[1:])]
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

