import copy
import pickle
import random
from fractions import Fraction as F
from itertools import accumulate
from math import gcd, lcm, prod
from operator import mul

import pytest

from latkit.errors import (
    DegenerateResidual,
    DependentInput,
    LengthMismatch,
    NonSquare,
    SingularMatrix,
)
from latkit.cvp import enumerate_cvp, mdsp_to_cvp, recover_mdsp_distance_sq
from latkit.exact import solve_exact
from latkit.heuristic import run_heuristic
from latkit.lattice import (
    DMDSPQuery,
    LatticeBasis,
    MDSPInstance,
    _value,
    verify_dmdsp_certificate,
)
from latkit.lll import (
    AccelConfig,
    LLLParams,
    ReductionTrace,
    _lll_rows,
    accelerated_reduce,
    lll_reduce,
    shortest_basis_vector,
)
from latkit import qlinalg
from latkit.qlinalg import (
    QMatrix,
    QVector,
    _adjugate_diagonal,
    _adjugate_lower,
    _adjugate_row,
    _eliminate_gram,
    _last_row,
    adjugate_spd,
    ceil_plus_sqrt,
    dist_sq_to_span,
    floor_minus_sqrt,
    integer_gram,
    integer_rows,
    inverse,
    is_unimodular,
    rational,
    rational_vectors,
    rel_volume_sq,
)
from oracles import (
    _cofactor_adjugate,
    _gram,
    dual_basis,
    int_det,
    naive_det,
    naive_dist_sq,
    naive_gs,
    naive_inverse,
    random_unimodular,
    vdot,
    vscale,
    vsub,
)


def qv(*entries):
    return QVector(entries)


def _random_independent(rng, count, dim, bound=9):
    while True:
        vecs = [
            QVector([rng.randint(-bound, bound) for _ in range(dim)])
            for _ in range(count)
        ]
        try:
            rel_volume_sq(vecs)
        except DependentInput:
            continue
        return vecs


def _check_record(vecs, bstar):
    """The record of the vectors' rows r = s b, scaled to integers by s,
    against their Gram-Schmidt vectors bstar: d_{k+1} = |r*_0|^2 ...
    |r*_k|^2 with r* = s b*, lam_kj = d_{j+1} mu_kj, mu_kj =
    <b_k, b*_j> / |b*_j|^2, and sum_j u_k[j] r_j = d_k s b*_k."""
    rows, scale = integer_rows(vecs)
    d, lam, u = _eliminate_gram(integer_gram(rows))
    norms = [vdot(w, w) for w in bstar]
    assert d == list(accumulate((scale * scale * q for q in norms), mul, initial=1))
    n = len(vecs)
    assert lam == [[d[j + 1] * vdot(vecs[k], bstar[j]) / norms[j] for k in range(j + 1, n)]
                   for j in range(n)]
    for k, uk in enumerate(u):
        assert [sum(c * r[i] for c, r in zip(uk, rows)) for i in range(len(rows[0]))] == [
            d[k] * scale * e for e in bstar[k]]
    return rows, scale, (d, lam, u)


class TestGramSchmidt:
    """Gram-Schmidt's data read off the record of _eliminate_gram."""

    def test_already_orthogonal(self):
        _, _, (d, lam, u) = _check_record([qv(1, 0), qv(0, 1)], [(1, 0), (0, 1)])
        assert (d, lam, u) == ([1, 1, 1], [[0], []], [[1], [0, 1]])

    def test_worked_example(self):
        _, _, (d, lam, u) = _check_record([qv(1, 1), qv(0, 1)], [(1, 1), (F(-1, 2), F(1, 2))])
        assert (d, lam, u) == ([1, 2, 1], [[1], []], [[1], [-1, 2]])  # mu_10 = 1/2

    def test_collinear_rejected(self):
        # the second vector, then only the last one, in the span of the others
        for basis in ([qv(1, 1), qv(2, 2)], [qv(1, 0, 0), qv(0, 1, 0), qv(1, 1, 0)],
                      [qv(F(1, 2), 1, 0), qv(0, F(1, 3), 2), qv(1, 3, 6)]):
            with pytest.raises(DependentInput):
                rel_volume_sq(basis)

    def test_orthogonality_and_reconstruction(self):
        # b*_k = sum_j u_k[j] r_j / (d_k s) and mu_ij = lam_ij / d_{j+1}
        # rebuild every b_i, with no oracle
        rng = random.Random(101)
        for _ in range(50):
            dim = rng.randint(2, 6)
            count = rng.randint(2, dim)
            vecs = _random_independent(rng, count, dim)
            rows, scale = integer_rows(vecs)
            d, lam, u = _eliminate_gram(integer_gram(rows))
            bstar = [QVector(F(sum(c * r[i] for c, r in zip(uk, rows)), d[k] * scale)
                             for i in range(dim)) for k, uk in enumerate(u)]
            for i in range(count):
                for j in range(i):
                    assert bstar[i].dot(bstar[j]) == 0
            for i, b in enumerate(vecs):
                rebuilt = bstar[i]
                for j in range(i):
                    rebuilt = rebuilt + bstar[j].scaled(F(lam[j][i - j - 1], d[j + 1]))
                assert rebuilt == b

    def test_dk_are_running_volume_products(self):
        rng = random.Random(7)
        for _ in range(20):
            vecs = _random_independent(rng, 3, 4)
            rows, scale = integer_rows(vecs)
            d = _eliminate_gram(integer_gram(rows))[0]
            for k in range(1, 4):
                assert F(d[k], scale ** (2 * k)) == rel_volume_sq(vecs[:k])


def _random_rational(rng, dim, bound=9):
    return QVector(
        [F(rng.randint(-bound, bound), rng.randint(1, 6)) for _ in range(dim)]
    )


def _random_rational_independent(rng, count, dim):
    while True:
        vecs = [_random_rational(rng, dim) for _ in range(count)]
        try:
            rel_volume_sq(vecs)
        except DependentInput:
            continue
        return vecs


class TestRationalFamilies:
    """The record of rational, non-square families (scale > 1,
    dim > count) against naive_gs of tests/oracles.py."""

    def test_matches_naive_gs(self):
        rng = random.Random(409)
        scaled = 0
        for _ in range(60):
            count = rng.randint(1, 6)
            dim = rng.randint(count + 1, count + 3)
            vecs = [_random_rational(rng, dim) for _ in range(count)]
            _random_rational(rng, dim)  # discarded; keeps the seeded families fixed
            scaled += integer_rows(vecs)[1] > 1
            _check_record(vecs, naive_gs([tuple(b) for b in vecs]))
        assert scaled >= 50

    def test_bstar_are_scaled_last_prefix_duals(self):
        # b*_k / |b*_k|^2 is the last vector of the dual basis of b_0..b_k,
        # so sum_j u_k[j] r_j = d_k s b*_k is d_{k+1} / s times it
        rng = random.Random(421)
        for _ in range(40):
            count = rng.randint(1, 7)
            dim = rng.randint(count, count + 2)
            if rng.random() < 0.3:
                vecs = _random_independent(rng, count, dim)
            else:
                vecs = _random_rational_independent(rng, count, dim)
            rows = [tuple(b) for b in vecs]
            duals = [dual_basis(rows[:k + 1])[-1] for k in range(count)]
            scaled, scale = integer_rows(vecs)
            d, _, u = _eliminate_gram(integer_gram(scaled))
            assert [[sum(c * r[i] for c, r in zip(uk, scaled)) for i in range(dim)]
                    for uk in u] == [[d[k + 1] * e / scale for e in w]
                                     for k, w in enumerate(duals)]
            if count < dim:
                _random_rational(rng, dim)  # discarded; keeps the seeded families fixed

    def test_zero_trailing_coordinates(self):
        # an independent family whose b* end in zeros is not dependent
        _check_record([qv(2, 0)], [(2, 0)])
        _check_record([qv(1, 0, 0), qv(1, F(1, 2), 0)], [(1, 0, 0), (0, F(1, 2), 0)])
        assert rel_volume_sq([qv(1, 0, 0), qv(1, F(1, 2), 0)]) == F(1, 4)

    def test_dependent_rejected(self):
        rng = random.Random(419)
        for _ in range(20):
            count = rng.randint(2, 5)
            dim = rng.randint(count, count + 2)
            vecs = [_random_rational(rng, dim) for _ in range(count)]
            k = rng.randint(1, count - 1)
            combo = QVector.zero(dim)
            for b in vecs[:k]:
                combo = combo + b.scaled(F(rng.randint(-3, 3), rng.randint(1, 4)))
            vecs[k] = combo
            _random_rational(rng, dim)  # discarded; keeps the seeded families fixed
            # the first dependent pivot before the last, else det = 0
            message = f"^vector {k} " if k < count - 1 else "^vectors are linearly dependent$"
            with pytest.raises(DependentInput, match=message):
                rel_volume_sq(vecs)

    def test_ragged_rejected(self):
        with pytest.raises(LengthMismatch):
            rel_volume_sq([qv(1, 2), qv(F(1, 2), 0, 1)])


class TestShapeChecks:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: QVector([]), "positive dimension"),
            (lambda: qv(1, 2) + qv(1, 2, 3), "dimension mismatch: 2 vs 3"),
            (lambda: qv(1, 2).dot(qv(1)), "dimension mismatch: 2 vs 1"),
            (lambda: QMatrix([]), "positive dimensions"),
            (lambda: QMatrix([[]]), "positive dimensions"),
            (lambda: QMatrix([[1, 2], [3]]), "ragged rows"),
            (lambda: QMatrix.from_columns([]), "at least one column"),
            (lambda: QMatrix.from_columns([qv(1, 2), qv(3)]), "column dimensions differ"),
            (lambda: QMatrix.identity(2) @ QMatrix.identity(3), "inner dimensions"),
            (lambda: QMatrix.identity(2).mul_vec(qv(1, 2, 3)), "matrix-vector"),
            (lambda: LatticeBasis([]), "at least one vector"),
        ],
        ids=["empty-vector", "add", "dot", "empty-matrix", "empty-row", "ragged",
             "no-columns", "column-lengths", "matmul", "mul-vec", "empty-basis"],
    )
    def test_length_mismatch(self, build, message):
        with pytest.raises(LengthMismatch, match=message):
            build()

    def test_empty_family_has_volume_one(self):
        assert rel_volume_sq([]) == 1

    def test_non_square_inverse_and_unimodular(self):
        wide = QMatrix([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(NonSquare):
            inverse(wide)
        with pytest.raises(NonSquare):
            is_unimodular(wide)

    def test_non_integral_is_not_unimodular(self):
        # determinant 1, but an entry 1/2: not an integer matrix
        m = QMatrix([[1, F(1, 2)], [0, 1]])
        assert naive_det(m.data) == 1 and not is_unimodular(m)


class TestIntegerRows:
    def test_integral_rational_and_mixed(self):
        # an integral family takes the scale-1 path; every family must give
        # the rows e * lcm as plain ints, and rational_vectors inverts them
        rng = random.Random(263)
        for kind in ("integral", "rational", "mixed"):
            for _ in range(10):
                dim = rng.randint(1, 6)
                fam = [
                    _random_rational(rng, dim)
                    if kind == "rational" or (kind == "mixed" and k % 2)
                    else QVector([rng.randint(-9, 9) for _ in range(dim)])
                    for k in range(rng.randint(1, 5))
                ]
                rows, scale = integer_rows(fam)
                assert scale == lcm(*(e.denominator for v in fam for e in v))
                assert rows == [[int(e * scale) for e in v] for v in fam]
                assert all(type(e) is int for row in rows for e in row)
                assert rational_vectors(rows, scale) == fam
                if kind == "integral":
                    assert scale == 1
                    assert rows == [[e.numerator for e in v] for v in fam]


def _is_canonical(v):
    return (type(v._num) is tuple and all(type(x) is int for x in v._num)
            and type(v._den) is int and v._den >= 1 and gcd(v._den, *v._num) == 1)


class TestRepresentation:
    """A QVector holds integer numerators over one denominator in lowest
    terms, whichever way it was built, and computes on those integers."""

    def test_every_constructor_is_canonical(self):
        rng = random.Random(41)
        built = [
            QVector([3, -6, 9]), QVector([0, 0]), QVector([True, False, 2]),
            QVector(["4/6", "-3", "5/10"]), QVector([F(2, 4), F(6, 3)]),
            QVector([1, F(1, 2), "1/3", True]), QVector.zero(4),
            *rational_vectors([[6, -12, 18], [0, 30, 6]], 6),
            *rational_vectors([[4, -8], [2, 6]], 2),
            *(_random_rational(rng, rng.randint(1, 6)) for _ in range(20)),
        ]
        assert all(_is_canonical(v) for v in built)
        assert (built[0]._num, built[0]._den) == ((3, -6, 9), 1)
        assert (built[2]._num, built[2]._den) == ((1, 0, 2), 1)
        assert (built[3]._num, built[3]._den) == ((4, -18, 3), 6)
        assert (built[5]._num, built[5]._den) == ((6, 3, 2, 6), 6)
        assert (built[6]._num, built[6]._den) == ((0, 0, 0, 0), 1)
        assert (built[7]._num, built[7]._den) == ((1, -2, 3), 1)
        assert (built[8]._num, built[8]._den) == ((0, 5, 1), 1)
        assert (built[9]._num, built[9]._den) == ((2, -4), 1)

    def test_matrix_rows_are_canonical_vectors(self):
        # a matrix of Fractions, ints and strings holds QVector rows, and
        # its products, transpose and columns equal Fraction arithmetic
        rng = random.Random(71)
        for _ in range(30):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            spell = (lambda e: e, lambda e: str(e),
                     lambda e: e.numerator if e.denominator == 1 else e)
            rows = [[F(rng.randint(-9, 9), rng.choice((1, 1, 2, 6))) for _ in range(c)]
                    for _ in range(r)]
            m = QMatrix([[rng.choice(spell)(e) for e in row] for row in rows])
            assert all(type(v) is QVector and _is_canonical(v) for v in m.row_vectors())
            assert m.row_vectors() == [QVector(row) for row in rows]
            assert m.data == tuple(map(tuple, rows)) and (m.rows, m.cols) == (r, c)
            assert m.is_integral() == all(e.denominator == 1 for row in rows for e in row)
            cols = [tuple(col) for col in zip(*rows)]
            assert m.transpose().data == tuple(cols)
            assert [m.col(j) for j in range(c)] == [QVector(col) for col in cols]
            assert QMatrix.from_columns(m.transpose().row_vectors()) == m
            x = _random_rational(rng, c)
            assert tuple(m.mul_vec(x)) == tuple(vdot(row, tuple(x)) for row in rows)
            k = rng.randint(1, 4)
            other = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)] for _ in cols]
            product = m @ QMatrix(other)
            assert product.data == tuple(
                tuple(vdot(row, col) for col in zip(*other)) for row in rows)
            assert all(_is_canonical(v) for v in product.row_vectors())

    def test_equal_vectors_built_differently(self):
        rng = random.Random(43)
        for _ in range(30):
            v = _random_rational(rng, rng.randint(1, 6))
            scale = lcm(*(e.denominator for e in v)) * rng.randint(1, 5)
            ways = [
                QVector(list(v)), QVector([str(e) for e in v]),
                QVector([e.numerator if e.denominator == 1 else e for e in v]),
                rational_vectors([[int(e * scale) for e in v]], scale)[0],
                v + QVector.zero(v.dim), -(-v), v.scaled(F(2, 3)).scaled(F(3, 2)),
            ]
            for w in ways:
                assert w == v and hash(w) == hash(v)
                assert (w._num, w._den) == (v._num, v._den)
                assert w.entries == tuple(v) and list(w) == [w[i] for i in range(w.dim)]
                assert w[1:] == w.entries[1:] and w[::-1] == w.entries[::-1]
        assert QVector([1, 2]) != QVector([F(1, 2), 1]) and QVector([1]) != (F(1),)

    def test_arithmetic_matches_oracles(self):
        rng = random.Random(47)
        for _ in range(60):
            dim = rng.randint(1, 6)
            a, b = _random_rational(rng, dim), _random_rational(rng, dim)
            if rng.random() < 0.3:
                b = QVector([rng.randint(-9, 9) for _ in range(dim)])
            c, k = F(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(-3, 3)
            ea, eb = tuple(a), tuple(b)
            results = [a + b, a - b, -a, a.scaled(c), a.scaled(k)]
            assert all(_is_canonical(r) for r in results)
            assert tuple(results[0]) == vsub(ea, vscale(eb, -1))
            assert tuple(results[1]) == vsub(ea, eb)
            assert tuple(results[2]) == vscale(ea, -1)
            assert tuple(results[3]) == vscale(ea, c)
            assert tuple(results[4]) == vscale(ea, k)
            assert a.dot(b) == vdot(ea, eb) and type(a.dot(b)) is F
            assert a.norm_sq() == vdot(ea, ea) and type(a.norm_sq()) is F
            assert a.is_zero() == all(e == 0 for e in ea)
            assert (a - a).is_zero() and a.scaled(0) == QVector.zero(dim)
        with pytest.raises(LengthMismatch):
            QVector([1, 2]) + QVector([1])
        with pytest.raises(LengthMismatch):
            QVector([1, 2]).dot(QVector([1]))


class TestHotPathsReadNoFraction:
    """The calls the three benchmark workloads time, on integer inputs,
    work on the vectors' integers: none of them reads a vector's entries
    as Fractions or builds a vector from Fractions, so no later change
    brings back a per-entry conversion."""

    @pytest.fixture(autouse=True)
    def _no_entry_reads(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a QVector's entries were read as Fractions")

        def rational_of_int(x):
            if type(x) is not int:
                raise AssertionError(f"qlinalg coerced {x!r} to a Fraction")
            return rational(x)

        monkeypatch.setattr(QVector, "entries", property(refuse))
        monkeypatch.setattr(QVector, "__iter__", refuse)
        monkeypatch.setattr(QVector, "__getitem__", refuse)
        monkeypatch.setattr(qlinalg, "rational", rational_of_int)

    def _instances(self, seed, dims, bound=9):
        rng = random.Random(seed)
        out = []
        for dim in dims:
            fixed, *rest = _random_independent(rng, dim, dim, bound)
            out.append(MDSPInstance.from_vectors(fixed._num, [list(b._num) for b in rest]))
        return out

    def test_exact_and_cvp_routes(self):
        for inst in self._instances(53, (4, 5, 7)):
            sol = solve_exact(inst)
            c = mdsp_to_cvp(inst)
            assert recover_mdsp_distance_sq(c, enumerate_cvp(c).j) == sol.dist_sq

    def test_heuristic_and_certificate(self):
        for inst in self._instances(59, (9, 12)):
            out = run_heuristic(inst)
            gamma_sq = out.dist_sq / inst.fixed.norm_sq()
            assert verify_dmdsp_certificate(DMDSPQuery(inst, gamma_sq), out.x_total)
            if gamma_sq < 1:
                hi = DMDSPQuery(inst, gamma_sq * (1 + F(1, 1 << 32)))
                assert not verify_dmdsp_certificate(hi, out.x_total)

    def test_reductions(self):
        rng = random.Random(61)
        basis = LatticeBasis([QVector(r._num) for r in _random_independent(rng, 8, 8, 100)])
        high, _ = lll_reduce(basis, LLLParams(F(99, 100)))
        _, target = shortest_basis_vector(high)
        accel, trace = accelerated_reduce(basis, AccelConfig(LLLParams(F(1, 3)), target))
        assert trace.final_shortest_norm_sq <= target
        assert all(_is_canonical(v) for v in high.vectors + accel.vectors)


class TestSharedSmallIntegers:
    """Small integers, of which the paper's bases are made, are held as
    plain ints, and no table of them is built at import: vectors, and
    matrices through their QVector rows, hold no Fraction at rest, and
    each read of an entry builds a canonical Fraction of its value. A
    matrix built from vectors shares them as its rows."""

    def test_same_object_through_every_constructor(self):
        for k in (-129, -128, -100, -1, 0, 1, 12, 100, 128, 129, 10**30):
            for e in (rational(k), QVector([k, 5])[0], QMatrix([[3, k]])[0, 1],
                      rational_vectors([[k]], 1)[0][0]):
                assert type(e) is F and e == k
        for e, k in ((QVector.zero(3)[2], 0), (QMatrix.identity(2)[1, 0], 0),
                     (QMatrix.identity(2)[1, 1], 1)):
            assert type(e) is F and e == k
        rows = [QVector([1, -2]), QVector([F(1, 2), 3])]
        for m in (QMatrix(rows), QMatrix.from_rows(rows)):
            assert all(a is b for a, b in zip(m.row_vectors(), rows))

    def test_reduced_bases_share_their_small_entries(self):
        # the reduced vectors hold ints, and each read builds a Fraction
        rng = random.Random(17)
        basis = LatticeBasis(_random_independent(rng, 6, 6, bound=100))
        outs = [lll_reduce(basis, LLLParams(F(99, 100)))[0],
                accelerated_reduce(basis, AccelConfig(LLLParams(F(1, 3)), F(1)))[0]]
        for v in (v for out in outs for v in out.vectors):
            assert _is_canonical(v) and v._den == 1
            assert all(type(e) is F and e == x for e, x in zip(v, v._num))

    def test_other_inputs_keep_their_own_fraction(self):
        for x in (True, False, 10**40, -(10**40), "3", "-7/2", -129, 129, F(5), F(1, 3)):
            r = rational(x)
            assert r == F(x) and type(r) is F
        assert rational(True) is not rational(1)
        f = F(5)
        assert rational(f) is f

    def test_copy_deepcopy_and_pickle_round_trip(self):
        v = QVector([*range(-128, 129, 8), 129, -(10**30), F(2, 3)])
        m = QMatrix([v, [*range(-130, 127, 8), F(-1, 6), 10**30, "5/4"]])
        assert v._den == 3 and _is_canonical(v)
        for obj in (v, m):
            copies = [copy.copy(obj), copy.deepcopy(obj)]
            copies += [pickle.loads(pickle.dumps(obj, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for w in copies:
                assert type(w) is type(obj) and w == obj and hash(w) == hash(obj)
                assert repr(w) == repr(obj)
                for row in w.row_vectors() if obj is m else [w]:
                    assert type(row) is QVector and _is_canonical(row)
                    assert all(type(e) is F for e in row)

    def test_small_integer_rows_hold_at_most_257_fractions(self):
        # they hold none: entries are ints until they are read
        rng = random.Random(29)
        rows = [[rng.randint(-100, 100) for _ in range(24)] for _ in range(40)]
        vectors = [QVector(r) for r in rows] + rational_vectors(rows, 1)
        matrix = QMatrix(rows)
        for v in vectors + matrix.row_vectors():
            assert all(type(x) is int for x in v._num) and type(v._den) is int
        assert [list(v) for v in vectors] == rows + rows
        assert matrix.data == tuple(map(tuple, rows))
        assert all(type(e) is F for row in matrix.data for e in row)

    def test_small_integer_vectors_hold_at_most_257_numerators(self):
        # every numerator is a plain int, however the vector was built
        rng = random.Random(67)
        rows = [[rng.randint(-128, 128) for _ in range(24)] for _ in range(40)]
        vectors = [QVector(r) for r in rows] + rational_vectors(rows, 1)
        vectors += rational_vectors([[6 * e for e in r] for r in rows], 6)
        basis = LatticeBasis(_random_independent(rng, 8, 8, bound=100))
        vectors += lll_reduce(basis, LLLParams(F(99, 100)))[0].vectors
        vectors += accelerated_reduce(basis, AccelConfig(LLLParams(F(1, 3)), F(1)))[0].vectors
        assert all(_is_canonical(v) and v._den == 1 for v in vectors)
        assert [v._num for v in vectors[:120]] == [tuple(r) for r in rows] * 3


class TestDistance:
    def test_examples(self):
        assert dist_sq_to_span(qv(0, 2), [qv(1, 1)]) == 2
        assert dist_sq_to_span(qv(1, 0), [qv(1, 0)]) == 0
        assert dist_sq_to_span(qv(0, 2), []) == 4
        assert dist_sq_to_span(qv(F(1, 2), 3, F(-2, 3)), []) == F(349, 36)

    def test_matches_naive_on_rational_families(self):
        # non-integral entries exercise the lcm scale of the integer rows
        rng = random.Random(47)
        for _ in range(60):
            dim = rng.randint(2, 6)
            count = rng.randint(1, dim)
            basis = _random_rational_independent(rng, count, dim)
            v = _random_rational(rng, dim)
            expected = naive_dist_sq(v.entries, [b.entries for b in basis])
            assert dist_sq_to_span(v, basis) == expected

    def test_vector_in_span_gives_zero(self):
        rng = random.Random(53)
        for _ in range(20):
            dim = rng.randint(3, 6)
            basis = _random_rational_independent(rng, rng.randint(1, dim - 1), dim)
            v = QVector.zero(dim)
            for b in basis:
                v = v + b.scaled(F(rng.randint(-5, 5), rng.randint(1, 4)))
            assert dist_sq_to_span(v, basis) == 0

    def test_dependent_basis_rejected(self):
        with pytest.raises(DependentInput):
            dist_sq_to_span(qv(0, 0, 1), [qv(1, 1, 0), qv(2, 2, 0)])
        with pytest.raises(DependentInput):
            dist_sq_to_span(
                qv(1, 2, 3), [qv(F(1, 2), 0, 1), qv(0, 1, 0), qv(F(1, 2), 1, 1)]
            )
        with pytest.raises(DependentInput):
            dist_sq_to_span(qv(1, 2), [qv(0, 0)])

    def test_result_is_canonical_fraction(self):
        from math import gcd

        rng = random.Random(59)
        for _ in range(20):
            dim = rng.randint(2, 5)
            basis = _random_rational_independent(rng, rng.randint(1, dim), dim)
            d = dist_sq_to_span(_random_rational(rng, dim), basis)
            assert type(d) is F
            assert d.denominator > 0
            assert gcd(abs(d.numerator), d.denominator) == 1
        zero = dist_sq_to_span(qv(1, 1), [qv(2, 2)])
        assert type(zero) is F and (zero.numerator, zero.denominator) == (0, 1)


class TestRelVolume:
    def test_examples(self):
        assert rel_volume_sq([qv(1, 0), qv(0, 1)]) == 1
        assert rel_volume_sq([qv(1, 1)]) == 2
        assert rel_volume_sq([qv(1, 1), qv(0, 1)]) == 1

    def test_dependent(self):
        with pytest.raises(DependentInput):
            rel_volume_sq([qv(1, 1), qv(2, 2)])

    def test_matches_gs_product(self):
        rng = random.Random(11)
        for _ in range(25):
            dim = rng.randint(2, 5)
            count = rng.randint(1, dim)
            vecs = _random_independent(rng, count, dim)
            norms = [vdot(w, w) for w in naive_gs([tuple(b) for b in vecs])]
            assert rel_volume_sq(vecs) == prod(norms)


def _rational_square(rng, n):
    """Random n x n rational matrix with some denominator above 1; about one
    in ten has a row that is a rational multiple of another."""
    while True:
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.1:
            i, j = rng.sample(range(n), 2)
            c = F(rng.randint(-5, 5), rng.randint(1, 4))
            rows[i] = [c * e for e in rows[j]]
        if any(e.denominator > 1 for row in rows for e in row):
            return rows


class TestDeterminantInverse:
    def test_identity(self):
        assert is_unimodular(QMatrix.identity(4))

    def test_diag_two(self):
        assert not is_unimodular(QMatrix([[2, 0], [0, 1]]))

    def test_shear(self):
        m = QMatrix([[1, 1], [0, 1]])
        assert is_unimodular(m)
        assert inverse(m) == QMatrix([[1, -1], [0, 1]])

    def test_singular(self):
        # the first two are singular at an early pivot, the rest only at the
        # last; no singular matrix is unimodular, integral or not
        for rows in ([[0, 0], [0, 1]], [[F(1, 2), 1, 5], [1, 2, 7], [3, 6, 1]],
                     [[1, 2], [2, 4]], [[0]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
                     [[F(1, 2), 0, 1, F(3, 2)], [0, 1, 0, 1], [1, 0, 3, 4], [0, 2, 1, 3]]):
            m = QMatrix(rows)
            with pytest.raises(SingularMatrix):
                inverse(m)
            assert not is_unimodular(m)

    def test_row_swaps_and_zero_columns(self):
        # is_unimodular reads det^2 off the Gram record, which loses the
        # sign: the det -1 permutation is unimodular, and a zero column
        # makes an integral matrix singular
        assert is_unimodular(QMatrix([[0, 1], [1, 0]]))
        assert not is_unimodular(QMatrix([[1, 0, 2], [3, 0, 4], [5, 0, 6]]))

    def test_matches_oracles(self):
        # inverse and rel_volume_sq against the textbook Fraction
        # eliminations of tests/oracles.py
        rng = random.Random(71)
        singular = 0
        for _ in range(120):
            n = rng.randint(1, 8)
            rows = _rational_square(rng, n)
            m = QMatrix(rows)
            det = naive_det(rows)
            vecs = [QVector(r) for r in rows]
            if det == 0:
                singular += 1
                with pytest.raises(SingularMatrix):
                    inverse(m)
                with pytest.raises(DependentInput):
                    rel_volume_sq(vecs)
                continue
            assert [list(r) for r in inverse(m).data] == naive_inverse(rows)
            assert rel_volume_sq(vecs) == det * det
        assert singular >= 5

    def test_inverse_roundtrip(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 5)
            while True:
                m = QMatrix(
                    [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                     for _ in range(n)]
                )
                if naive_det(m.data) != 0:
                    break
            assert inverse(m) @ m == QMatrix.identity(n)

    def test_unimodular_closed_under_inverse(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 5)
            u = QMatrix(random_unimodular(rng, n))
            assert is_unimodular(u)
            assert is_unimodular(inverse(u))


def _independent_rows(rng, n, draw):
    while True:
        rows = [draw() for _ in range(n)]
        if int_det(_gram(rows)) != 0:
            return rows


class TestAdjugate:
    def _check(self, g):
        before = [row[:] for row in g]
        adj, det = adjugate_spd(g)
        assert adj == _cofactor_adjugate(g)
        assert det == int_det(g)
        assert g == before  # the input is left as it was

    def test_small_integer_rows(self):
        rng = random.Random(41)
        for n in range(1, 10):
            for _ in range(3):
                rows = _independent_rows(
                    rng, n, lambda: [rng.randint(-9, 9) for _ in range(n + 1)]
                )
                self._check(_gram(rows))

    def test_lcm_scaled_rational_rows(self):
        rng = random.Random(43)
        for n in range(1, 10):
            rows = _independent_rows(
                rng,
                n,
                lambda: [F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)],
            )
            scale = lcm(*(e.denominator for row in rows for e in row))
            self._check(_gram([[int(e * scale) for e in row] for row in rows]))

    def test_knapsack_rows(self):
        rng = random.Random(47)
        for n in range(2, 10):
            rows = [
                [1 if j == i else 0 for j in range(n - 1)] + [rng.getrandbits(30)]
                for i in range(n - 1)
            ]
            rows.append([0] * (n - 1) + [rng.getrandbits(30) | 1 << 29])
            self._check(_gram(rows))

    def test_worked_example(self):
        assert adjugate_spd([[2, 1], [1, 3]]) == ([[3, -1], [-1, 2]], 5)
        assert adjugate_spd([[5]]) == ([[1]], 5)

    def test_zero_leading_minor_raises(self):
        with pytest.raises(DegenerateResidual):
            adjugate_spd([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
        # the first two rows are dependent: the second leading minor is 0
        rows = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
        with pytest.raises(DegenerateResidual):
            adjugate_spd(_gram(rows))

    def test_singular_last_step(self):
        # independent leading rows, the last one in their span: det G = 0
        rng = random.Random(53)
        for n in range(2, 8):
            rows = _independent_rows(
                rng, n - 1, lambda: [rng.randint(-9, 9) for _ in range(n)]
            )
            coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
            rows.append([sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n)])
            g = _gram(rows)
            adj, det = adjugate_spd(g)
            assert det == 0
            assert sum(x * y for x, y in zip(g[-1], adj[-1])) == 0
            assert adj == _cofactor_adjugate(g)


def _kernel_families(seed):
    """Seeded integer Gram matrices for the elimination kernel: of uniform,
    knapsack and lcm-scaled rational rows (n = 1..10, rank n), of families
    whose row k depends on rows 0..k-1, and symmetric matrices that are
    mostly indefinite."""
    rng = random.Random(seed)
    for n in range(1, 11):
        yield _gram(_independent_rows(
            rng, n, lambda: [rng.randint(-9, 9) for _ in range(n + 1)]))
        rows = [[int(j == i) for j in range(n - 1)] + [rng.getrandbits(30)]
                for i in range(n - 1)]
        yield _gram(rows + [[0] * (n - 1) + [rng.getrandbits(30) | 1 << 29]])
        rows = _independent_rows(
            rng, n, lambda: [F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)])
        scale = lcm(*(e.denominator for row in rows for e in row))
        yield _gram([[int(e * scale) for e in row] for row in rows])
    for n in range(2, 9):
        for k in range(1, n):
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            coeffs = [rng.randint(-2, 2) for _ in range(k)]
            rows[k] = [sum(a * r[c] for a, r in zip(coeffs, rows)) for c in range(n)]
            yield _gram(rows)
        for _ in range(4):
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            yield [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]


def _leading_minors(g):
    return [int_det([row[:k] for row in g[:k]]) for k in range(1, len(g) + 1)]


class TestEliminationKernel:
    """_eliminate_gram, the one symmetric elimination, against leading
    minors computed by tests/oracles.py's int_det and adjugates by
    cofactors."""

    def test_against_oracle_minors(self):
        spd = raised = zero_last = 0
        for g in _kernel_families(59):
            before = [row[:] for row in g]
            minors = _leading_minors(g)
            bad = [k for k, m in enumerate(minors[:-1]) if m <= 0]
            if bad:
                # the first pivot <= 0 before the last row
                with pytest.raises(DependentInput, match=f"^vector {bad[0]} "):
                    _eliminate_gram(g)
                raised += 1
            else:
                n = len(g)
                d, lam, u = _eliminate_gram(g)
                assert d == [1] + minors  # the last pivot unchecked
                # column j holds lam_kj, k > j, the minor on rows 0..j,
                # columns 0..j-1 and k
                assert lam == [
                    [int_det([[row[c] for c in [*range(j), k]] for row in g[:j + 1]])
                     for k in range(j + 1, n)]
                    for j in range(n)
                ]
                # u_k is the last row of the adjugate of the leading block
                assert u == [_cofactor_adjugate([r[:k + 1] for r in g[:k + 1]])[k]
                             for k in range(n)]
                spd += minors[-1] > 0
                zero_last += minors[-1] == 0
            assert g == before  # only read
        assert spd >= 30 and raised >= 20 and zero_last >= 5

    def test_callers_keep_their_exceptions(self):
        # a zero leading minor before the last: each caller's own type
        rows = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
        g = _gram(rows)
        with pytest.raises(DependentInput, match="^vector 1 "):
            _eliminate_gram(g)
        with pytest.raises(DependentInput, match="^vector 1 "):
            dist_sq_to_span(qv(1, 1, 1), [QVector(r) for r in rows[:2]])
        with pytest.raises(DependentInput, match="^vector 1 "):
            rel_volume_sq([QVector(r) for r in rows])
        with pytest.raises(DegenerateResidual):
            adjugate_spd(g)
        with pytest.raises(SingularMatrix):
            inverse(QMatrix(rows))
        inst = MDSPInstance.from_vectors(rows[2], rows[:2], validate=False)
        for route in (mdsp_to_cvp, solve_exact):
            with pytest.raises(SingularMatrix):
                route(inst)
        # a zero last pivot, v in the span of the others, is returned as it is
        rows = [[1, 2, 0], [0, 0, 1], [3, 6, 0]]
        d = _eliminate_gram(_gram(rows))[0]
        assert d[-1] == 0 and min(d[:-1]) > 0
        assert dist_sq_to_span(QVector(rows[2]), [QVector(r) for r in rows[:2]]) == 0
        inst = MDSPInstance.from_vectors(rows[2], rows[:2], validate=False)
        for route in (mdsp_to_cvp, solve_exact):
            with pytest.raises(SingularMatrix):
                route(inst)


def _record_rows(seed):
    """(kind, rows): independent integer rows for n = 1..25, with entries
    uniform in [-100, 100], and rational rows with denominators up to 12
    scaled to integers by the lcm of their denominators."""
    rng = random.Random(seed)
    for n in range(1, 26):
        yield "integer", _independent_rows(
            rng, n, lambda: [rng.randint(-100, 100) for _ in range(n)])
        while True:
            rows = [[F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)]
                    for _ in range(n)]
            scale = lcm(*(e.denominator for row in rows for e in row))
            rows = [[int(e * scale) for e in row] for row in rows]
            if int_det(_gram(rows)) != 0:
                break
        yield "rational", rows


class TestRecordOracle:
    """The record (d, lam, u) of _eliminate_gram and every reader of it,
    against naive Gram-Schmidt and a naive inverse (tests/oracles.py)."""

    def test_record_against_naive_gs(self):
        seen = set()
        for kind, rows in _record_rows(401):
            n = len(rows)
            d, lam, u = _eliminate_gram(_gram(rows))
            bstar = naive_gs(rows)
            norms = [vdot(b, b) for b in bstar]
            assert d == list(accumulate(norms, mul, initial=1))  # Gram determinants
            # lam_kj = d_{j+1} mu_kj = d_{j+1} <r_k, b*_j> / |b*_j|^2
            assert lam == [[d[j + 1] * vdot(rows[k], bstar[j]) / norms[j]
                            for k in range(j + 1, n)] for j in range(n)]
            # sum_j u_k[j] r_j = d_k b*_k, with u_k[k] = d_k
            for k, uk in enumerate(u):
                assert len(uk) == k + 1 and uk[k] == d[k]
                assert [sum(c * r[i] for c, r in zip(uk, rows)) for i in range(n)] == [
                    d[k] * e for e in bstar[k]]
            seen.add((kind, n))
        assert len(seen) == 50

    def test_readers_against_naive_inverse(self):
        rng = random.Random(409)
        for kind, rows in _record_rows(419):
            n = len(rows)
            g = _gram(rows)
            record = d, lam, u = _eliminate_gram(g)
            det = d[n]
            adj = [[det * e for e in row] for row in naive_inverse(g)]
            assert all(e.denominator == 1 for row in adj for e in row)
            assert [_adjugate_row(d, lam, u, i) for i in range(n)] == adj
            assert _adjugate_lower(d, lam) == [row[:i + 1] for i, row in enumerate(adj)]
            assert adjugate_spd(g) == (adj, det)
            assert _adjugate_diagonal(d, u) == [adj[i][i] for i in range(n)]
            # T = z^T adj z at z = (1, -x_{n-2}, ..., -x_0)
            for _ in range(4):
                x = [rng.randint(-50, 50) for _ in range(n - 1)]
                z = [1, *(-xi for xi in reversed(x))]
                t = sum(zi * a * zj for zi, row in zip(z, adj) for a, zj in zip(row, z))
                assert _value(record, x) == (t, det)

    def test_zero_last_pivot_record(self):
        # independent leading rows, the last in their span: det G = 0, and
        # every reader still gives adj(G), by cofactors
        rng = random.Random(421)
        for n in range(2, 9):
            rows = _independent_rows(rng, n - 1, lambda: [rng.randint(-9, 9) for _ in range(n)])
            coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
            rows.append([sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n)])
            g = _gram(rows)
            d, lam, u = _eliminate_gram(g)
            adj = _cofactor_adjugate(g)
            assert d[n] == 0 and u[n - 1] == adj[n - 1]
            assert [_adjugate_row(d, lam, u, i) for i in range(n)] == adj
            assert _adjugate_lower(d, lam) == [row[:i + 1] for i, row in enumerate(adj)]
            assert _adjugate_diagonal(d, u) == [adj[i][i] for i in range(n)]

    def test_lll_data_gives_the_record(self):
        # LLL's final (d, lam), by columns, is the record's, and its
        # back-substitution gives the record's u
        rng = random.Random(431)
        for n in (2, 5, 10, 14, 20):
            rows = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(n)]
            d, lam = _lll_rows(rows, 99, 100, ReductionTrace())
            record = _eliminate_gram(integer_gram(rows))
            assert (d, lam) == record[:2]
            assert [_last_row(d, lam, k) for k in range(n)] == record[2]


class TestRootHelpers:
    def test_floor_ceil_sqrt_shifts(self):
        rng = random.Random(29)
        for _ in range(300):
            r = F(rng.randint(-50, 50), rng.randint(1, 9))
            q = F(rng.randint(0, 400), rng.randint(1, 9))
            m = floor_minus_sqrt(r, q)
            # m <= r - sqrt(q) < m + 1, checked without irrationals
            assert (r - m) >= 0 and q <= (r - m) ** 2
            assert not ((r - m - 1) >= 0 and q <= (r - m - 1) ** 2)
            assert ceil_plus_sqrt(r, q) == -floor_minus_sqrt(-r, q)

    def test_root_input_checks(self):
        with pytest.raises(ValueError, match="negative radicand"):
            floor_minus_sqrt(F(1), F(-1, 4))
        with pytest.raises(ValueError, match="negative radicand"):
            ceil_plus_sqrt(F(1), F(-1, 4))


def test_results_stay_canonical():
    # every produced rational is reduced with a positive denominator
    from math import gcd

    rng = random.Random(31)
    for _ in range(10):
        vecs = _random_independent(rng, 3, 4)
        produced = [rel_volume_sq(vecs[:k]) for k in range(1, 4)]
        produced += [dist_sq_to_span(vecs[k], vecs[:k]) for k in range(3)]
        for f in produced:
            assert f.denominator > 0
            assert gcd(abs(f.numerator), f.denominator) == 1
