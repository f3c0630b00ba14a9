import random
from fractions import Fraction as F
from itertools import accumulate
from math import lcm
from operator import mul

import pytest

from latkit.errors import (
    DegenerateResidual,
    DependentInput,
    LengthMismatch,
    NonSquare,
    NotSPD,
    SingularMatrix,
)
from latkit.cvp import mdsp_to_cvp
from latkit.exact import solve_exact
from latkit.lattice import MDSPInstance
from latkit.qlinalg import (
    QMatrix,
    QVector,
    _eliminate_gram,
    adjugate_spd,
    ceil_plus_sqrt,
    determinant,
    dist_sq_to_span,
    floor_minus_sqrt,
    gram_schmidt,
    integer_rows,
    inverse,
    iroot_ceil,
    iroot_floor,
    is_unimodular,
    ldl_decompose,
    project_onto_span,
    rational_vectors,
    rel_volume_sq,
    sqrt_dyadic,
)
from oracles import (
    dual_basis,
    int_det,
    naive_det,
    naive_dist_sq,
    naive_gs,
    naive_inverse,
    random_unimodular,
    vdot,
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
            gram_schmidt(vecs)
        except DependentInput:
            continue
        return vecs


class TestGramSchmidt:
    def test_already_orthogonal(self):
        res = gram_schmidt([qv(1, 0), qv(0, 1)])
        assert res.bstar == [qv(1, 0), qv(0, 1)]
        assert res.mu[1, 0] == 0

    def test_worked_example(self):
        res = gram_schmidt([qv(1, 1), qv(0, 1)])
        assert res.bstar == [qv(1, 1), qv(F(-1, 2), F(1, 2))]
        assert res.mu[1, 0] == F(1, 2)

    def test_collinear_rejected(self):
        # the second vector, then only the last one, in the span of the others
        for basis in ([qv(1, 1), qv(2, 2)], [qv(1, 0, 0), qv(0, 1, 0), qv(1, 1, 0)],
                      [qv(F(1, 2), 1, 0), qv(0, F(1, 3), 2), qv(1, 3, 6)]):
            with pytest.raises(DependentInput):
                gram_schmidt(basis)

    def test_orthogonality_and_reconstruction(self):
        rng = random.Random(101)
        for _ in range(50):
            dim = rng.randint(2, 6)
            count = rng.randint(2, dim)
            vecs = _random_independent(rng, count, dim)
            res = gram_schmidt(vecs)
            for i in range(count):
                for j in range(i):
                    assert res.bstar[i].dot(res.bstar[j]) == 0
            for i, b in enumerate(vecs):
                rebuilt = QVector.zero(dim)
                for j in range(i + 1):
                    rebuilt = rebuilt + res.bstar[j].scaled(res.mu[i, j])
                assert rebuilt == b

    def test_dk_are_running_volume_products(self):
        rng = random.Random(7)
        for _ in range(20):
            vecs = _random_independent(rng, 3, 4)
            res = gram_schmidt(vecs)
            for k in range(1, 4):
                assert res.dk[k - 1] == rel_volume_sq(vecs[:k])


class TestProjection:
    def test_basic(self):
        assert project_onto_span(qv(0, 2), [qv(1, 1)]) == qv(1, 1)

    def test_in_span(self):
        assert project_onto_span(qv(3, 4), [qv(1, 0), qv(0, 1)]) == qv(3, 4)

    def test_empty_span(self):
        assert project_onto_span(qv(5, 7), []) == qv(0, 0)

    def test_residual_orthogonal(self):
        rng = random.Random(3)
        for _ in range(30):
            dim = rng.randint(2, 5)
            count = rng.randint(1, dim - 1)
            basis = _random_independent(rng, count, dim)
            v = QVector([rng.randint(-9, 9) for _ in range(dim)])
            r = v - project_onto_span(v, basis)
            for b in basis:
                assert r.dot(b) == 0

    def test_nested_projection_law(self):
        # projecting onto a subspace of the span factors through the span
        rng = random.Random(4)
        for _ in range(30):
            dim = rng.randint(3, 6)
            count = rng.randint(2, dim - 1)
            outer = _random_independent(rng, count, dim)
            inner_size = rng.randint(1, count - 1) if count > 1 else 1
            # inner basis: integer recombinations of the outer one
            while True:
                coeffs = [
                    [rng.randint(-2, 2) for _ in range(count)]
                    for _ in range(inner_size)
                ]
                inner = []
                for row in coeffs:
                    w = QVector.zero(dim)
                    for c, b in zip(row, outer):
                        w = w + b.scaled(c)
                    inner.append(w)
                try:
                    gram_schmidt(inner)
                    break
                except DependentInput:
                    continue
            v = QVector([rng.randint(-9, 9) for _ in range(dim)])
            direct = project_onto_span(v, inner)
            via_outer = project_onto_span(project_onto_span(v, outer), inner)
            assert direct == via_outer


def _random_rational(rng, dim, bound=9):
    return QVector(
        [F(rng.randint(-bound, bound), rng.randint(1, 6)) for _ in range(dim)]
    )


def _random_rational_independent(rng, count, dim):
    while True:
        vecs = [_random_rational(rng, dim) for _ in range(count)]
        try:
            gram_schmidt(vecs)
        except DependentInput:
            continue
        return vecs


class TestRationalFamilies:
    """gram_schmidt and project_onto_span on rational, non-square families
    (scale > 1, dim > count) against naive_gs of tests/oracles.py."""

    def test_matches_naive_gs(self):
        rng = random.Random(409)
        scaled = 0
        for _ in range(60):
            count = rng.randint(1, 6)
            dim = rng.randint(count + 1, count + 3)
            vecs = [_random_rational(rng, dim) for _ in range(count)]
            v = _random_rational(rng, dim)
            rows = [tuple(b) for b in vecs]
            scaled += integer_rows(vecs)[1] > 1
            bstar = naive_gs(rows)
            norms = [vdot(w, w) for w in bstar]
            res = gram_schmidt(vecs)
            assert [tuple(w) for w in res.bstar] == bstar
            assert res.dk == list(accumulate(norms, mul))
            for i, b in enumerate(rows):
                for j in range(i):
                    assert res.mu[i, j] == vdot(b, bstar[j]) / norms[j]
            residual = naive_gs(rows + [tuple(v)])[-1]
            assert tuple(project_onto_span(v, vecs)) == tuple(
                x - r for x, r in zip(v, residual)
            )
        assert scaled >= 50

    def test_bstar_are_scaled_last_prefix_duals(self):
        # b*_k / |b*_k|^2 is the last vector of the dual basis of b_0..b_k,
        # and v - proj that of (basis, v)
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
            assert [tuple(w) for w in gram_schmidt(vecs).bstar] == [
                tuple(e / vdot(u, u) for e in u) for u in duals
            ]
            if count < dim:
                v = _random_rational(rng, dim)
                u = dual_basis(rows + [tuple(v)])[-1]
                assert tuple(project_onto_span(v, vecs)) == tuple(
                    x - e / vdot(u, u) for x, e in zip(v, u)
                )

    def test_zero_trailing_coordinates(self):
        # an independent family whose b* end in zeros is not dependent
        assert gram_schmidt([qv(2, 0)]).bstar == [qv(2, 0)]
        res = gram_schmidt([qv(1, 0, 0), qv(1, F(1, 2), 0)])
        assert res.bstar == [qv(1, 0, 0), qv(0, F(1, 2), 0)]
        assert project_onto_span(qv(3, 4, 5), [qv(1, 0, 0), qv(1, 1, 0)]) == qv(3, 4, 0)

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
            v = _random_rational(rng, dim)
            with pytest.raises(DependentInput, match=f"^vector {k} "):
                gram_schmidt(vecs)
            with pytest.raises(DependentInput, match=f"^vector {k} "):
                project_onto_span(v, vecs)

    def test_ragged_rejected(self):
        with pytest.raises(LengthMismatch):
            gram_schmidt([qv(1, 2), qv(F(1, 2), 0, 1)])
        with pytest.raises(LengthMismatch):
            project_onto_span(qv(1, 2, 3), [qv(1, 2), qv(F(1, 2), 0, 1)])
        with pytest.raises(LengthMismatch):
            project_onto_span(qv(1, 2), [qv(F(1, 2), 0, 1)])


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
            res = gram_schmidt(vecs)
            assert rel_volume_sq(vecs) == res.dk[-1]


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
        m = QMatrix.identity(4)
        assert determinant(m) == 1
        assert is_unimodular(m)

    def test_diag_two(self):
        m = QMatrix([[2, 0], [0, 1]])
        assert determinant(m) == 2
        assert not is_unimodular(m)

    def test_shear(self):
        m = QMatrix([[1, 1], [0, 1]])
        assert determinant(m) == 1
        assert is_unimodular(m)
        assert inverse(m) == QMatrix([[1, -1], [0, 1]])

    def test_non_square(self):
        with pytest.raises(NonSquare):
            determinant(QMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_singular(self):
        # the first two are singular at an early pivot, the rest only at the last
        for rows in ([[0, 0], [0, 1]], [[F(1, 2), 1, 5], [1, 2, 7], [3, 6, 1]],
                     [[1, 2], [2, 4]], [[0]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
                     [[F(1, 2), 0, 1, F(3, 2)], [0, 1, 0, 1], [1, 0, 3, 4], [0, 2, 1, 3]]):
            with pytest.raises(SingularMatrix):
                inverse(QMatrix(rows))

    def test_row_swaps_and_zero_columns(self):
        assert determinant(QMatrix([[0, 1], [1, 0]])) == -1
        m = [[0, F(1, 2), 3], [2, 0, 1], [0, 0, F(5, 3)]]
        assert determinant(QMatrix(m)) == naive_det(m) == F(-5, 3)
        m = [[1, 2, 3], [2, 4, 7], [1, 5, 1]]  # a zero pivot after the first step
        assert determinant(QMatrix(m)) == naive_det(m) == -3
        assert determinant(QMatrix([[1, 0, 2], [3, 0, 4], [5, 0, 6]])) == 0
        assert determinant(QMatrix([[0, 1], [0, F(1, 2)]])) == 0
        assert determinant(QMatrix([[0]])) == 0

    def test_matches_oracles(self):
        # determinant, inverse and gram_schmidt against the textbook Fraction
        # eliminations of tests/oracles.py
        rng = random.Random(71)
        singular = 0
        for _ in range(120):
            n = rng.randint(1, 8)
            rows = _rational_square(rng, n)
            m = QMatrix(rows)
            det = determinant(m)
            assert det == naive_det(rows)
            vecs = [QVector(r) for r in rows]
            if det == 0:
                singular += 1
                with pytest.raises(SingularMatrix):
                    inverse(m)
                with pytest.raises(DependentInput):
                    gram_schmidt(vecs)
                continue
            assert [list(r) for r in inverse(m).data] == naive_inverse(rows)
            assert [tuple(w) for w in gram_schmidt(vecs).bstar] == naive_gs(rows)
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
                if determinant(m) != 0:
                    break
            assert inverse(m) @ m == QMatrix.identity(n)

    def test_unimodular_closed_under_inverse(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 5)
            u = QMatrix(random_unimodular(rng, n))
            assert is_unimodular(u)
            assert is_unimodular(inverse(u))


def _cofactor_adjugate(g):
    """adj(g)[i][j] = (-1)^(i+j) det(g without row j and column i)."""
    n = len(g)
    return [
        [
            (-1) ** (i + j)
            * int_det([r[:i] + r[i + 1:] for k, r in enumerate(g) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def _gram(rows):
    return [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]


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
    minors computed by tests/oracles.py's int_det."""

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
                d, lam = _eliminate_gram(g)
                assert d == [1] + minors  # the last pivot unchecked
                # lam[k][j] is the minor on rows 0..j, columns 0..j-1 and k
                assert lam == [
                    [int_det([[row[c] for c in [*range(j), k]] for row in g[:j + 1]])
                     for j in range(k)]
                    for k in range(len(g))
                ]
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
        with pytest.raises(NotSPD):
            ldl_decompose(QMatrix(g))
        with pytest.raises(SingularMatrix):
            inverse(QMatrix(rows))
        inst = MDSPInstance.from_vectors(rows[2], rows[:2], validate=False)
        for route in (mdsp_to_cvp, solve_exact):
            with pytest.raises(SingularMatrix):
                route(inst)
        # a zero last pivot, v in the span of the others, is returned as it is
        rows = [[1, 2, 0], [0, 0, 1], [3, 6, 0]]
        d, _ = _eliminate_gram(_gram(rows))
        assert d[-1] == 0 and min(d[:-1]) > 0
        assert dist_sq_to_span(QVector(rows[2]), [QVector(r) for r in rows[:2]]) == 0
        with pytest.raises(NotSPD):
            ldl_decompose(QMatrix(_gram(rows)))
        inst = MDSPInstance.from_vectors(rows[2], rows[:2], validate=False)
        for route in (mdsp_to_cvp, solve_exact):
            with pytest.raises(SingularMatrix):
                route(inst)


class TestLDL:
    def test_identity(self):
        res = ldl_decompose(QMatrix.identity(3))
        assert res.lower == QMatrix.identity(3)
        assert res.diag == [F(1)] * 3

    def test_worked_example(self):
        res = ldl_decompose(QMatrix([[2, 1], [1, 1]]))
        assert res.lower == QMatrix([[1, 0], [F(1, 2), 1]])
        assert res.diag == [F(2), F(1, 2)]

    def test_not_spd(self):
        with pytest.raises(NotSPD):
            ldl_decompose(QMatrix([[1, 2], [2, 1]]))
        with pytest.raises(NotSPD):
            ldl_decompose(QMatrix([[1, 2], [3, 4]]))  # not symmetric
        # zero first pivot, negative 1 x 1 form, zero last pivot
        for rows in ([[0, 1], [1, 0]], [[-1]], [[1, 1], [1, 1]]):
            with pytest.raises(NotSPD):
                ldl_decompose(QMatrix(rows))

    def test_reconstruction_exact(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(1, 5)
            while True:
                a = QMatrix(
                    [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                )
                if determinant(a) != 0:
                    break
            g = a.transpose() @ a
            res = ldl_decompose(g)
            d = QMatrix(
                [[res.diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            )
            assert res.lower @ d @ res.lower.transpose() == g
            assert all(x > 0 for x in res.diag)


class TestRootHelpers:
    def test_iroot(self):
        assert iroot_floor(0, 3) == 0
        assert iroot_floor(26, 3) == 2
        assert iroot_floor(27, 3) == 3
        assert iroot_ceil(27, 3) == 3
        assert iroot_ceil(28, 3) == 4
        rng = random.Random(23)
        for _ in range(200):
            x = rng.randint(0, 10**12)
            n = rng.randint(1, 6)
            r = iroot_floor(x, n)
            assert r**n <= x < (r + 1) ** n

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

    def test_sqrt_dyadic(self):
        assert sqrt_dyadic(F(4), 64) == 2
        assert sqrt_dyadic(F(9, 4), 64) == F(3, 2)
        s = sqrt_dyadic(F(2), 64)
        assert abs(s * s - 2) / 2 < F(1, 2**60)


def test_results_stay_canonical():
    # every produced rational is reduced with a positive denominator
    from math import gcd

    rng = random.Random(31)
    for _ in range(10):
        vecs = _random_independent(rng, 3, 4)
        res = gram_schmidt(vecs)
        produced = [e for w in res.bstar for e in w.entries]
        produced += [res.mu[i, j] for i in range(3) for j in range(3)]
        produced += res.dk
        produced.append(rel_volume_sq(vecs))
        g = QMatrix([[a.dot(b) for b in vecs] for a in vecs])
        ldl = ldl_decompose(g)
        produced += [e for row in ldl.lower.data for e in row] + ldl.diag
        for f in produced:
            assert f.denominator > 0
            assert gcd(abs(f.numerator), f.denominator) == 1
