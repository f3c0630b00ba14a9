import copy
import dataclasses
import pickle
import random
from fractions import Fraction as F
from math import floor

import pytest

import latkit
from latkit import cvp, qlinalg
from latkit.errors import (
    DependentInput,
    LengthMismatch,
    NonSquare,
    NotSPD,
    SingularMatrix,
)
from latkit.cvp import (
    CVPGramInstance,
    cvp_to_mdsp,
    enumerate_cvp,
    mdsp_to_cvp,
    recover_mdsp_distance_sq,
)
from latkit.exact import solve_exact
from latkit.lattice import LatticeBasis, MDSPInstance, apply_shift
from latkit.qlinalg import QMatrix, QVector, determinant, dist_sq_to_span
from oracles import cvp_exhaustive, naive_det, random_mdsp_vectors


def make_instance(v, basis):
    return MDSPInstance(QVector(v), LatticeBasis([QVector(b) for b in basis]))


def naive_form(gram, offset, j):
    """(j + offset)^T gram (j + offset), summed over every gram[a][b] term
    in Fractions; gram and offset are lists."""
    u = [ji + ci for ji, ci in zip(j, offset)]
    return sum(u[a] * gram[a][b] * u[b] for a in range(len(u)) for b in range(len(u)))


def is_spd(gram):
    """Symmetric with every leading principal minor positive (Sylvester),
    each minor by oracles.naive_det."""
    n = len(gram)
    return (all(gram[a][b] == gram[b][a] for a in range(n) for b in range(a))
            and all(naive_det([row[:k] for row in gram[:k]]) > 0 for k in range(1, n + 1)))


E1 = make_instance([0, 2], [[1, 1]])
DIM3 = make_instance([0, 0, 3], [[1, 0, 1], [0, 1, 2]])
E1_CVP = CVPGramInstance(QMatrix([[1]]), QVector([F(1, 2)]), F(4))


def mixed_instances(seed, count=12):
    """Integer instances, then the same ones with each vector divided by its
    own small denominator, so the scaled rows have scale > 1."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v, basis = random_mdsp_vectors(rng, rng.randint(2, 5))
        out.append(make_instance(v, basis))
        dens = [rng.randint(2, 6)] + [rng.randint(1, 6) for _ in basis]
        out.append(make_instance(
            [e / dens[0] for e in v],
            [[e / den for e in b] for b, den in zip(basis, dens[1:])],
        ))
    return out


class TestForward:
    def test_worked(self):
        c = mdsp_to_cvp(E1)
        assert c.gram == QMatrix([[1]])
        assert c.offset == QVector([F(1, 2)])
        assert c.scale_sq == 4

    def test_orthogonal_offset_zero(self):
        inst = make_instance([0, 0, 3], [[1, 0, 0], [0, 1, 0]])
        c = mdsp_to_cvp(inst)
        assert c.offset == QVector([0, 0])

    def test_dim3_frozen(self):
        c = mdsp_to_cvp(DIM3)
        assert c.gram == QMatrix.identity(2)
        assert c.offset == QVector([F(1, 3), F(2, 3)])
        assert c.scale_sq == 9

    def test_zero_fixed_vector(self):
        inst = MDSPInstance.from_vectors([0, 0], [[1, 0]], validate=False)
        with pytest.raises(DependentInput):
            mdsp_to_cvp(inst)

    def test_dependent_input(self):
        # v in span(B); B itself dependent; the same with rational entries
        cases = [
            ([1, 1, 0], [[1, 0, 0], [0, 1, 0]]),
            ([0, 0, 1], [[1, 2, 0], [2, 4, 0]]),
            ([F(1, 2), 0, F(1, 3)], [[F(3, 2), 0, 1], [0, F(1, 5), 0]]),
            # b_1 = 2v: the elimination of (v, b_1, b_0) stops at pivot 1
            ([1, 0, 0], [[0, 1, 0], [2, 0, 0]]),
        ]
        for v, basis in cases:
            inst = MDSPInstance.from_vectors(v, basis, validate=False)
            with pytest.raises(SingularMatrix):
                mdsp_to_cvp(inst)


class TestReverse:
    def test_worked(self):
        inst = cvp_to_mdsp(QMatrix([[1]]), QVector([F(-1, 2)]))
        assert inst.fixed == QVector([1, 0])
        assert inst.rest.vectors == (QVector([F(1, 2), 1]),)

    def test_target_length_checked(self):
        for target in (QVector([1]), QVector([1, 2, 3])):
            with pytest.raises(ValueError, match="target dimension"):
                cvp_to_mdsp(QMatrix.identity(2), target)

    def test_zero_target_orthogonal(self):
        inst = cvp_to_mdsp(QMatrix.identity(2), QVector([0, 0]))
        assert all(inst.fixed.dot(b) == 0 for b in inst.rest.vectors)

    def test_round_trip_gram(self):
        rng = random.Random(103)
        for _ in range(20):
            n = rng.randint(1, 3)
            while True:
                l = QMatrix(
                    [
                        [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)
                    ]
                )
                if determinant(l) != 0:
                    break
            t = QVector([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])
            inst = cvp_to_mdsp(l, t)
            c = mdsp_to_cvp(inst)
            assert c.gram == l @ l.transpose()
            from latkit.qlinalg import inverse

            gamma = inverse(l.transpose()).mul_vec(-t)
            assert c.offset == gamma
            assert c.scale_sq == 1


class TestBruteforce:
    def test_package_exports_the_name_and_the_alias(self):
        assert latkit.enumerate_cvp is enumerate_cvp
        assert latkit.solve_cvp_bruteforce is enumerate_cvp

    def test_half_offset_tie(self):
        sol = enumerate_cvp(E1_CVP)
        assert sol.j == (-1,)
        assert sol.objective == F(1, 4)

    def test_identity_zero(self):
        c = CVPGramInstance(QMatrix.identity(3), QVector([0, 0, 0]), F(1))
        sol = enumerate_cvp(c)
        assert sol.j == (0, 0, 0)
        assert sol.objective == 0

    def test_frozen_scan(self):
        # frozen from an independent exhaustive scan over [-5, 5]^2
        c = CVPGramInstance(
            QMatrix([[2, 1], [1, 1]]), QVector([F(1, 3), F(1, 3)]), F(1)
        )
        sol = enumerate_cvp(c)
        assert sol.j == (0, -1)
        assert sol.objective == F(2, 9)

    def test_no_dimension_cap(self):
        # hand-built n = 7 and n = 8 forms are answered
        c = CVPGramInstance(QMatrix.identity(7), QVector([0] * 7), F(1))
        assert enumerate_cvp(c).j == (0,) * 7
        rng = random.Random(617)
        for n in (7, 8):
            while True:
                b = QMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                if determinant(b) != 0:
                    break
            offset = QVector([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)])
            c = CVPGramInstance(b @ b.transpose(), offset, F(3, 2))
            sol = enumerate_cvp(c)
            assert len(sol.j) == n and sol.objective == c.objective(sol.j)

    def test_not_spd(self):
        grams = [
            [[1, 2], [3, 4]],  # not symmetric
            [[1, 2], [2, 1]],  # indefinite
            [[0, 1], [1, 0]],  # indefinite, zero leading minor
            [[1, 1], [1, 1]],  # semidefinite
            [[-1]],
        ]
        for gram in grams:
            with pytest.raises(NotSPD):
                CVPGramInstance(QMatrix(gram), QVector([0] * len(gram)), F(1))

    def test_not_symmetric_definite_triangle(self):
        # the elimination reads the upper triangle only, which is positive
        # definite here; the symmetry check alone rejects these forms
        for gram in ([[2, 1], [0, 2]], [[2, F(1, 2)], [F(1, 3), 2]]):
            with pytest.raises(NotSPD):
                CVPGramInstance(QMatrix(gram), QVector([0, 0]), F(1))

    def test_negative_definite_odd_order(self):
        # adj(-I) = I for odd n, so the bordered matrix built from the
        # adjugate would be positive definite; M itself is checked
        with pytest.raises(NotSPD):
            CVPGramInstance(QMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]),
                            QVector([F(1, 2)] * 3), F(1))

    def test_larger_forms_frozen(self):
        # hand-built forms A^T A at n = 7 (integral A) and n = 8 (rational
        # A), above the benchmark's n <= 6; frozen from the enumeration on
        # the LDL^T of M
        rng = random.Random(251)
        want = {
            7: ((5, 0, 1, 2, 1, -3, 0), F(733, 225)),
            8: ((2, 0, -1, -1, 0, -2, 0, 0), F(1433143, 396900)),
        }
        for n, den in ((7, 1), (8, 3)):
            while True:
                a = QMatrix([[F(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(n)]
                             for _ in range(n)])
                if determinant(a) != 0:
                    break
            gram = a.transpose() @ a
            offset = QVector([F(rng.randint(-9, 9), rng.randint(2, 7)) for _ in range(n)])
            c = CVPGramInstance(gram, offset, F(1))
            sol = enumerate_cvp(c)
            assert (sol.j, sol.objective) == want[n]
            u = [j + o for j, o in zip(sol.j, offset)]
            assert sol.objective == sum(
                u[i] * gram[i, k] * u[k] for i in range(n) for k in range(n)
            )

    def test_matches_exhaustive_scan(self):
        # Gram matrices A^T A with rational A, so most entries are not integral
        rng = random.Random(107)
        checked = 0
        while checked < 20:
            n = 1 + checked % 5
            while True:
                a = QMatrix(
                    [
                        [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)
                    ]
                )
                if determinant(a) != 0:
                    break
            gram = a.transpose() @ a
            offset = QVector(
                [F(rng.randint(-4, 4), rng.randint(2, 5)) for _ in range(n)]
            )
            c = CVPGramInstance(gram, offset, F(1))
            scan = cvp_exhaustive(
                [list(r) for r in gram.data], list(offset.entries), 20_000
            )
            if scan is None:  # certified window too large for the oracle
                continue
            sol = enumerate_cvp(c)
            assert sol.objective == scan[0]
            assert sol.j == scan[1]
            checked += 1

    def test_ties_break_lexicographically(self):
        # (-1, 0) and (0, -1) tie; the certified scan keeps the first
        gram, offset = QMatrix([[2, 1], [1, 2]]), QVector([F(1, 2), F(1, 2)])
        scan = cvp_exhaustive([list(r) for r in gram.data], list(offset.entries))
        sol = enumerate_cvp(CVPGramInstance(gram, offset, F(1)))
        assert (sol.j, sol.objective) == (scan[1], scan[0]) == ((-1, 0), F(1, 2))
        # a diagonal form separates: each j_i minimizes |j_i + c_i| on its own,
        # so a half-integer c_i ties two values and the smaller one,
        # ceil(-c_i - 1/2), is taken; up to 2^n minimizers
        rng = random.Random(139)
        for n in (1, 2, 3, 4, 5):
            for _ in range(3):
                diag = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
                gram = QMatrix(
                    [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
                )
                c = [rng.choice([F(1, 2), F(-1, 2), F(3, 2), F(1, 3)]) for _ in range(n)]
                want = tuple(-floor(ci + F(1, 2)) for ci in c)
                sol = enumerate_cvp(CVPGramInstance(gram, QVector(c), F(1)))
                assert sol.j == want
                assert sol.objective == sum(
                    d * (j + ci) ** 2 for d, j, ci in zip(diag, want, c)
                )

    def test_scaling_preserves_argmin(self):
        rng = random.Random(109)
        for _ in range(10):
            n = rng.randint(1, 3)
            while True:
                a = QMatrix(
                    [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                )
                if determinant(a) != 0:
                    break
            gram = a.transpose() @ a
            offset = QVector(
                [F(rng.randint(-4, 4), rng.randint(2, 5)) for _ in range(n)]
            )
            kappa = F(rng.randint(1, 9), rng.randint(1, 9))
            c1 = CVPGramInstance(gram, offset, F(1))
            scaled = QMatrix([[kappa * e for e in row] for row in gram.data])
            c2 = CVPGramInstance(scaled, offset, F(1))
            s1 = enumerate_cvp(c1)
            s2 = enumerate_cvp(c2)
            assert s1.j == s2.j
            assert s2.objective == kappa * s1.objective


class TestValidation:
    def test_malformed_form_raises(self):
        # an offset of another order is refused at construction: unchecked,
        # a 3-entry offset on this positive definite form gives a negative
        # objective and a 1-entry offset a 1-entry j
        gram = QMatrix([[2, 1], [1, 1]])
        for offset in ([F(1, 3), F(1, 3), F(1, 2)], [F(1, 3)]):
            with pytest.raises(LengthMismatch):
                CVPGramInstance(gram, QVector(offset), F(1))
        with pytest.raises(NonSquare):
            CVPGramInstance(QMatrix([[2, 1, 0], [1, 1, 0]]), QVector([0, 0]), F(1))

    def test_nonpositive_scale_sq_raises(self):
        # scale_sq is |v|^2; unchecked, gram [[1]] with offset 1/2 recovered
        # a distance of -12 at scale_sq = -3 and divided by zero at -4
        for scale_sq in (F(-3), F(-4), F(0), -1, F(-1, 7)):
            with pytest.raises(ValueError, match="^scale_sq must be positive"):
                CVPGramInstance(QMatrix([[1]]), QVector([F(1, 2)]), scale_sq)
        c = CVPGramInstance(QMatrix([[1]]), QVector([F(1, 2)]), F(1, 10**9))
        assert recover_mdsp_distance_sq(c, (0,)) > 0

    def test_scale_sq_is_coerced_to_a_fraction(self):
        # a float scale_sq once passed the positivity check and made the
        # recovered distance a float (0.0975...); it is now taken exactly
        c = CVPGramInstance(QMatrix([[1]]), QVector([F(1, 2)]), 0.1)
        assert type(c.scale_sq) is F and c.scale_sq == F(0.1)
        got = recover_mdsp_distance_sq(c, (-1,))
        assert type(got) is F
        assert got == c.scale_sq / (1 + c.scale_sq / 4)
        c = CVPGramInstance(QMatrix([[1]]), QVector([F(1, 2)]), 3)
        assert type(c.scale_sq) is F and c.scale_sq == 3
        assert type(recover_mdsp_distance_sq(c, (0,))) is F

    def test_objective_checks_j(self):
        hand = CVPGramInstance(QMatrix([[2, 1], [1, 1]]), QVector([F(1, 3)] * 2), F(1))
        stored = mdsp_to_cvp(make_instance([1, 2, 0], [[3, 1, 1], [0, 1, 4]]))
        for c in (hand, stored):
            assert c.objective((F(2), -1)) == c.objective((2, -1))
            for j in ((0,), (0, 0, 5), ()):
                with pytest.raises(LengthMismatch):
                    c.objective(j)
                with pytest.raises(LengthMismatch):
                    recover_mdsp_distance_sq(c, j)
            with pytest.raises(ValueError):
                c.objective((F(1, 2), 0))
            with pytest.raises(ValueError):
                recover_mdsp_distance_sq(c, (0, F(-1, 3)))


class TestRecovery:
    def test_objective_matches_naive_form(self):
        # rational forms and offsets with mixed denominators: a draw that is
        # symmetric positive definite, and the Gram matrix A^T A of every
        # nonsingular draw A, gives the naive sum of every g[a][b] term;
        # every other draw, not symmetric or not definite, is refused by
        # the constructor
        rng = random.Random(127)
        checked = refused = 0
        for _ in range(30):
            n = rng.randint(1, 5)
            gram = QMatrix(
                [[F(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(n)]
                 for _ in range(n)]
            )
            offset = QVector([F(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(n)])
            j = tuple(rng.randint(-4, 4) for _ in range(n))
            forms = [gram]
            if determinant(gram) != 0:
                forms.append(gram.transpose() @ gram)
            for g in forms:
                if not is_spd(g.data):
                    with pytest.raises(NotSPD):
                        CVPGramInstance(g, offset, F(1))
                    refused += 1
                    continue
                got = CVPGramInstance(g, offset, F(1)).objective(j)
                assert got == naive_form(g.data, list(offset), j) and type(got) is F
                checked += 1
        assert checked >= 25 and refused >= 20

    def test_worked_values(self):
        assert recover_mdsp_distance_sq(E1_CVP, (0,)) == 2
        assert recover_mdsp_distance_sq(E1_CVP, (1,)) == F(2, 5)

    def test_orthogonal_full_norm(self):
        c = CVPGramInstance(QMatrix.identity(2), QVector([0, 0]), F(9))
        assert recover_mdsp_distance_sq(c, (0, 0)) == 9

    def test_quadratic_form_identity(self):
        rng = random.Random(113)
        for _ in range(20):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 4)))
            c = mdsp_to_cvp(inst)
            x = tuple(rng.randint(-3, 3) for _ in range(inst.n))
            d = dist_sq_to_span(inst.fixed, apply_shift(inst, x).vectors)
            assert d * (1 + c.scale_sq * c.objective(x)) == c.scale_sq
            assert recover_mdsp_distance_sq(c, x) == d

    def test_recovery_equals_the_formula_in_fractions(self):
        # recover_mdsp_distance_sq builds one Fraction from the objective's
        # integer terms; it must equal scale_sq / (1 + scale_sq objective(j))
        # taken in Fractions, at the minimizer and away from it
        rng = random.Random(331)
        forms = [mdsp_to_cvp(inst) for inst in mixed_instances(331, count=5)]
        forms += [CVPGramInstance(c.gram, c.offset, c.scale_sq) for c in forms[:4]]
        while len(forms) < 20:
            n = rng.randint(1, 4)
            a = QMatrix([[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                         for _ in range(n)])
            if determinant(a) == 0:
                continue
            offset = QVector([F(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n)])
            scale_sq = F(rng.randint(1, 50), rng.randint(1, 9))
            forms.append(CVPGramInstance(a.transpose() @ a, offset, scale_sq))
        for c in forms:
            best = enumerate_cvp(c)
            js = [best.j, tuple(j + 1 for j in best.j),
                  tuple(rng.randint(-5, 5) for _ in range(c.n))]
            assert c.objective(js[1]) > best.objective  # a non-optimal j
            for j in js:
                got = recover_mdsp_distance_sq(c, j)
                assert type(got) is F
                assert got == c.scale_sq / (1 + c.scale_sq * c.objective(j))


class TestEquivalence:
    def test_forward_argmin(self):
        rng = random.Random(127)
        for _ in range(15):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 4)))
            sol = solve_exact(inst)
            c = mdsp_to_cvp(inst)
            cvp_sol = enumerate_cvp(c)
            assert recover_mdsp_distance_sq(c, cvp_sol.j) == sol.dist_sq
            assert cvp_sol.j == sol.x

    def test_reverse_argmin(self):
        rng = random.Random(131)
        for _ in range(15):
            n = rng.randint(1, 3)
            while True:
                l = QMatrix(
                    [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                )
                if determinant(l) != 0:
                    break
            t = QVector([F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
            inst = cvp_to_mdsp(l, t)
            mdsp_sol = solve_exact(inst)
            c = CVPGramInstance(
                l @ l.transpose(),
                mdsp_to_cvp(inst).offset,
                F(1),
            )
            cvp_sol = enumerate_cvp(c)
            assert cvp_sol.j == mdsp_sol.x
            # same objective when mapping the shift back to the CVP side
            assert c.objective(mdsp_sol.x) == cvp_sol.objective

    def test_unit_orthonormal_distance_law(self):
        from itertools import product as iproduct

        # standard orthonormal frames in dimensions 2..4
        for n in (1, 2, 3):
            dim = n + 1
            v = QVector([1] + [0] * n)
            basis = [
                QVector([0] * (i + 1) + [1] + [0] * (dim - i - 2)) for i in range(n)
            ]
            inst = MDSPInstance(v, LatticeBasis(basis))
            for x in iproduct(range(-3, 4), repeat=n):
                d = dist_sq_to_span(v, apply_shift(inst, x).vectors)
                assert d == F(1, 1 + sum(xi * xi for xi in x))
        # rational orthonormal pair from a 3-4-5 rotation
        v = QVector([F(3, 5), F(4, 5)])
        b = QVector([F(-4, 5), F(3, 5)])
        inst = MDSPInstance(v, LatticeBasis([b]))
        for x in range(-3, 4):
            d = dist_sq_to_span(v, apply_shift(inst, (x,)).vectors)
            assert d == F(1, 1 + x * x)


class TestStoredForm:
    """mdsp_to_cvp stores the eliminated primal Gram matrix on the instance
    it returns; the enumeration and the objective only read it, so it must
    come out of every call unchanged."""

    def test_repeated_calls_identical(self):
        for inst in mixed_instances(211):
            c = mdsp_to_cvp(inst)
            j0 = (1,) * inst.n
            runs = []
            for _ in range(2):
                sol = enumerate_cvp(c)
                runs.append((
                    c.objective(j0),
                    sol,
                    recover_mdsp_distance_sq(c, sol.j),
                    recover_mdsp_distance_sq(c, j0),
                    c.objective(sol.j),
                ))
            assert runs[0] == runs[1]
            assert runs[0][4] == runs[0][1].objective

    def test_matches_rebuilt_instance(self):
        # the stored route (no adjugate, no Fraction field) and the bordered
        # route of a hand-built form agree on the solution and the objective
        saw_scale = False
        for inst in mixed_instances(223):
            c = mdsp_to_cvp(inst)
            sol = enumerate_cvp(c)
            js = [sol.j, (0,) * inst.n, tuple(i - 2 for i in range(inst.n))]
            values = [c.objective(j) for j in js]
            assert "gram" not in vars(c) and "offset" not in vars(c)
            rebuilt = CVPGramInstance(c.gram, c.offset, c.scale_sq)
            assert c == rebuilt and hash(c) == hash(rebuilt)
            assert repr(c) == repr(rebuilt)
            want = enumerate_cvp(rebuilt)
            assert (sol.j, sol.objective) == (want.j, want.objective)
            assert type(sol.objective) is F
            assert values == [rebuilt.objective(j) for j in js]
            assert values[0] == sol.objective
            assert recover_mdsp_distance_sq(c, sol.j) == recover_mdsp_distance_sq(
                rebuilt, want.j
            ) == dist_sq_to_span(inst.fixed, apply_shift(inst, sol.j).vectors)
            saw_scale |= any(
                e.denominator > 1 for u in (inst.fixed, *inst.rest) for e in u
            )
        assert saw_scale


class TestLazyInstance:
    """mdsp_to_cvp's instance builds gram and offset on first access; every
    value-level operation must match an instance built from those fields."""

    def test_value_semantics_match_eager(self):
        for inst in mixed_instances(229, count=6):
            fields = mdsp_to_cvp(inst)
            eager = CVPGramInstance(fields.gram, fields.offset, fields.scale_sq)
            assert "gram" not in vars(mdsp_to_cvp(inst))
            assert "_rows" not in vars(mdsp_to_cvp(inst))  # P is stored, no rows
            assert mdsp_to_cvp(inst) == eager and eager == mdsp_to_cvp(inst)
            assert hash(mdsp_to_cvp(inst)) == hash(eager)
            assert repr(mdsp_to_cvp(inst)) == repr(eager)
            assert dataclasses.replace(mdsp_to_cvp(inst)) == eager
            half = dataclasses.replace(mdsp_to_cvp(inst), scale_sq=eager.scale_sq / 2)
            assert half == dataclasses.replace(eager, scale_sq=eager.scale_sq / 2)
            assert copy.copy(mdsp_to_cvp(inst)) == eager
            twins = (copy.deepcopy(mdsp_to_cvp(inst)),
                     pickle.loads(pickle.dumps(mdsp_to_cvp(inst))))
            for twin in twins:
                assert "gram" not in vars(twin)
                assert enumerate_cvp(twin) == enumerate_cvp(eager)
                assert twin == eager and repr(twin) == repr(eager)
            assert pickle.loads(pickle.dumps(eager)) == mdsp_to_cvp(inst)
            assert mdsp_to_cvp(inst).n == eager.n == inst.n

    def test_objective_matches_quad(self):
        rng = random.Random(233)
        scaled = 0
        for inst in mixed_instances(233):
            c = mdsp_to_cvp(inst)
            fields = mdsp_to_cvp(inst)  # the public fields, read on a twin
            gram = fields.gram.data
            for _ in range(5):
                j = [rng.randint(-4, 4) for _ in range(inst.n)]
                assert c.objective(j) == naive_form(gram, list(fields.offset), j)
            assert "gram" not in vars(c)
            scaled += any(e.denominator > 1 for u in (inst.fixed, *inst.rest) for e in u)
        assert scaled >= 10

    def test_hot_path_adjugate_free(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("an adjugate on the stored route")

        for name in ("adjugate_spd", "_adjugate"):
            monkeypatch.setattr(cvp, name, refuse)
        for name in ("_adjugate_lower", "_adjugate_row", "_adjugate_diagonal"):
            monkeypatch.setattr(qlinalg, name, refuse)  # no adjugate row either
        for inst in mixed_instances(239):
            c = mdsp_to_cvp(inst)
            sol = enumerate_cvp(c)
            d = recover_mdsp_distance_sq(c, sol.j)
            assert "gram" not in vars(c) and "offset" not in vars(c)
            assert d == dist_sq_to_span(inst.fixed, apply_shift(inst, sol.j).vectors)
            assert sol.j == solve_exact(inst).x
        with pytest.raises(AssertionError):
            c.gram  # built from the stored record by _adjugate



def hand_built_forms(seed, count=8):
    """Positive definite rational forms A^T A with rational offsets and
    scale_sq, of order 1 to 4, built from their fields."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        n = rng.randint(1, 4)
        a = QMatrix([[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                     for _ in range(n)])
        if determinant(a) == 0:
            continue
        offset = QVector([F(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n)])
        forms.append(CVPGramInstance(a.transpose() @ a, offset,
                                     F(rng.randint(1, 50), rng.randint(1, 9))))
    return forms


class TestHandBuiltRecord:
    """A hand-built form is checked and bordered when it is built and
    stores that record; every objective, enumeration and recovery reads
    it, and nothing a caller sees of the instance depends on it."""

    def test_recovery_rejects_forms_that_are_not_definite(self):
        # unchecked, the first two recovered a "distance^2" of -1 and
        # divided by zero; the third is not symmetric. The constructor
        # refuses all three, so no instance exists to recover from
        for gram in ([[1, 2], [2, 1]], [[-1]], [[2, 1], [0, 2]]):
            with pytest.raises(NotSPD):
                CVPGramInstance(QMatrix(gram), QVector([0] * len(gram)), F(1))

    def test_value_semantics_unchanged_by_the_record(self):
        rng = random.Random(241)
        for c in hand_built_forms(241):
            assert "_primal" in vars(c)
            js = [tuple(rng.randint(-4, 4) for _ in range(c.n)) for _ in range(4)]
            twin = CVPGramInstance(c.gram, c.offset, c.scale_sq)
            for other in (twin, copy.copy(c), pickle.loads(pickle.dumps(c)),
                          dataclasses.replace(c)):
                assert other == c and c == other and hash(other) == hash(c)
                assert repr(other) == repr(c)
                assert "_primal" in vars(other) and other.n == c.n
                assert [other.objective(j) for j in js] == [c.objective(j) for j in js]
                assert enumerate_cvp(other) == enumerate_cvp(c)
            assert [type(c.objective(j)) for j in js] == [F] * len(js)
            sol = enumerate_cvp(c)
            assert sol.objective == c.objective(sol.j)
            assert sol.objective == naive_form(c.gram.data, list(c.offset), sol.j)

    def test_enumeration_then_recovery_borders_once(self, monkeypatch):
        calls = []

        def counting(c):
            calls.append(c)
            return bordered(c)

        bordered = cvp._bordered
        monkeypatch.setattr(cvp, "_bordered", counting)
        forms = hand_built_forms(251)
        assert len(calls) == len(forms)  # one per constructor call
        assert all(a is b for a, b in zip(calls, forms))
        calls.clear()
        for c in forms:
            sol = enumerate_cvp(c)
            got = recover_mdsp_distance_sq(c, sol.j)
            assert got == c.scale_sq / (1 + c.scale_sq * sol.objective)
            assert enumerate_cvp(c) == sol
        assert calls == []
