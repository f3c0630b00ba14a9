import copy
import dataclasses
import pickle
import random
import time
from fractions import Fraction as F
from math import prod

import pytest

from latkit import exact
from latkit.cvp import (
    CVPGramInstance,
    enumerate_cvp,
    mdsp_to_cvp,
    recover_mdsp_distance_sq,
)
from latkit.errors import DegenerateFixedVector, DependentInput, SingularMatrix
from latkit.exact import (
    MDSPSolution,
    shift_dist_sq,
    shift_ranges,
    solve_exact,
)
from latkit.lattice import LatticeBasis, MDSPInstance, apply_shift
from latkit.qlinalg import QMatrix, QVector
from oracles import (
    brute_force_mdsp,
    cvp_exhaustive,
    naive_det,
    naive_dist_sq,
    random_mdsp_vectors,
    vdot,
)


def make_instance(v, basis):
    return MDSPInstance(QVector(v), LatticeBasis([QVector(b) for b in basis]))


E1 = make_instance([0, 2], [[1, 1]])
ORTHO = make_instance([0, 1], [[1, 0]])
DIM3 = make_instance([0, 0, 3], [[1, 0, 1], [0, 1, 2]])


def scaled_instances(seed, count):
    """Random instances of dimension 2 to 5; every other one has each vector
    over its own denominator, so that its stored rows are scaled by s > 1."""
    rng = random.Random(seed)
    for k in range(count):
        v, basis = random_mdsp_vectors(rng, rng.randint(2, 5))
        if k % 2:
            dens = [rng.randint(2, 6)] + [rng.randint(1, 6) for _ in basis]
            v = [e / dens[0] for e in v]
            basis = [[e / den for e in b] for b, den in zip(basis, dens[1:])]
        yield make_instance(v, basis)


def line_proj_sq(v, b):
    return v.dot(b) ** 2 / b.norm_sq()


def projection_sq(inst):
    """p^2 = |proj(v, span B)|^2 as shift_ranges reads it: |v|^2 minus
    shift_dist_sq at x = 0."""
    return inst.fixed.norm_sq() - shift_dist_sq(inst, [0] * inst.n)


class TestProjectionLength:
    def test_worked(self):
        assert projection_sq(E1) == 2

    def test_orthogonal(self):
        assert projection_sq(ORTHO) == 0

    def test_orthogonal_dim2(self):
        inst = make_instance([0, 2], [[1, 0]])
        assert projection_sq(inst) == 0

    def test_matches_projection(self):
        # the instance stream of the criterion-1 corpus, then rational
        # instances made from it by scaling each ambient coordinate
        rng = random.Random(20260811)
        for k in range(300):
            v, basis = random_mdsp_vectors(rng, 2 + k % 3)
            if k % 2:
                d = [F(rng.randint(1, 7), rng.randint(1, 7)) for _ in v]
                v = [a * b for a, b in zip(v, d)]
                basis = [[a * b for a, b in zip(w, d)] for w in basis]
            inst = make_instance(v, basis)
            want = vdot(v, v) - naive_dist_sq(v, basis)
            assert projection_sq(inst) == want


class TestStoredFormDistances:
    def test_against_gram_schmidt_oracle(self):
        # shift_dist_sq, at x = 0 too, reads the stored form; the
        # oracle projects B(x) by plain Gram-Schmidt, on integer, rational
        # (scale > 1) and non-full-dimensional (n + 1 < dim) instances
        rng = random.Random(179)
        kinds = {
            "integer": lambda n: (n + 1, lambda: rng.randint(-9, 9)),
            "rational": lambda n: (n + 1, lambda: F(rng.randint(-9, 9), rng.randint(1, 8))),
            "sub-dimensional": lambda n: (n + 1 + rng.randint(1, 3), lambda: rng.randint(-9, 9)),
        }
        for kind, shape in kinds.items():
            checked = 0
            while checked < 12:
                n = rng.randint(1, 5)
                dim, entry = shape(n)
                rows = [[entry() for _ in range(dim)] for _ in range(n + 1)]
                try:
                    inst = make_instance(rows[0], rows[1:])
                except DependentInput:
                    continue
                assert (inst._primal()[1] > 1) == (kind == "rational")  # the scale
                v = inst.fixed.entries
                for _ in range(3):
                    x = [rng.randint(-4, 4) for _ in range(n)]
                    shifted = [b.entries for b in apply_shift(inst, x).vectors]
                    assert shift_dist_sq(inst, x) == naive_dist_sq(v, shifted)
                rest = [b.entries for b in inst.rest.vectors]
                assert shift_dist_sq(inst, [0] * n) == naive_dist_sq(v, rest)
                checked += 1


class TestShiftRanges:
    def test_worked(self):
        r = shift_ranges(E1)
        assert r.alpha == (F(1, 2),)
        assert r.s == (-1,) and r.t == (0,)

    def test_orthogonal_is_zero_range(self):
        r = shift_ranges(ORTHO)
        assert r.alpha == (0,)
        assert r.beta_sq_bound == (0,)
        assert r.s == (0,) and r.t == (0,)

    def test_exclusion_at_one(self):
        # x = 1 lies outside [-1, 0]; its line projection must exceed p
        v = E1.fixed
        b = apply_shift(E1, (1,)).vectors[0]
        assert b == QVector([1, 3])
        assert line_proj_sq(v, b) == F(18, 5)
        assert F(18, 5) > projection_sq(E1)

    def test_zero_fixed_vector(self):
        inst = MDSPInstance(
            QVector([0, 0]),
            LatticeBasis([QVector([1, 0])]),
            validate=False,
        )
        with pytest.raises(DegenerateFixedVector):
            shift_ranges(inst)

    def test_range_soundness(self):
        # every integer outside [s_i, t_i] projects strictly beyond p
        rng = random.Random(47)
        for _ in range(40):
            ambient = rng.randint(2, 4)
            v, basis = random_mdsp_vectors(rng, ambient)
            inst = make_instance(v, basis)
            p_sq = projection_sq(inst)
            if p_sq == 0:
                continue
            r = shift_ranges(inst)
            for i, b in enumerate(inst.rest.vectors):
                for x in list(range(r.s[i] - 5, r.s[i])) + list(
                    range(r.t[i] + 1, r.t[i] + 6)
                ):
                    line = b + inst.fixed.scaled(x)
                    assert line_proj_sq(inst.fixed, line) > p_sq

    def test_zero_always_inside(self):
        rng = random.Random(53)
        for _ in range(40):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 4)))
            r = shift_ranges(inst)
            assert all(s <= 0 <= t for s, t in zip(r.s, r.t))


class TestSolveExact:
    def test_worked_tie_break(self):
        sol = solve_exact(E1)
        assert sol.x == (-1,)
        assert sol.dist_sq == 2

    def test_orthogonal_short_circuit(self):
        sol = solve_exact(ORTHO)
        assert sol.x == (0,)
        assert sol.dist_sq == 1
        v = [0, 0, 0, F(3, 2)]
        inst = make_instance(v, [[1, 2, 0, 0], [0, F(1, 3), 5, 0], [2, 0, 1, 0]])
        sol = solve_exact(inst)
        assert sol.x == (0, 0, 0)
        assert sol.dist_sq == F(9, 4)

    def test_zero_fixed_vector(self):
        inst = MDSPInstance(
            QVector([0, 0]), LatticeBasis([QVector([1, 0])]), validate=False
        )
        with pytest.raises(DegenerateFixedVector):
            solve_exact(inst)

    def test_dependent_input(self):
        # v in span(B); B itself dependent; the same with rational entries
        cases = [
            ([1, 1, 0], [[1, 0, 0], [0, 1, 0]]),
            ([0, 0, 1], [[1, 2, 0], [2, 4, 0]]),
            ([F(1, 2), 0, F(1, 3)], [[F(3, 2), 0, 1], [0, F(1, 5), 0]]),
        ]
        for v, basis in cases:
            inst = MDSPInstance.from_vectors(v, basis, validate=False)
            with pytest.raises(SingularMatrix):
                solve_exact(inst)

    def test_larger_n_frozen(self):
        # n = 7..10, each instance as drawn and then with each vector over
        # its own denominator (scale > 1); frozen from the enumeration on
        # the LDL^T of the CVP form M = adj(G)[:n, :n]
        want = {
            (7, False): ((1, 0, 1, 0, 0, -1, 0), F(20762792649, 850213750)),
            (7, True): ((0, 0, 1, 0, 0, 0, 0), F(20762792649, 10828338907)),
            (8, False): ((-1, 1, 1, -1, 0, 0, 1, -1), F(752941469284, 37662575847)),
            (8, True): ((0, 1, 0, -1, 1, -1, 0, -1), F(3011765877136, 914164201567)),
            (9, False): ((0,) * 9, F(1434451465467409, 34653075392548)),
            (9, True): ((0,) * 9, F(1434451465467409, 138612301570192)),
            (10, False): ((-1, -1, 0, -1, 0, -1, 0, 1, 0, 1),
                          F(84974115620704203, 2808146123997428)),
            (10, True): ((0, 0, 0, -1, 0, -1, 2, 0, 0, 0),
                         F(9441568402300467, 4464813733484627)),
        }
        rng = random.Random(241)
        for n in (7, 8, 9, 10):
            v, basis = random_mdsp_vectors(rng, n + 1)
            dens = [rng.randint(2, 6)] + [rng.randint(1, 6) for _ in basis]
            rational = (
                [e / dens[0] for e in v],
                [[e / den for e in b] for b, den in zip(basis, dens[1:])],
            )
            for is_rational, (vv, bb) in ((False, (v, basis)), (True, rational)):
                inst = make_instance(vv, bb)
                sol = solve_exact(inst)
                assert (sol.x, sol.dist_sq) == want[n, is_rational]
                assert sol.basis == apply_shift(inst, sol.x)
                assert naive_dist_sq(vv, [b.entries for b in sol.basis.vectors]) == sol.dist_sq
                c = mdsp_to_cvp(inst)
                j = enumerate_cvp(c).j
                assert (j, recover_mdsp_distance_sq(c, j)) == (sol.x, sol.dist_sq)

    def test_larger_n_tie(self):
        # b_i = a_i e_0 + e_{i+1} and v = 2 e_0 with every a_i odd: each
        # x_i ties between -(a_i + 1) / 2 and -(a_i - 1) / 2, 2^7 maximizers,
        # and the lexicographically smallest is the first of each pair
        a = (1, 3, -1, 5, 1, -3, 1)
        v = [2] + [0] * 7
        basis = [[ai] + [int(j == i) for j in range(7)] for i, ai in enumerate(a)]
        x = tuple(-(ai + 1) // 2 for ai in a)
        for k in (1, 3):  # integral, then the whole lattice over 3
            vk = [F(e, k) for e in v]
            bk = [[F(e, k) for e in b] for b in basis]
            sol = solve_exact(make_instance(vk, bk))
            assert (sol.x, sol.dist_sq) == (x, F(1, 2 * k * k))
            for i in range(7):
                other = list(x)
                other[i] += 1
                shifted = [b.entries for b in apply_shift(make_instance(vk, bk), other).vectors]
                assert naive_dist_sq(vk, shifted) == sol.dist_sq

    def test_no_dimension_cap(self):
        # n = 7; frozen from an exhaustive scan of its 2187-point shift box
        c = [1, 0, 0, -1, 0, 1, 0]
        basis = []
        for i in range(7):
            b = [c[i]] + [0] * 7
            b[i + 1] = 1
            if i + 2 <= 7:
                b[i + 2] = 1 if i % 2 == 0 else -1
            basis.append(b)
        sol = solve_exact(make_instance([20] + [0] * 7, basis))
        assert sol.x == (0,) * 7
        assert sol.dist_sq == 25

    def test_dim3_frozen(self):
        # frozen from an independent brute-force scan over [-10, 10]^2
        sol = solve_exact(DIM3)
        assert sol.x == (0, -1)
        assert sol.dist_sq == 3

    def test_solution_invariants(self):
        rng = random.Random(59)
        for _ in range(25):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 4)))
            sol = solve_exact(inst)
            v = inst.fixed.entries
            assert sol.dist_sq == naive_dist_sq(v, [b.entries for b in sol.basis.vectors])
            assert sol.dist_sq >= naive_dist_sq(v, [b.entries for b in inst.rest.vectors])

    def test_oracle_equivalence_small(self):
        rng = random.Random(61)
        checked = 0
        while checked < 15:
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 3)))
            r = shift_ranges(inst)
            width = max(max(abs(s) for s in r.s), max(abs(t) for t in r.t))
            window = 3 * width
            if (2 * window + 1) ** inst.n > 3000:
                continue
            best_d, _ = brute_force_mdsp(
                inst.fixed.entries,
                [b.entries for b in inst.rest.vectors],
                window,
            )
            assert solve_exact(inst).dist_sq == best_d
            checked += 1

    def test_invariance_under_preshift(self):
        rng = random.Random(67)
        for _ in range(15):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 4)))
            x0 = tuple(rng.randint(-3, 3) for _ in range(inst.n))
            shifted_inst = MDSPInstance(inst.fixed, apply_shift(inst, x0))
            assert solve_exact(inst).dist_sq == solve_exact(shifted_inst).dist_sq

    def test_gram_and_direct_agree(self):
        rng = random.Random(71)
        for _ in range(15):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 4)))
            x = tuple(rng.randint(-4, 4) for _ in range(inst.n))
            naive = naive_dist_sq(
                inst.fixed.entries,
                [b.entries for b in apply_shift(inst, x).vectors],
            )
            assert shift_dist_sq(inst, x) == naive
            # the certified box lies inside the window, so the scan is global
            r = shift_ranges(inst)
            window = max(max(map(abs, r.s)), max(map(abs, r.t)))
            best_d, best_x = brute_force_mdsp(
                inst.fixed.entries, [b.entries for b in inst.rest.vectors], window
            )
            sol = solve_exact(inst)
            assert (sol.x, sol.dist_sq) == (best_x, best_d)

    def test_integer_outputs_match_public_route(self):
        # B(x), on its first read, and d^2 come from integer rows scaled
        # once; it equals b_i + x_i v summed in Fractions, repr included
        scaled = 0
        for inst in scaled_instances(229, 24):
            sol = solve_exact(inst)
            v = inst.fixed.entries
            shifted = apply_shift(inst, sol.x)
            eager = LatticeBasis([QVector([e + xi * f for e, f in zip(b.entries, v)])
                                  for b, xi in zip(inst.rest.vectors, sol.x)])
            assert sol.basis == shifted == eager
            assert repr(sol.basis) == repr(shifted) == repr(eager)
            assert sol.basis is sol.basis  # built once
            assert sol.dist_sq == naive_dist_sq(v, [b.entries for b in shifted.vectors])
            assert type(sol.dist_sq) is F
            scaled += inst._primal()[1] > 1
        assert scaled == 12

    def test_large_box_regression(self):
        v = (7, 5, -16, -3)
        basis = [(10, 5, -8, 2), (14, 3, 13, 12), (-2, -11, 5, -17)]
        inst = make_instance(v, basis)
        r = shift_ranges(inst)
        assert prod(t - s + 1 for s, t in zip(r.s, r.t)) == 9_952_072_800
        t0 = time.perf_counter()
        sol = solve_exact(inst)
        assert time.perf_counter() - t0 < 10.0  # takes about 3 ms
        assert sol.x == (1, 5, -6)
        assert sol.dist_sq == F(5041, 651)
        shifted = [b.entries for b in sol.basis.vectors]
        assert naive_dist_sq(v, shifted) == sol.dist_sq
        # no shift within +-1 of x does better
        assert brute_force_mdsp(v, shifted, 1)[0] == sol.dist_sq


class TestLazyBasis:
    """solve_exact stores the scaled rows, not B(x), and builds basis on
    its first read; nothing a caller sees of the solution depends on when
    that read comes."""

    def test_no_basis_until_read(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("B(x) built before basis was read")

        monkeypatch.setattr(exact, "rational_vectors", refuse)
        for inst in scaled_instances(251, 12):
            sol = solve_exact(inst)
            assert "basis" not in vars(sol)
            assert sol.dist_sq == shift_dist_sq(inst, sol.x)
            with pytest.raises(AssertionError):
                sol.basis

    def test_unread_and_read_agree(self):
        for inst in scaled_instances(263, 8):
            read = solve_exact(inst)
            read.basis
            assert solve_exact(inst) == read and read == solve_exact(inst)
            assert hash(solve_exact(inst)) == hash(read)
            assert repr(solve_exact(inst)) == repr(read)
            assert dataclasses.replace(solve_exact(inst)) == read
            twins = [copy.copy(solve_exact(inst)), copy.deepcopy(solve_exact(inst))]
            twins += [pickle.loads(pickle.dumps(solve_exact(inst), protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in twins:
                assert "basis" not in vars(twin)
                assert twin == read and hash(twin) == hash(read) and repr(twin) == repr(read)
            for twin in (copy.copy(read), copy.deepcopy(read), pickle.loads(pickle.dumps(read))):
                assert twin == read and hash(twin) == hash(read)

    def test_missing_attribute(self):
        sol = solve_exact(E1)
        direct = MDSPSolution(sol.x, sol.dist_sq, apply_shift(E1, sol.x))
        for obj in (solve_exact(E1), direct):
            assert not hasattr(obj, "nope")
            with pytest.raises(AttributeError) as e:
                obj.nope
            assert str(e.value) == "'MDSPSolution' object has no attribute 'nope'"
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.x = (0,)
        unread = solve_exact(E1)
        assert not hasattr(unread, "nope") and "basis" not in vars(unread)

    def test_public_constructor(self):
        basis = LatticeBasis([QVector([1, -1])])  # (1, 1) - (0, 2)
        sol = MDSPSolution((-1,), F(2), basis)
        assert sol.basis is basis and set(vars(sol)) == {"x", "dist_sq", "basis"}
        assert sol == solve_exact(E1) and hash(sol) == hash(solve_exact(E1))
        assert repr(sol) == (
            "MDSPSolution(x=(-1,), dist_sq=Fraction(2, 1), "
            "basis=LatticeBasis([QVector([Fraction(1, 1), Fraction(-1, 1)])]))"
        )
        assert repr(sol) == repr(solve_exact(E1))
        assert pickle.loads(pickle.dumps(sol)) == sol == copy.deepcopy(sol)
        assert dataclasses.replace(sol, dist_sq=F(3)).basis is basis
        assert {sol: 1}[solve_exact(E1)] == 1


class TestTiesThroughThePublicRoutes:
    """solve_exact and enumerate_cvp against the scans of oracles.py, on
    instances with entries in +-3, where many maximizers tie.

    The mirror (v, -B) has the negated maximizers of (v, B), since
    -b_i + y_i v = -(b_i - y_i v); so its lexicographically smallest is
    minus the largest of (v, B), and the two differ exactly on a tie. The
    same holds for a form with its offset negated.
    """

    def test_smallest_maximizer_on_small_entries(self):
        rng = random.Random(311)
        checked = ties = scanned = 0
        while checked < 40:
            n = 1 + checked % 4
            v, basis = random_mdsp_vectors(rng, n + 1, bound=3)
            r = shift_ranges(make_instance(v, basis))
            window = max(max(map(abs, r.s)), max(map(abs, r.t)))
            if (2 * window + 1) ** n > 700:
                continue
            smallest = []
            for sign in (1, -1):
                mirrored = [[sign * e for e in b] for b in basis]
                inst = make_instance(v, mirrored)
                best_d, best_x = brute_force_mdsp(v, mirrored, window)
                sol = solve_exact(inst)
                assert (sol.x, sol.dist_sq) == (best_x, best_d)
                c = mdsp_to_cvp(inst)
                scan = cvp_exhaustive(
                    [list(row) for row in c.gram.data], list(c.offset.entries), 5000
                )
                cvp_sol = enumerate_cvp(c)
                assert cvp_sol.j == best_x
                if scan is not None:  # None: certified window over budget
                    assert (cvp_sol.j, cvp_sol.objective) == (scan[1], scan[0])
                    scanned += 1
                smallest.append(best_x)
            ties += smallest[0] != tuple(-xi for xi in smallest[1])
            checked += 1
        assert ties >= 5 and scanned >= 60

    def test_smallest_minimizer_of_hand_built_forms(self):
        # Gram matrices A^T A with A in +-3 and offsets in halves
        rng = random.Random(313)
        checked = ties = 0
        while checked < 24:
            n = 1 + checked % 4
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            gram = [[sum(r[i] * r[k] for r in a) for k in range(n)] for i in range(n)]
            if naive_det(gram) == 0:
                continue
            halves = [F(rng.randint(-3, 3), 2) for _ in range(n)]
            offsets = [halves, [-h for h in halves]]
            scans = [cvp_exhaustive(gram, offset, 5000) for offset in offsets]
            if None in scans:  # certified window over budget
                continue
            smallest = []
            for offset, scan in zip(offsets, scans):
                sol = enumerate_cvp(CVPGramInstance(QMatrix(gram), QVector(offset), F(1)))
                assert (sol.j, sol.objective) == (scan[1], scan[0])
                smallest.append(sol.j)
            ties += smallest[0] != tuple(-ji for ji in smallest[1])
            checked += 1
        assert ties >= 12

    @pytest.mark.parametrize("v, basis, want, later", [
        # the first dive ends at (0, 1, 1), T = 697; below x_2 = 0, x_1 = 0
        # the leaf (0, 0, 0) lowers the best to T = 450, and its later
        # sibling (-1, 0, 0), at T = 487, is still under the limit that
        # level was entered with
        ((-1, -3, -2, 0), [(0, 1, -3, 0), (1, 1, 0, -3), (3, 2, 0, -3)],
         (0, 0, 0), [(-1, 0, 0)]),
        # the first dive ends at (2, 0), T = 9; its later siblings (1, 0) at
        # T = 11 and (0, 0) at T = 17 are lexicographically smaller
        ((-1, 3, -3), [(2, 0, 3), (0, 1, -1)], (2, 0), [(1, 0), (0, 0)]),
        # (-1, 1) and (-1, 2) tie at T = 9; after (-1, 1) takes the best,
        # (-2, 1) and, below x_1 = 2, (-2, 2) at T = 10 must lose
        ((0, 1, -1), [(3, 1, -1), (0, -1, 2)], (-1, 1), [(-2, 1), (-2, 2)]),
    ])
    def test_prune_reads_the_best_at_every_candidate(self, v, basis, want, later):
        # A search that reads best_T d_{k+1} once per level prunes these
        # later leaves against the best at the level's entry, which a leaf
        # below it has since lowered; they pass and then win the
        # lexicographic test on a larger T.
        inst = make_instance(v, basis)
        sol = solve_exact(inst)
        assert sol.x == want
        assert brute_force_mdsp(v, basis, 4) == (sol.dist_sq, want)
        assert all(x < want and shift_dist_sq(inst, x) < sol.dist_sq for x in later)
        c = mdsp_to_cvp(inst)
        assert enumerate_cvp(c).j == want
        hand_built = CVPGramInstance(c.gram, c.offset, c.scale_sq)
        assert enumerate_cvp(hand_built).j == want
