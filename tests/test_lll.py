import random
import warnings
from fractions import Fraction as F

import pytest

from latkit.bench import bench_compare
from latkit.errors import DependentInput
from latkit.heuristic import improve_pass
from latkit.lattice import LatticeBasis, MDSPInstance
from latkit.lll import (
    AccelConfig,
    LLLParams,
    ReductionTrace,
    _lll_rows,
    accelerated_reduce,
    lll_reduce,
    shortest_basis_vector,
)
from latkit.qlinalg import (
    QMatrix,
    QVector,
    _eliminate_gram,
    integer_gram,
    integer_rows,
    rel_volume_sq,
)
from oracles import (
    is_lll_reduced,
    minkowski_holds,
    naive_det,
    naive_dist_sq,
    naive_same_lattice,
    textbook_lll,
)


def qv(*entries):
    return QVector(entries)


def random_basis(rng, dim, bound=9):
    while True:
        rows = [
            [rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)
        ]
        m = QMatrix(rows)
        if naive_det(m.data) != 0:
            return LatticeBasis(m.row_vectors(), validate=False)


def rational_basis(rng, dim):
    """Nonsingular basis with non-integral entries of mixed denominators."""
    while True:
        rows = [
            [F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(dim)]
            for _ in range(dim)
        ]
        m = QMatrix(rows)
        if naive_det(m.data) != 0:
            return LatticeBasis(m.row_vectors(), validate=False)


def knapsack_basis(rng, dim, bits=30):
    """Rows e_i + a_i e_last for i < dim - 1, then N e_last."""
    rows = [
        [1 if j == i else 0 for j in range(dim - 1)] + [rng.getrandbits(bits)]
        for i in range(dim - 1)
    ]
    rows.append([0] * (dim - 1) + [rng.getrandbits(bits) | 1 << (bits - 1)])
    return LatticeBasis([QVector(r) for r in rows], validate=False)


# accelerated_reduce at delta 1/4 stops at a fixed point above the delta
# 99/100 target on this basis, after 3 rounds
STALLING_ROWS = [
    [12, 18, -24, -5, -8, -26, -1],
    [-20, 4, -3, -22, -16, 12, -15],
    [-7, 13, 1, -18, 13, 12, -7],
    [-16, 21, -1, -19, -28, 13, 17],
    [1, -21, -1, 15, 15, -4, 14],
    [26, -18, -29, 18, 23, 4, -1],
    [15, 21, 19, 30, -17, 4, -19],
]


# operations 14 and 164 of the benchmark's reduce workload at seed 101
# (uniform, dimension 14): accelerated_reduce at delta 1/4 stops above the
# delta 99/100 target there too, after 5 and 11 rounds
STALLING_OP14_ROWS = [
    [48, -14, 85, -65, -50, 97, 85, -39, -22, 75, -1, -31, -66, 91],
    [-99, -85, -63, -96, 1, -20, 63, 83, 43, 67, -26, -85, -84, 67],
    [-7, 60, 7, -35, -93, 41, -4, -14, 89, 71, 39, 36, -60, -85],
    [19, 94, -19, -65, 80, 72, 55, -54, 77, -86, -47, 17, -67, -34],
    [-5, -72, -46, -8, -31, -13, 76, 62, 60, 91, 13, 81, 78, -36],
    [-21, 21, -39, 0, 91, -83, 25, -48, -97, -90, -4, -13, -41, 62],
    [-42, -76, 66, -26, 59, 10, 7, 64, -97, 67, 21, -54, -83, -97],
    [41, 22, -40, 59, -37, 0, -97, 95, 37, -38, 30, -9, -4, 74],
    [-54, -70, 54, 65, 26, -61, 29, -48, 36, -72, 16, 31, 8, 35],
    [10, 12, -24, -5, -82, 4, 98, 20, -80, 82, -83, -86, -17, -8],
    [95, -25, -9, 5, -50, 83, -10, -43, 74, 83, -48, 99, 30, -60],
    [46, 47, 13, 35, 69, 37, -16, 71, 11, -27, -50, -93, -77, 7],
    [87, 89, 31, -80, -24, 77, 8, 0, -78, -6, -20, -79, 56, 93],
    [43, 23, 45, 1, -80, 60, -59, -96, -51, -5, -8, 38, -79, -16],
]
STALLING_OP164_ROWS = [
    [-26, 44, 55, 42, 66, 62, 62, 75, -25, -68, 90, 99, 80, 87],
    [-58, 37, -72, -1, 52, 13, -30, 79, -24, 97, -39, -100, -9, 23],
    [-52, 47, -73, -8, 49, -57, -29, -29, -61, -75, 47, 65, 25, -26],
    [99, 55, -22, 24, 40, 73, -82, 63, -84, 51, 48, -53, 91, -97],
    [-43, 29, -12, 97, 45, 84, -68, -27, 18, 42, -1, 37, -79, 87],
    [-34, 61, -64, -100, 12, -67, -46, -76, -88, -17, -14, -81, 68, -74],
    [81, -55, 37, 34, 32, 9, -16, -88, -75, -34, -10, 2, -30, -33],
    [-49, 71, -44, -60, -41, -42, -48, 86, 54, 66, -13, 71, 5, 64],
    [-66, 0, -83, 55, 76, -48, 93, -73, -32, 74, -85, 90, -7, -74],
    [-68, -2, 94, 52, 17, 22, 65, -81, -97, 37, -77, -9, 54, -4],
    [18, 75, -87, -55, 82, -39, 12, -51, -54, -95, 90, 17, -77, 81],
    [41, 30, -24, -11, -39, -73, 78, 58, -66, 81, 89, 58, -95, 95],
    [-34, -100, 37, -37, 25, -5, 99, -60, -60, 93, -86, -21, 17, 66],
    [97, -46, 19, -68, -43, -54, 67, 98, 78, 51, 93, -73, 35, -23],
]


def rows_of(basis: LatticeBasis):
    return [v.entries for v in basis.vectors]


class TestParams:
    def test_quarter_warns(self):
        # a plain reduction at 1/4 warns, naming the caller's line
        basis = LatticeBasis([qv(1, 1), qv(1, 0)])
        with pytest.warns(UserWarning, match="delta = 1/4") as record:
            lll_reduce(basis, LLLParams(F(1, 4)))
        assert [w.filename for w in record] == [__file__]

    def test_quarter_warns_only_where_plain_lll_answers(self):
        # delta_low = 1/4 is the accelerated arm's setting: constructing it,
        # running the arm and benchmarking it are silent; only lll_reduce,
        # whose output is the 1/4-reduced basis, warns
        basis = LatticeBasis([qv(9, 2, 7), qv(4, 8, 1), qv(3, 3, 6)])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            low = LLLParams(F(1, 4))
            cfg = AccelConfig(low, F(1))
            accelerated_reduce(basis, cfg)
            bench_compare([3], 1, F(1, 4), F(99, 100), seed=3, entry_bound=5)
            assert not [w for w in record if issubclass(w.category, UserWarning)]
            lll_reduce(basis, low)
        assert [(w.category, w.filename) for w in record] == [(UserWarning, __file__)]
        assert "delta = 1/4" in str(record[0].message)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            LLLParams(F(1, 5))
        with pytest.raises(ValueError):
            LLLParams(F(1))

    def test_accepts_strings(self):
        assert LLLParams("3/4").delta == F(3, 4)


class TestLLL:
    def test_identity_unchanged(self):
        basis = LatticeBasis([qv(1, 0), qv(0, 1)])
        out, trace = lll_reduce(basis, LLLParams(F(3, 4)))
        assert out.vectors == basis.vectors
        assert trace.swap_count == 0
        assert trace.size_reduction_count == 0

    def test_worked_example(self):
        basis = LatticeBasis([qv(1, 1), qv(1, 0)])
        out, trace = lll_reduce(basis, LLLParams(F(3, 4)))
        assert out.vectors == (qv(1, 0), qv(0, 1))
        assert trace.swap_count == 1
        assert trace.size_reduction_count == 1
        assert trace.final_shortest_norm_sq == 1

    def test_postconditions_random(self):
        rng = random.Random(139)
        for _ in range(15):
            dim = rng.randint(2, 10)
            basis = random_basis(rng, dim)
            delta = rng.choice([F(3, 4), F(99, 100), F(1, 2)])
            out, _ = lll_reduce(basis, LLLParams(delta))
            assert is_lll_reduced(rows_of(out), delta)
            assert naive_same_lattice(rows_of(basis), rows_of(out))

    def test_matches_textbook_implementation(self):
        rng = random.Random(149)
        bases = [random_basis(rng, rng.randint(2, 6), bound=7) for _ in range(12)]
        bases += [rational_basis(rng, rng.randint(2, 5)) for _ in range(6)]
        bases += [knapsack_basis(rng, dim) for dim in (3, 4, 5, 6)]
        for basis in bases:
            delta = rng.choice([F(3, 4), F(9, 10), F(99, 100)])
            out, _ = lll_reduce(basis, LLLParams(delta))
            ref = textbook_lll([list(v.entries) for v in basis.vectors], delta)
            assert [tuple(v.entries) for v in out.vectors] == ref

    def test_returned_data_is_the_gram_elimination(self):
        # the invariant accelerated_reduce's first sweep state starts from:
        # LLL's (d, lam), lam by columns, is the (d, lam) of the record
        rng = random.Random(163)
        bases = [random_basis(rng, rng.randint(2, 12), bound=30) for _ in range(8)]
        bases += [rational_basis(rng, rng.randint(2, 6)) for _ in range(4)]
        bases += [knapsack_basis(rng, dim) for dim in (4, 8, 12)]
        for basis in bases:
            for p, q in ((1, 4), (99, 100)):
                rows, _ = integer_rows(basis.vectors)
                d, lam = _lll_rows(rows, p, q, ReductionTrace())
                assert (d, lam) == _eliminate_gram(integer_gram(rows))[:2]

    def test_dependent_input_raises(self):
        dependent = [
            [qv(1, 2), qv(2, 4)],
            [qv(0, 0, 0), qv(1, 0, 0)],
            [qv(3, 1, 4), qv(1, 5, 9), qv(4, 6, 13)],
            [qv(F(1, 2), 1, 0), qv(1, 2, 0), qv(0, 0, 1)],
        ]
        for vecs in dependent:
            with pytest.raises(DependentInput):
                lll_reduce(LatticeBasis(vecs, validate=False), LLLParams(F(3, 4)))

    def test_det_invariant(self):
        rng = random.Random(151)
        for _ in range(10):
            basis = random_basis(rng, rng.randint(2, 6))
            out, _ = lll_reduce(basis, LLLParams(F(3, 4)))
            assert abs(naive_det(out.vectors)) == abs(naive_det(basis.vectors))

    def test_minkowski_one_sided(self):
        # the fixed bases are in test_lattice's TestMinkowski
        rng = random.Random(157)
        for _ in range(10):
            basis = random_basis(rng, rng.randint(2, 10))
            out, trace = lll_reduce(basis, LLLParams(F(3, 4)))
            assert minkowski_holds(rows_of(out), trace.final_shortest_norm_sq)


class TestShortest:
    def test_examples(self):
        assert shortest_basis_vector(LatticeBasis([qv(3, 0), qv(0, 2)])) == (
            qv(0, 2),
            F(4),
        )
        assert shortest_basis_vector(LatticeBasis([qv(1, 0), qv(0, 1)])) == (
            qv(1, 0),
            F(1),
        )

    def test_rational_basis(self):
        basis = LatticeBasis([qv(F(3, 2), F(1, 3)), qv(F(-1, 4), F(5, 6))])
        vec, norm = shortest_basis_vector(basis)
        assert vec is basis.vectors[1]
        assert norm == F(109, 144) and type(norm) is F
        rng = random.Random(71)
        for _ in range(10):
            basis = rational_basis(rng, rng.randint(2, 6))
            norms = [b.norm_sq() for b in basis.vectors]
            i = norms.index(min(norms))
            assert shortest_basis_vector(basis) == (basis.vectors[i], norms[i])

    def test_tied_norms_first_index_wins(self):
        basis = LatticeBasis([qv(0, 3, 4), qv(5, 0, 0), qv(0, 5, 0)])
        vec, norm = shortest_basis_vector(basis)
        assert vec is basis.vectors[0] and norm == 25
        basis = LatticeBasis([qv(2, 2, 1), qv(F(1, 2), 0, 0), qv(0, F(-1, 2), 0)])
        vec, norm = shortest_basis_vector(basis)
        assert vec is basis.vectors[1] and norm == F(1, 4)


class TestAccelerated:
    def test_immediate_target(self):
        basis = LatticeBasis([qv(1, 0), qv(0, 5)])
        cfg = AccelConfig(LLLParams(F(3, 4)), F(9))
        out, trace = accelerated_reduce(basis, cfg)
        assert trace.reached_target
        assert trace.rounds_used == 1
        assert trace.final_shortest_norm_sq <= 9

    def test_reaches_high_delta_quality(self):
        rng = random.Random(163)
        low = LLLParams(F(1, 4))
        for _ in range(6):
            dim = rng.randint(4, 8)
            basis = random_basis(rng, dim, bound=30)
            ref, ref_trace = lll_reduce(basis, LLLParams(F(99, 100)))
            cfg = AccelConfig(low, ref_trace.final_shortest_norm_sq)
            out, trace = accelerated_reduce(basis, cfg)
            assert trace.reached_target
            assert trace.final_shortest_norm_sq <= ref_trace.final_shortest_norm_sq
            assert naive_same_lattice(rows_of(basis), rows_of(out))

    def test_unreachable_target_flags(self):
        basis = LatticeBasis([qv(2, 0), qv(0, 2)])
        cfg = AccelConfig(LLLParams(F(3, 4)), F(1), max_rounds=3)
        out, trace = accelerated_reduce(basis, cfg)
        assert not trace.reached_target
        assert trace.rounds_used <= 3
        assert trace.final_shortest_norm_sq == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AccelConfig(LLLParams(F(3, 4)), F(0))
        with pytest.raises(ValueError):
            AccelConfig(LLLParams(F(3, 4)), F(1), max_rounds=0)
        for passes in (0, -1):
            with pytest.raises(ValueError):
                AccelConfig(LLLParams(F(3, 4)), F(1), heuristic_passes=passes)

    def test_integer_fields_reject_non_integers(self):
        # a float count used to pass construction: max_rounds=1.5 ran two
        # rounds, heuristic_passes=1.5 raised TypeError inside the run
        for field in ("max_rounds", "heuristic_passes"):
            for bad in (1.5, 2.0, F(3, 2), "2"):
                with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                    AccelConfig(LLLParams(F(3, 4)), F(1), **{field: bad})


def reference_accelerated(basis, cfg):
    """accelerated_reduce rebuilt from public calls: each round is lll_reduce,
    then improve_pass on each prefix i = n-1..1, up to heuristic_passes times."""
    vecs = list(basis.vectors)
    rounds = swaps = size_reductions = 0
    reached = False
    prev = None
    while rounds < cfg.max_rounds:
        rounds += 1
        reduced, tr = lll_reduce(LatticeBasis(vecs, validate=False), cfg.delta)
        swaps += tr.swap_count
        size_reductions += tr.size_reduction_count
        vecs = list(reduced.vectors)
        if tr.final_shortest_norm_sq <= cfg.target_norm_sq:
            reached = True
            break
        for i in range(len(vecs) - 1, 0, -1):
            inst = MDSPInstance(
                vecs[i], LatticeBasis(vecs[:i], validate=False), validate=False
            )
            for _ in range(cfg.heuristic_passes):
                inst, changed = improve_pass(inst)
                if not changed:
                    break
            vecs[:i] = inst.rest.vectors
        if min(v.norm_sq() for v in vecs) <= cfg.target_norm_sq:
            reached = True
            break
        if vecs == prev:
            break
        prev = list(vecs)
    shortest = min(v.norm_sq() for v in vecs)
    return tuple(vecs), rounds, swaps, size_reductions, reached, shortest


class TestAcceleratedEquivalence:
    def check(self, basis, passes=1, max_rounds=1000):
        low = LLLParams(F(1, 4))
        _, high = lll_reduce(basis, LLLParams(F(99, 100)))
        cfg = AccelConfig(
            low, high.final_shortest_norm_sq, max_rounds, heuristic_passes=passes
        )
        out, trace = accelerated_reduce(basis, cfg)
        got = (
            out.vectors,
            trace.rounds_used,
            trace.swap_count,
            trace.size_reduction_count,
            trace.reached_target,
            trace.final_shortest_norm_sq,
        )
        with warnings.catch_warnings():
            # the reference runs plain lll_reduce at 1/4, which warns
            warnings.simplefilter("ignore")
            want = reference_accelerated(basis, cfg)
        assert got == want
        return trace

    def test_uniform(self):
        rng = random.Random(173)
        for _ in range(6):
            self.check(random_basis(rng, rng.randint(4, 9), bound=30))

    def test_knapsack(self):
        rng = random.Random(179)
        for dim in (5, 7, 9):
            self.check(knapsack_basis(rng, dim))

    def test_rational(self):
        rng = random.Random(181)
        for _ in range(3):
            self.check(rational_basis(rng, rng.randint(3, 6)))

    def test_stall_above_target(self):
        basis = LatticeBasis([QVector(r) for r in STALLING_ROWS], validate=False)
        trace = self.check(basis)
        assert not trace.reached_target
        assert trace.rounds_used == 3

    def test_stalls_pinned_from_benchmark(self):
        cases = (
            (STALLING_OP14_ROWS, 5, 17155, 16407),
            (STALLING_OP164_ROWS, 11, 8533, 8315),
        )
        for rows, rounds, shortest, target in cases:
            basis = LatticeBasis([QVector(r) for r in rows], validate=False)
            _, high = lll_reduce(basis, LLLParams(F(99, 100)))
            assert high.final_shortest_norm_sq == target
            trace = self.check(basis)
            assert not trace.reached_target
            assert trace.rounds_used == rounds
            assert trace.final_shortest_norm_sq == shortest

    def test_two_heuristic_passes(self):
        rng = random.Random(191)
        for _ in range(4):
            self.check(random_basis(rng, rng.randint(4, 9), bound=30), passes=2)
        basis = LatticeBasis([QVector(r) for r in STALLING_ROWS], validate=False)
        self.check(basis, passes=2)

    def test_round_cap(self):
        rng = random.Random(193)
        for _ in range(3):
            self.check(random_basis(rng, rng.randint(5, 9), bound=30), max_rounds=1)


def det_identity_holds(inst):
    """det([v|B])^2 = relvol^2(B) * dist^2(v, span(B)), checked exactly."""
    lhs = naive_det(inst.full_matrix().data) ** 2
    rhs = rel_volume_sq(inst.rest.vectors) * naive_dist_sq(
        inst.fixed.entries, [b.entries for b in inst.rest.vectors]
    )
    return lhs == rhs


class TestDetIdentity:
    def test_worked(self):
        inst = MDSPInstance.from_vectors([0, 2], [[1, 1]])
        assert det_identity_holds(inst)

    def test_orthogonal(self):
        inst = MDSPInstance.from_vectors([0, 1], [[1, 0]])
        assert det_identity_holds(inst)

    def test_random(self):
        from oracles import random_mdsp_vectors

        rng = random.Random(167)
        for _ in range(20):
            v, basis = random_mdsp_vectors(rng, rng.randint(2, 5))
            inst = MDSPInstance.from_vectors(v, basis)
            assert det_identity_holds(inst)
