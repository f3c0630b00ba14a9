import copy
import pickle
import random
import sys
from fractions import Fraction as F
from itertools import accumulate
from math import lcm
from operator import mul

import pytest

import latkit.lattice
from latkit.cvp import CVPGramInstance, _search, enumerate_cvp, mdsp_to_cvp
from latkit.errors import (
    DegenerateResidual,
    DependentInput,
    LengthMismatch,
    NonSquare,
    SingularMatrix,
)
from latkit.exact import shift_dist_sq, shift_ranges, solve_exact
from latkit.heuristic import improve_coordinate, improve_pass, run_heuristic
from latkit.lll import LLLParams, lll_reduce
from latkit.lattice import (
    DMDSPQuery,
    LatticeBasis,
    MDSPInstance,
    _value,
    apply_shift,
    certificate_bounds,
    same_lattice,
    verify_dmdsp_certificate,
)
from latkit.qlinalg import (
    QMatrix,
    QVector,
    is_unimodular,
    rel_volume_sq,
)
from oracles import (
    int_gram_det,
    minkowski_holds,
    naive_det,
    naive_dist_sq,
    naive_gs,
    naive_same_lattice,
    random_mdsp_vectors,
    vdot,
)


def qv(*entries):
    return QVector(entries)


def make_instance(v, basis):
    return MDSPInstance(
        QVector(v), LatticeBasis([QVector(b) for b in basis])
    )


E1 = make_instance([0, 2], [[1, 1]])


def random_instance(rng, ambient, bound=5):
    v, basis = random_mdsp_vectors(rng, ambient, bound)
    return make_instance(v, basis)


class TestInstanceTypes:
    def test_dependent_rejected(self):
        with pytest.raises(DependentInput):
            make_instance([1, 1], [[2, 2]])

    def test_dimension_checks(self):
        with pytest.raises(LengthMismatch):
            MDSPInstance(qv(1, 0), LatticeBasis([qv(0, 1), qv(1, 1)]))
        with pytest.raises(DependentInput):
            LatticeBasis([qv(1, 0), qv(0, 1), qv(1, 1)])
        # a sub-dimensional instance is legal but not full dimensional
        inst = MDSPInstance(qv(1, 0, 0), LatticeBasis([qv(0, 1, 0)]))
        assert not inst.is_full_dimensional

    def test_full_matrix_columns(self):
        assert E1.full_matrix() == QMatrix([[0, 1], [2, 1]])

    def test_shape_errors(self):
        with pytest.raises(LengthMismatch, match="at least one vector"):
            LatticeBasis([])
        with pytest.raises(LengthMismatch, match="differing dimensions"):
            LatticeBasis([qv(1, 0, 0), qv(0, 1)], validate=False)
        with pytest.raises(LengthMismatch, match="different spaces"):
            MDSPInstance(qv(1, 0, 0), LatticeBasis([qv(0, 1)]))

    def test_repr(self):
        assert repr(E1) == (
            "MDSPInstance(fixed=QVector([Fraction(0, 1), Fraction(2, 1)]), "
            "rest=LatticeBasis([QVector([Fraction(1, 1), Fraction(1, 1)])]))"
        )


class TestApplyShift:
    def test_zero_shift(self):
        assert apply_shift(E1, (0,)).vectors == (qv(1, 1),)

    def test_negative_shift(self):
        assert apply_shift(E1, (-1,)).vectors == (qv(1, -1),)

    def test_positive_shift(self):
        assert apply_shift(E1, (3,)).vectors == (qv(1, 7),)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            apply_shift(E1, (1, 2))

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            apply_shift(E1, (F(-3, 2),))
        assert apply_shift(E1, (F(-1),)).vectors == (qv(1, -1),)


class TestSameLattice:
    def test_identity(self):
        eye = QMatrix.identity(2)
        ok, w = same_lattice(eye, eye)
        assert ok and w.u == eye

    def test_shear(self):
        ok, w = same_lattice(QMatrix.identity(2), QMatrix([[1, 1], [0, 1]]))
        assert ok and is_unimodular(w.u)

    def test_scaled_rejected(self):
        ok, w = same_lattice(QMatrix.identity(2), QMatrix([[2, 0], [0, 1]]))
        assert not ok and w is None

    def test_shape_errors(self):
        wide = QMatrix([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(NonSquare):
            same_lattice(wide, QMatrix.identity(2))
        with pytest.raises(NonSquare):
            same_lattice(QMatrix.identity(2), wide)
        with pytest.raises(LengthMismatch, match="different dimensions"):
            same_lattice(QMatrix.identity(2), QMatrix.identity(3))

    def test_shift_always_equivalent(self):
        rng = random.Random(31)
        for _ in range(40):
            ambient = rng.randint(2, 5)
            inst = random_instance(rng, ambient)
            x = tuple(rng.randint(-4, 4) for _ in range(inst.n))
            shifted = apply_shift(inst, x)
            full_shifted = QMatrix.from_columns((inst.fixed,) + shifted.vectors)
            ok, w = same_lattice(inst.full_matrix(), full_shifted)
            assert ok
            assert is_unimodular(w.u)
            assert naive_same_lattice([inst.fixed.entries, *(b.entries for b in inst.rest)],
                                      [inst.fixed.entries, *(b.entries for b in shifted)])


class TestCertificates:
    def test_accepts_at_half(self):
        q = DMDSPQuery.from_gamma(E1, F(1, 2))
        assert verify_dmdsp_certificate(q, (0,))  # dist^2 = 2 >= 1

    def test_rejects_at_one(self):
        q = DMDSPQuery.from_gamma(E1, 1)
        assert not verify_dmdsp_certificate(q, (0,))  # dist^2 = 2 < 4

    def test_orthogonal_accepts_at_one(self):
        inst = make_instance([0, 1], [[1, 0]])
        q = DMDSPQuery.from_gamma(inst, 1)
        assert verify_dmdsp_certificate(q, (0,))

    def test_rejects_non_integral_certificate(self):
        q = DMDSPQuery(E1, F(1, 2))
        assert not verify_dmdsp_certificate(q, (F(-3, 2),))
        assert verify_dmdsp_certificate(q, (-1,))

    def test_infinite_or_missing_coordinate_is_not_integral(self):
        # rational() raises OverflowError on +-inf and TypeError on None;
        # all three callers see the ValueError of any non-integral x
        q = DMDSPQuery(E1, F(1, 2))
        c = mdsp_to_cvp(E1)
        for bad in (float("inf"), float("-inf"), None):
            assert not verify_dmdsp_certificate(q, (bad,))
            with pytest.raises(ValueError):
                shift_dist_sq(E1, (bad,))
            with pytest.raises(ValueError):
                c.objective((bad,))

    def test_wrong_length_certificate_raises(self):
        q = DMDSPQuery(E1, F(1, 2))
        with pytest.raises(LengthMismatch):
            verify_dmdsp_certificate(q, (0, 1))
        with pytest.raises(LengthMismatch):
            verify_dmdsp_certificate(q, ())

    def test_certificate_spellings(self):
        q = DMDSPQuery(E1, F(1, 2))
        assert verify_dmdsp_certificate(q, (F(4, 2),)) == verify_dmdsp_certificate(
            q, (2,)
        )
        assert verify_dmdsp_certificate(q, ("-1",))
        assert not verify_dmdsp_certificate(q, ("3/2",))
        assert not verify_dmdsp_certificate(q, (F(-3, 2),))

    def test_dependent_shifted_basis_raises(self):
        # b_2 = b_1 + v, so B(1, 0) repeats a vector; only an unvalidated
        # instance can hold such a family
        inst = MDSPInstance.from_vectors(
            [1, 0, 0], [[0, 1, 0], [1, 1, 0]], validate=False
        )
        q = DMDSPQuery(inst, F(1, 2))
        with pytest.raises(DependentInput):
            verify_dmdsp_certificate(q, (1, 0))

    def test_rational_instances_at_the_threshold(self):
        # scale > 1: accept exactly at the distance of B(x), reject one
        # 2^-32 step above, both as a Gram-Schmidt oracle decides
        rng = random.Random(67)
        step = 1 + F(1, 1 << 32)
        checked = 0
        while checked < 12:
            dim = rng.randint(2, 6)
            rows = [
                [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim)]
                for _ in range(dim)
            ]
            try:
                inst = MDSPInstance.from_vectors(rows[0], rows[1:])
            except DependentInput:
                continue
            x = tuple(rng.randint(-3, 3) for _ in range(inst.n))
            v = inst.fixed
            v_sq = v.norm_sq()
            naive = naive_dist_sq(
                v.entries, [b.entries for b in apply_shift(inst, x)]
            )
            gamma_sq = naive / v_sq
            accept = verify_dmdsp_certificate(DMDSPQuery(inst, gamma_sq), x)
            assert accept and accept == (naive >= gamma_sq * v_sq)
            gamma_hi = gamma_sq * step
            if gamma_hi <= 1:
                reject = verify_dmdsp_certificate(DMDSPQuery(inst, gamma_hi), x)
                assert not reject and reject == (naive >= gamma_hi * v_sq)
            checked += 1

    def test_heuristic_certificates_at_dimension_16(self):
        # accept exactly at the reached distance, reject one 2^-32 step above
        rng = random.Random(61)
        step = 1 + F(1, 1 << 32)
        for _ in range(3):
            inst = random_instance(rng, 16, bound=100)
            out = run_heuristic(inst)
            v = inst.fixed
            v_sq = v.norm_sq()
            naive = naive_dist_sq(
                v.entries, [b.entries for b in apply_shift(inst, out.x_total)]
            )
            assert naive == out.dist_sq
            gamma_sq = out.dist_sq / v_sq
            accept = verify_dmdsp_certificate(DMDSPQuery(inst, gamma_sq), out.x_total)
            assert accept and accept == (naive >= gamma_sq * v_sq)
            gamma_hi = gamma_sq * step
            if gamma_hi <= 1:
                reject = verify_dmdsp_certificate(
                    DMDSPQuery(inst, gamma_hi), out.x_total
                )
                assert not reject and reject == (naive >= gamma_hi * v_sq)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            DMDSPQuery(E1, F(0))
        for bad in (F(3, 2), "3/2", "x"):
            with pytest.raises(ValueError):
                DMDSPQuery(E1, bad)

    def test_from_gamma_validation(self):
        # gamma is checked before it is squared: -1/2 would square into range
        for bad in (F(0), F(-1, 2), F(-1), F(3, 2), "x"):
            with pytest.raises(ValueError):
                DMDSPQuery.from_gamma(E1, bad)
        assert DMDSPQuery.from_gamma(E1, "1/2").gamma_sq == F(1, 4)

    def test_gamma_sq_spellings(self):
        # "1/2", 0.5 and 1 are coerced to the equal Fraction
        for spelled, exact in (("1/2", F(1, 2)), (0.5, F(1, 2)), (1, F(1))):
            q, ref = DMDSPQuery(E1, spelled), DMDSPQuery(E1, exact)
            assert q == ref and type(q.gamma_sq) is F
            for x in range(-3, 4):
                assert verify_dmdsp_certificate(q, (x,)) == verify_dmdsp_certificate(
                    ref, (x,)
                )
        assert DMDSPQuery.from_gamma(E1, F(1, 3)).gamma_sq == F(1, 9)


class TestCertificateBounds:
    def test_integer_components(self):
        assert certificate_bounds(E1).k0 == 1

    def test_rational_component(self):
        inst = make_instance([0, F(2, 3)], [[1, 1]])
        assert certificate_bounds(inst).k0 == 3

    def test_worked_quantities(self):
        cb = certificate_bounds(E1)
        assert cb.dk == [F(2)]
        assert cb.bigD == 2
        assert cb.bigE == 8

    def test_log_bounds_random(self):
        rng = random.Random(37)
        for _ in range(40):
            ambient = rng.randint(2, 4)
            inst = random_instance(rng, ambient)
            cb = certificate_bounds(inst)
            n = inst.n
            l = cb.input_bit_size_l
            assert cb.bigD <= F(2) ** (2 * n * l)
            assert cb.bigE <= F(2) ** (2 * (2 * n + 1) * l)
            assert cb.bigD > 0 and cb.bigE > 0
            assert all(b > 0 for b in cb.per_coordinate_bound)


    def test_dk_are_running_products_of_naive_gs(self):
        # dk[k] is |b*_0|^2 ... |b*_k|^2, on integer and rational bases
        rng = random.Random(41)
        for k in range(30):
            v, basis = random_mdsp_vectors(rng, rng.randint(2, 6))
            if k % 2:
                basis = [tuple(e / rng.randint(1, 5) for e in b) for b in basis]
            inst = make_instance(v, basis)
            norms = [vdot(w, w) for w in naive_gs(basis)]
            assert certificate_bounds(inst).dk == list(accumulate(norms, mul))

    def test_dependent_basis_raises_as_gram_schmidt(self):
        # an earlier dependent vector, then only the last one
        for rest, k in (([[1, 2, 0, 0], [2, 4, 0, 0], [0, 1, 1, 0]], 1),
                        ([[1, 0, 0, 0], [0, 1, 0, 0], [3, F(1, 2), 0, 0]], 2)):
            inst = MDSPInstance.from_vectors([0, 0, 0, 1], rest, validate=False)
            with pytest.raises(DependentInput) as raised:
                certificate_bounds(inst)
            assert str(raised.value) == f"vector {k} is in the span of its predecessors"

    def test_bounds_build_no_gram_schmidt(self, monkeypatch):
        # dk comes off one elimination of B's Gram matrix, with no b* or mu;
        # a call that built every b* and mu as Fractions only to discard
        # them ran 1.5-2.4x slower
        rng = random.Random(43)
        insts = [E1, make_instance([0, F(2, 3)], [[1, 1]])]
        insts += [random_instance(rng, rng.randint(2, 6)) for _ in range(10)]
        want = [certificate_bounds(inst) for inst in insts]
        calls = []
        eliminate = latkit.lattice._eliminate_gram

        def counted(g):
            calls.append(len(g))
            return eliminate(g)

        monkeypatch.setattr(latkit.lattice, "_eliminate_gram", counted)
        assert [certificate_bounds(inst) for inst in insts] == want
        assert calls == [inst.n for inst in insts]


class TestMinkowski:
    """Minkowski's bound lambda_1^2 <= n det^(2/n), compared exactly by
    minkowski_holds: the bound sits where it must on each basis, and the
    shortest vector of LLL's output meets it."""

    @staticmethod
    def check(vecs, below, above, lambda_sq):
        basis = LatticeBasis(vecs)
        rows = [v.entries for v in basis.vectors]
        assert rel_volume_sq(basis.vectors) == naive_det(rows) ** 2
        assert minkowski_holds(rows, below)
        assert not minkowski_holds(rows, above)
        out, trace = lll_reduce(basis, LLLParams(F(3, 4)))
        assert trace.final_shortest_norm_sq == lambda_sq
        assert minkowski_holds([v.entries for v in out.vectors], lambda_sq)

    def test_identity_dim2(self):
        # bound 2, met exactly
        self.check([qv(1, 0), qv(0, 1)], 2, F(2) + F(1, 10**9), 1)

    def test_scaled(self):
        self.check([qv(2, 0), qv(0, 2)], 8, F(8) + F(1, 10**9), 4)

    def test_shear(self):
        self.check([qv(1, 1), qv(0, 1)], 2, F(2) + F(1, 10**9), 1)

    def test_irrational_enclosure_is_upper(self):
        # det^2 = 16 in dim 3: the bound 3 * 16^(1/3) = 7.5595... is
        # irrational, and the exact comparison pins it without a root
        self.check([qv(2, 0, 0), qv(0, 2, 0), qv(0, 0, 1)],
                   F(75595, 10**4), F(75596, 10**4), 1)


class TestDetIdentity:
    def test_random_instances(self):
        rng = random.Random(41)
        worked = [MDSPInstance.from_vectors([0, 2], [[1, 1]]),
                  MDSPInstance.from_vectors([0, 1], [[1, 0]])]
        for inst in worked + [random_instance(rng, rng.randint(2, 5)) for _ in range(40)]:
            lhs = naive_det(inst.full_matrix().data) ** 2
            rhs = rel_volume_sq(inst.rest.vectors) * naive_dist_sq(
                inst.fixed.entries, [b.entries for b in inst.rest.vectors]
            )
            assert lhs == rhs

    def test_dist_bounded_by_norm(self):
        rng = random.Random(43)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(2, 4))
            x = tuple(rng.randint(-3, 3) for _ in range(inst.n))
            shifted = apply_shift(inst, x)
            d = shift_dist_sq(inst, x)
            v_sq = inst.fixed.norm_sq()
            assert d <= v_sq
            orthogonal = all(inst.fixed.dot(b) == 0 for b in shifted.vectors)
            assert (d == v_sq) == orthogonal


def stored_form_instances():
    """Builders of fresh equal instances: integer, and rational with scale
    > 1, each with a certificate from the heuristic and its gamma^2."""
    rng = random.Random(173)
    integer = [[rng.randint(-100, 100) for _ in range(7)] for _ in range(7)]
    rational = [[F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(6)] for _ in range(6)]
    for rows in (integer, rational):
        def build(rows=rows):
            return MDSPInstance.from_vectors(rows[0], rows[1:])
        out = run_heuristic(build())
        yield build, out.x_total, out.dist_sq / build().fixed.norm_sq()


def stored_form_ops(x, gamma_sq):
    """Every computation that reads an instance's stored form, by name."""
    gamma_hi = gamma_sq * (1 + F(1, 1 << 32))
    assert gamma_hi <= 1
    return {
        "accept": lambda inst: verify_dmdsp_certificate(DMDSPQuery(inst, gamma_sq), x),
        "reject": lambda inst: verify_dmdsp_certificate(DMDSPQuery(inst, gamma_hi), x),
        "heuristic": run_heuristic,
        "exact": solve_exact,
        "cvp": lambda inst: enumerate_cvp(mdsp_to_cvp(inst)),
        "shift_dist_sq": lambda inst: shift_dist_sq(inst, x),
        "shift_ranges": shift_ranges,
    }


class TestStoredForm:
    """An instance is scaled and eliminated once, whatever reads it and in
    whatever order, and its vectors cannot be rebound under that form."""

    def test_one_elimination_per_instance(self, monkeypatch):
        counts = {"_eliminate_gram": 0, "integer_gram": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "latkit"]
        for build, x, gamma_sq in stored_form_instances():
            ops = stored_form_ops(x, gamma_sq)
            fresh = {name: op(build()) for name, op in ops.items()}
            assert fresh["accept"] and not fresh["reject"]
            orders = (
                ["accept", "reject", "heuristic", "exact", "cvp", "shift_dist_sq", "shift_ranges"],
                ["heuristic", "accept", "reject", "cvp", "exact", "shift_ranges", "shift_dist_sq"],
                ["exact", "shift_ranges", "heuristic", "reject", "accept", "cvp", "shift_dist_sq"],
            )
            for order in orders:
                with monkeypatch.context() as m:
                    for name in counts:
                        counts[name] = 0
                        for mod in modules:
                            if hasattr(mod, name):
                                m.setattr(mod, name, counting(name, getattr(mod, name)))
                    inst = build()  # validated by building the form
                    assert {name: ops[name](inst) for name in order} == fresh
                assert counts == {"_eliminate_gram": 1, "integer_gram": 1}

    def test_vectors_cannot_be_rebound(self):
        inst = make_instance([0, 0, 3], [[1, 0, 1], [0, 1, 2]])
        other = make_instance([1, 0, 0], [[0, 1, 0], [0, 0, 1]])
        for obj, name, value in (
            (inst, "fixed", other.fixed),
            (inst, "rest", other.rest),
            (inst.rest, "vectors", other.rest.vectors),
            (inst.rest, "dim", 4),
            (inst.fixed, "entries", other.fixed.entries),
            (inst.rest[0], "entries", other.rest[0].entries),
            (inst.full_matrix(), "data", other.full_matrix().data),
        ):
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
        assert inst.fixed == qv(0, 0, 3) and inst.rest == LatticeBasis([qv(1, 0, 1), qv(0, 1, 2)])
        assert inst.rest.dim == 3

    def test_form_cannot_go_stale_through_entries(self):
        # v = (1, 2, 3) over (e_1, e_2): rebinding v's entries once left the
        # stored form answering 1 where a fresh instance answers 25
        inst = make_instance([1, 2, 3], [[0, 1, 0], [0, 0, 1]])
        assert shift_dist_sq(inst, (0, 0)) == 1
        with pytest.raises(AttributeError):
            inst.fixed.entries = (5, 0, 0)
        assert shift_dist_sq(inst, (0, 0)) == 1 and inst.fixed == qv(1, 2, 3)
        assert shift_dist_sq(make_instance([5, 0, 0], [[0, 1, 0], [0, 0, 1]]), (0, 0)) == 25

    def test_frozen_values_copy_and_pickle(self):
        rows = [[F(1, 2), 3, -4], [0, F(-7, 3), 5]]
        for obj in (QVector(rows[0]), QMatrix(rows), LatticeBasis([QVector(r) for r in rows])):
            for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert twin == obj and type(twin) is type(obj) and hash(twin) == hash(obj)
                with pytest.raises(AttributeError):
                    twin.dim = 5
        basis = pickle.loads(pickle.dumps(LatticeBasis([QVector(r) for r in rows])))
        assert basis.dim == 3 and hash(QVector(rows[0])) == hash(copy.deepcopy(QVector(rows[0])))
        # equal bases hash equal, however their entries were spelled
        spelled = LatticeBasis([QVector([F(2, 4), F(6, 2), F(-8, 2)]),
                                QVector([0, F(14, -6), F(5)])])
        assert spelled == basis and hash(spelled) == hash(basis) and {basis: 1}[spelled] == 1

    def test_pickle_under_every_protocol(self):
        # protocols 0 and 1 pickle a slotted class only through __getstate__
        rows = [[F(1, 2), 3, -4], [0, F(-7, 3), 5], [2, 1, F(1, 5)]]
        built = MDSPInstance.from_vectors(rows[0], rows[1:])
        lazy = MDSPInstance.from_vectors(rows[0], rows[1:], validate=False)
        objs = (QVector(rows[0]), QMatrix(rows), LatticeBasis([QVector(r) for r in rows]))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            for obj in objs:
                twin = pickle.loads(pickle.dumps(obj, protocol))
                assert twin == obj and type(twin) is type(obj)
            for inst in (built, lazy):
                twin = pickle.loads(pickle.dumps(inst, protocol))
                assert (twin.fixed, twin.rest, twin._form) == (inst.fixed, inst.rest, inst._form)
                assert twin.n == 2 and shift_dist_sq(twin, (1, -1)) == shift_dist_sq(built, (1, -1))
                with pytest.raises(AttributeError):
                    twin.fixed = twin.rest.vectors[0]
        assert lazy._form is None and built._form is not None

    def test_copy_and_pickle_round_trips(self):
        for build, x, gamma_sq in stored_form_instances():
            ops = stored_form_ops(x, gamma_sq)
            fresh = {name: op(build()) for name, op in ops.items()}
            for built in (False, True):
                inst = build()
                if built:
                    inst._primal()
                for twin in (copy.copy(inst), copy.deepcopy(inst),
                             pickle.loads(pickle.dumps(inst))):
                    assert (twin.fixed, twin.rest) == (inst.fixed, inst.rest)
                    assert {name: op(twin) for name, op in ops.items()} == fresh
                    with pytest.raises(AttributeError):
                        twin.fixed = twin.rest.vectors[0]


def value_instances(rng):
    """(kind, instance) for n = 1..6: integer, rational and
    non-full-dimensional (n + 1 < dim, entries rational) instances."""
    for n in range(1, 7):
        for kind in ("integer", "rational", "embedded"):
            dim = n + 1 + (rng.randint(1, 3) if kind == "embedded" else 0)
            den = 1 if kind == "integer" else 6
            while True:
                rows = [[F(rng.randint(-30, 30), rng.randint(1, den)) for _ in range(dim)]
                        for _ in range(n + 1)]
                try:
                    yield kind, MDSPInstance.from_vectors(rows[0], rows[1:])
                    break
                except DependentInput:
                    continue


class TestValue:
    """_value(e, x) = (z^T adj(P) z, det P), one recurrence over the rows u
    of the stored record (d, lam, u)."""

    def test_against_oracle_determinants(self):
        rng = random.Random(331)
        seen = {"integer": 0, "rational": 0, "embedded": 0}
        for kind, inst in value_instances(rng):
            vectors = [inst.fixed, *inst.rest]
            scale = lcm(*(e.denominator for u in vectors for e in u))
            v, *rest = [[int(e * scale) for e in u] for u in vectors]
            det_p = int_gram_det([v, *rest[::-1]])
            e = inst._primal()[2]
            for _ in range(6):
                x = tuple(rng.randint(-6, 6) for _ in range(inst.n))
                shifted = [[b + xi * c for b, c in zip(row, v)] for row, xi in zip(rest, x)]
                assert _value(e, x) == (int_gram_det(shifted), det_p)
            seen[kind] += kind != "rational" or scale > 1
        assert seen == {"integer": 6, "rational": 6, "embedded": 6}

    def test_reads_leave_the_record_intact(self):
        rng = random.Random(337)
        for _, inst in value_instances(rng):
            e = inst._primal()[2]
            snapshot = tuple(part[:] if i == 0 else [row[:] for row in part]
                             for i, part in enumerate(e))
            xs = [tuple(rng.randint(-6, 6) for _ in range(inst.n)) for _ in range(10)]
            got = []
            for x in xs * 3:
                got.append((_value(e, x), shift_dist_sq(inst, x),
                            verify_dmdsp_certificate(DMDSPQuery(inst, F(1, 2)), x)))
            solve_exact(inst)
            enumerate_cvp(mdsp_to_cvp(inst))
            assert inst._primal()[2] is e and e == snapshot
            assert got == got[:len(xs)] * 3
            twin = MDSPInstance(inst.fixed, inst.rest)
            assert [shift_dist_sq(twin, x) for x in xs] == [g[1] for g in got[:len(xs)]]

    def test_search_returns_its_value(self):
        rng = random.Random(347)
        for _, inst in value_instances(rng):
            e = inst._primal()[2]
            x, t, det = _search(e)
            assert (t, det) == _value(e, x)
            assert F(det, inst._primal()[1] ** 2 * t) == solve_exact(inst).dist_sq
            c = mdsp_to_cvp(inst)
            hand_built = CVPGramInstance(c.gram, c.offset, c.scale_sq)  # bordered
            e_hand = hand_built._primal[0]
            j, t_hand, det_hand = _search(e_hand)
            assert j == x and (t_hand, det_hand) == _value(e_hand, j)


# Unvalidated instances whose [B; v] is dependent. The elimination of the
# stored form raises at its first zero pivot, in the order
# (v, b_{n-1}, ..., b_0), and each caller reports it by one rule. In the
# first, B(x) is independent and holds v for every x: the verifier once
# rejected such a certificate and the heuristic divided 0 by 0.
DEGENERATE = {
    "v in span B": ([1, 1, 0], [[1, 0, 0], [0, 1, 0]]),
    "B dependent": ([0, 0, 1], [[1, 0, 0], [2, 0, 0]]),
    "v on the line of b_1": ([1, 0, 0], [[0, 1, 0], [2, 0, 0]]),
    "B(1, 0) dependent": ([1, 0, 0], [[0, 1, 0], [1, 1, 0]]),
}


class TestDegenerateRule:
    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_one_rule_per_caller(self, case):
        v, basis = DEGENERATE[case]
        inst = MDSPInstance.from_vectors(v, basis, validate=False)
        message = "fixed vector lies in the span of the others"
        for heuristic_call in (
            lambda: run_heuristic(inst),
            lambda: improve_pass(inst),
            lambda: improve_coordinate(inst, 0),
        ):
            with pytest.raises(DegenerateResidual, match=message):
                heuristic_call()
        for x in ((0, 0), (1, 0)):
            with pytest.raises(DependentInput):
                verify_dmdsp_certificate(DMDSPQuery(inst, F(1, 2)), x)
        for exact_call in (
            lambda: solve_exact(inst),
            lambda: mdsp_to_cvp(inst),
            lambda: shift_dist_sq(inst, (0, 0)),
            lambda: shift_ranges(inst),
        ):
            with pytest.raises(SingularMatrix):
                exact_call()
