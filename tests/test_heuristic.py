import random
from collections import Counter
from fractions import Fraction as F

import pytest

from latkit.errors import DependentInput, IndexOutOfRange
from latkit import heuristic, qlinalg
from latkit.heuristic import (
    HeuristicConfig,
    _GramState,
    _choose_shift,
    _pass_over,
    _sweep_prefixes,
    improve_coordinate,
    improve_pass,
    run_heuristic,
)
from latkit.lattice import (
    DMDSPQuery,
    LatticeBasis,
    MDSPInstance,
    apply_shift,
    verify_dmdsp_certificate,
)
from latkit.lll import ReductionTrace, _lll_rows
from latkit.exact import solve_exact
from latkit.qlinalg import (
    QMatrix,
    QVector,
    determinant,
    dist_sq_to_span,
    integer_rows,
    rel_volume_sq,
)
from latkit.lattice import same_lattice
from oracles import (
    _cofactor_adjugate,
    _gram,
    dual_basis,
    dual_greedy,
    int_det,
    naive_dist_sq,
    random_mdsp_vectors,
    vdot,
    vscale,
    vsub,
)


def make_instance(v, basis):
    return MDSPInstance(QVector(v), LatticeBasis([QVector(b) for b in basis]))


E1 = make_instance([0, 2], [[1, 1]])
ORTHO = make_instance([0, 1], [[1, 0]])
FAR = make_instance([0, 2], [[1, 5]])


def residual_proj_sq(inst, i, a):
    """Oracle for the per-coordinate objective at integer shift a."""
    v = inst.fixed
    others = [b for k, b in enumerate(inst.rest.vectors) if k != i]
    from oracles import vdot

    # components orthogonal to span(others), computed naively
    def perp(w):
        if not others:
            return tuple(w.entries)
        from oracles import naive_gs, vscale, vsub

        r = tuple(w.entries)
        for u in naive_gs([o.entries for o in others]):
            r = vsub(r, vscale(u, vdot(r, u) / vdot(u, u)))
        return r

    vpp = perp(v)
    bpp = perp(inst.rest.vectors[i])
    line = tuple(b - a * x for b, x in zip(bpp, vpp))
    return vdot(vpp, line) ** 2 / vdot(line, line)


class TestImproveCoordinate:
    def test_tie_keeps_floor_no_update(self):
        a, new_b = improve_coordinate(E1, 0)
        assert a == 0
        assert new_b == QVector([1, 1])

    def test_orthogonal_no_update(self):
        a, _ = improve_coordinate(ORTHO, 0)
        assert a == 0

    def test_far_coordinate_tie(self):
        a, new_b = improve_coordinate(FAR, 0)
        assert a == 2
        assert new_b == QVector([1, 1])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            improve_coordinate(E1, 1)

    def test_integer_optimality_window(self):
        rng = random.Random(73)
        for _ in range(20):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 4)))
            for i in range(inst.n):
                a, _ = improve_coordinate(inst, i)
                h_a = residual_proj_sq(inst, i, a)
                for j in range(a - 50, a + 51):
                    assert h_a <= residual_proj_sq(inst, i, j)


def reference_shift(s, w, t):
    """The three-argument shift rule: of the floor and the ceiling of w/s,
    the one whose squared residual projection (w - a s)^2 / (t - 2 a w +
    a^2 s) is smaller, compared in exact cross-multiplied form, a tie
    keeping the floor."""
    a1 = w // s
    a2 = -((-w) // s)
    if a1 == a2:
        return a1
    n1, d1 = (w - a1 * s) ** 2, t - 2 * a1 * w + a1 * a1 * s
    n2, d2 = (w - a2 * s) ** 2, t - 2 * a2 * w + a2 * a2 * s
    return a1 if n1 * d2 <= n2 * d1 else a2


class TestChooseShift:
    def test_matches_the_reference_rule(self):
        # every (s, w, t) with t s - w^2 > 0, as on every heuristic path;
        # a quarter are half-integer ties w / s = m + 1/2
        rng = random.Random(401)
        ties = 0
        for k in range(100_000):
            bits = rng.choice((4, 16, 64, 200))
            s = rng.randint(1, 1 << bits)
            if k % 4 == 0:
                s += s % 2
                w = s * rng.randint(-1 << bits, 1 << bits) + s // 2
            else:
                w = rng.randint(-1 << (bits + 4), 1 << (bits + 4))
            t = w * w // s + rng.randint(1, 1 << bits)
            assert t * s - w * w > 0
            ties += 2 * w % s == 0 and w % s != 0
            assert _choose_shift(s, w) == reference_shift(s, w, t), (s, w, t)
        assert ties >= 25_000


    def test_tie_keeps_the_floor(self):
        # pins the known waste named in the FOUND 48 line of CHANGES.md: at
        # w/s = -1/2 the floor commits a = -1, which leaves dist^2 at its
        # starting 2, costs a second pass and counts as a change; keeping
        # a = 0 on that tie moves the bit-identity digests, so it is left
        # to a change of its own
        assert _choose_shift(2, -1) == -1
        inst = make_instance([0, 2], [[1, -1]])
        assert dist_sq_to_span(inst.fixed, inst.rest.vectors) == 2
        out = run_heuristic(inst)
        assert (out.x_total, out.dist_sq, out.converged, out.passes_used) == ((1,), 2, True, 2)
        once = run_heuristic(inst, HeuristicConfig(max_passes=1))
        assert (once.x_total, once.converged) == ((1,), False)
        updated, changed = improve_pass(inst)
        assert changed
        assert updated.rest.vectors == (QVector([1, 1]),)


class TestImprovePass:
    def test_orthogonal_fixpoint(self):
        _, any_update = improve_pass(ORTHO)
        assert not any_update

    def test_far_updates(self):
        updated, any_update = improve_pass(FAR)
        assert any_update
        assert updated.rest.vectors == (QVector([1, 1]),)

    def test_worked_fixpoint(self):
        _, any_update = improve_pass(E1)
        assert not any_update

    def test_monotone_distance(self):
        rng = random.Random(79)
        for _ in range(25):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 5)))
            before = dist_sq_to_span(inst.fixed, inst.rest.vectors)
            updated, _ = improve_pass(inst)
            after = dist_sq_to_span(updated.fixed, updated.rest.vectors)
            assert after >= before


def rational_instances(seed, count):
    """Seeded instances with n = 2..6, entries p/q for q <= 7, and at least
    one denominator above 1, so the integer rows are scaled."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(3, 7)
        rows = [
            [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim)]
            for _ in range(dim)
        ]
        if all(e.denominator == 1 for r in rows for e in r):
            continue
        try:
            out.append(MDSPInstance.from_vectors(rows[0], rows[1:]))
        except DependentInput:
            continue
    return out


class TestRationalInstances:
    def test_dist_sq_matches_gram_schmidt_oracle(self):
        for inst in rational_instances(107, 30):
            out = run_heuristic(inst)
            v = inst.fixed.entries
            # B(x) = {b_i + x_i v}, formed in oracle arithmetic
            shifted = [
                vsub(b.entries, vscale(v, -xi))
                for b, xi in zip(inst.rest.vectors, out.x_total)
            ]
            assert out.dist_sq == naive_dist_sq(v, shifted)

    def test_improve_pass_reproduces_run_heuristic(self):
        cfg = HeuristicConfig()
        for inst in rational_instances(109, 30):
            out = run_heuristic(inst, cfg)
            current, passes, converged = inst, 0, False
            while passes < cfg.max_passes:
                passes += 1
                current, changed = improve_pass(current)
                if not changed:
                    converged = True
                    break
            # b_i' = b_i + x_i v: read x_i off a nonzero coordinate of v
            v = inst.fixed.entries
            k = next(j for j, e in enumerate(v) if e != 0)
            x = tuple(
                (after.entries[k] - before.entries[k]) / v[k]
                for before, after in zip(inst.rest.vectors, current.rest.vectors)
            )
            assert x == out.x_total
            assert passes == out.passes_used
            assert converged == out.converged


class TestRunHeuristic:
    def test_orthogonal(self):
        out = run_heuristic(ORTHO)
        assert out.converged
        assert out.passes_used == 1
        assert out.x_total == (0,)
        assert out.dist_sq == 1

    def test_far(self):
        out = run_heuristic(FAR)
        assert out.converged
        assert out.passes_used == 2
        assert out.x_total == (-2,)
        assert out.dist_sq == 2

    def test_n1_matches_exact(self):
        rng = random.Random(83)
        for _ in range(40):
            inst = make_instance(*random_mdsp_vectors(rng, 2))
            out = run_heuristic(inst)
            assert out.dist_sq == solve_exact(inst).dist_sq

    def test_pass_cap(self):
        out = run_heuristic(FAR, HeuristicConfig(max_passes=1))
        assert out.passes_used == 1
        assert not out.converged  # the single pass still made an update
        assert out.dist_sq == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HeuristicConfig(max_passes=0)
        # a float count used to pass construction and raise TypeError
        # inside run_heuristic
        for bad in (2.5, 2.0, F(5, 2), "2"):
            with pytest.raises(ValueError, match="^max_passes must be an integer"):
                HeuristicConfig(max_passes=bad)

    def test_x_total_reproduces_final_basis(self):
        rng = random.Random(89)
        for _ in range(20):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 4)))
            out = run_heuristic(inst)
            final = apply_shift(inst, out.x_total)
            assert dist_sq_to_span(inst.fixed, final.vectors) == out.dist_sq

    def test_lattice_preserved(self):
        rng = random.Random(97)
        for _ in range(20):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 4)))
            out = run_heuristic(inst)
            shifted = apply_shift(inst, out.x_total)
            ok, w = same_lattice(
                inst.full_matrix(),
                QMatrix.from_columns((inst.fixed,) + shifted.vectors),
            )
            assert ok and w is not None

    def test_volume_never_increases_per_step(self):
        # distance up means volume down, step by step
        rng = random.Random(101)
        for _ in range(15):
            inst = make_instance(*random_mdsp_vectors(rng, rng.randint(2, 4)))
            # det([v|B])^2 = relvol^2(B) dist^2(v, span B)
            assert determinant(inst.full_matrix()) ** 2 == rel_volume_sq(
                inst.rest.vectors
            ) * dist_sq_to_span(inst.fixed, inst.rest.vectors)
            current = inst
            for _ in range(3):  # a few manual passes
                vol_before = rel_volume_sq(current.rest.vectors)
                changed_any = False
                for i in range(current.n):
                    a, new_b = improve_coordinate(current, i)
                    if a != 0:
                        vecs = list(current.rest.vectors)
                        vecs[i] = new_b
                        nxt = MDSPInstance(
                            current.fixed,
                            LatticeBasis(vecs, validate=False),
                            validate=False,
                        )
                        assert (
                            rel_volume_sq(nxt.rest.vectors)
                            <= rel_volume_sq(current.rest.vectors)
                        )
                        current = nxt
                        changed_any = True
                assert rel_volume_sq(current.rest.vectors) <= vol_before
                if not changed_any:
                    break


def record_shifts(monkeypatch):
    """Patch _GramState.apply_shift to record (state.n, i, a, dist^2) for
    every committed shift, dist^2 read off the state after it on the scale
    of its integer rows; returns the list it appends to."""
    shifts = []
    apply = _GramState.apply_shift

    def record(state, i, a):
        apply(state, i, a)
        shifts.append((state.n, i, a, state.dist_sq(1)))

    monkeypatch.setattr(_GramState, "apply_shift", record)
    return shifts


def tie_instances(seed, count):
    """Seeded instances with n = 1..5 and entries in [-2, 2], where a shift
    w / s often sits halfway between two integers, with the worked ones."""
    rng = random.Random(seed)
    out = [E1, ORTHO, FAR]
    while len(out) < count:
        out.append(make_instance(*random_mdsp_vectors(rng, rng.randint(2, 6), bound=2)))
    return out


class TestDualBasisOracle:
    """Every shift and distance of the heuristic against dual_greedy of
    tests/oracles.py, which recomputes the dual basis (d_0..d_{n-1}, d_v)
    of (B, v) at each coordinate and size-reduces d_v by d_i."""

    def test_run_heuristic(self, monkeypatch):
        shifts = record_shifts(monkeypatch)
        for k, inst in enumerate(tie_instances(191, 60) + rational_instances(193, 20)):
            cfg = HeuristicConfig(max_passes=1 + k % 4)
            shifts.clear()
            out = run_heuristic(inst, cfg)
            v, basis = inst.fixed.entries, [b.entries for b in inst.rest.vectors]
            x, expected, passes, converged = dual_greedy(v, basis, cfg.max_passes)
            s2 = integer_rows([*inst.rest.vectors, inst.fixed])[1] ** 2
            assert shifts == [(inst.n, i, a, dist * s2) for i, a, dist in expected]
            assert (out.x_total, out.passes_used, out.converged) == (x, passes, converged)
            dv = dual_basis([*(vsub(b, vscale(v, -xi)) for b, xi in zip(basis, x)), v])[-1]
            assert out.dist_sq == 1 / vdot(dv, dv)

    def test_improve_pass(self, monkeypatch):
        shifts = record_shifts(monkeypatch)
        for inst in tie_instances(197, 40) + rational_instances(199, 10):
            shifts.clear()
            updated, changed = improve_pass(inst)
            v, basis = inst.fixed.entries, [b.entries for b in inst.rest.vectors]
            x, expected, _, _ = dual_greedy(v, basis, 1)
            s2 = integer_rows([*inst.rest.vectors, inst.fixed])[1] ** 2
            assert shifts == [(inst.n, i, a, dist * s2) for i, a, dist in expected]
            assert changed == bool(expected)
            assert updated.rest == apply_shift(inst, x)

    def test_sweep_prefixes(self, monkeypatch):
        shifts = record_shifts(monkeypatch)
        rng = random.Random(211)
        for size in range(3, 10):
            for passes in (1, 2, 3):
                rows = [[rng.randint(-30, 30) for _ in range(size)] for _ in range(size)]
                d, lam = _lll_rows(rows, 1, 4, ReductionTrace())
                expected_rows = [r[:] for r in rows]
                expected = []
                for i in range(size - 1, 0, -1):
                    v = expected_rows[i]
                    x, prefix, _, _ = dual_greedy(v, expected_rows[:i], passes)
                    expected += [(i, *s) for s in prefix]
                    for j, xj in enumerate(x):
                        expected_rows[j] = [b + xj * c for b, c in zip(expected_rows[j], v)]
                shifts.clear()
                _sweep_prefixes(rows, d, lam, passes)
                assert shifts == expected
                assert rows == expected_rows


def state_rows(seed):
    """Seeded independent integer rows, N = 2..10 of them: uniform ones,
    knapsack ones and lcm-scaled rational ones, for each N."""
    rng = random.Random(seed)

    def independent(draw):
        while True:
            rows = draw()
            if int_det(_gram(rows)) != 0:
                return rows

    for size in range(2, 11):
        yield independent(
            lambda: [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        )
        yield independent(
            lambda: [
                [int(j == i) for j in range(size - 1)] + [rng.getrandbits(30)]
                for i in range(size - 1)
            ]
            + [[0] * (size - 1) + [rng.getrandbits(30) | 1 << 29]]
        )
        yield independent(
            lambda: integer_rows(
                [
                    QVector(F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(size))
                    for _ in range(size)
                ]
            )[0]
        )


def check_state(state, rows):
    """moments, det and dist_sq of a state against the cofactor adjugate of
    the Gram matrix of its rows (b_0..b_{n-1}, v)."""
    g = _gram(rows)
    adj, det, n = _cofactor_adjugate(g), int_det(g), len(rows) - 1
    assert (state.n, state.det) == (n, det)
    for i in range(n):
        assert state.moments(i) == (adj[i][i], -adj[n][i])
    assert state.dist_sq(3) == F(det, adj[n][n] * 9)


def shift_and_check(rng, state, rows):
    """A random shift sequence, each shift applied to the state and to the
    rows explicitly, checking the state after each."""
    n = len(rows) - 1
    for _ in range(n + 1):
        i, a = rng.randrange(n), rng.choice([-3, -2, -1, 1, 2, 3])
        state.apply_shift(i, a)
        rows[i] = [b - a * c for b, c in zip(rows[i], rows[n])]
        check_state(state, rows)


class TestGramState:
    def test_shifts_and_leading_against_cofactor_adjugate(self):
        rng = random.Random(131)
        for rows in state_rows(137):
            rows = [r[:] for r in rows]
            state = _GramState.of_lll(*qlinalg._eliminate_gram(_gram(rows))[:2])
            check_state(state, rows)
            while True:
                shift_and_check(rng, state, rows)
                if len(rows) == 2:
                    break
                state = state.leading()
                rows.pop()
                check_state(state, rows)

    def test_state_from_lll_data(self):
        rng = random.Random(139)
        for rows in state_rows(149):
            rows = [r[:] for r in rows]
            d, lam = _lll_rows(rows, 99, 100, ReductionTrace())
            state = _GramState.of_lll(d, lam)
            check_state(state, rows)
            shift_and_check(rng, state, rows)
            check_state(state.leading(), rows[:-1])

    def test_state_from_primal_elimination(self):
        # the record (d, lam, u) of P, the Gram matrix of the rows reversed,
        # as an instance's stored form holds it
        rng = random.Random(163)
        for rows in state_rows(167):
            rows = [r[:] for r in rows]
            state = _GramState.of_primal(*qlinalg._eliminate_gram(_gram(rows[::-1])))
            check_state(state, rows)
            shift_and_check(rng, state, rows)


class TestHotPath:
    """The heuristic and the verifier build no full adjugate, and the
    accelerated sweep no Gram matrix and no elimination."""

    def test_certify_without_adjugate(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("full adjugate on the heuristic's path")

        built = []
        row = heuristic._adjugate_row

        def counting_row(d, lam, u, i):
            # the state's record is of P, the Gram matrix of (v, b_{n-1},
            # ..., b_0): its row 0 is row v, every other row a B-block row
            if i != 0:
                built.append(i)
            return row(d, lam, u, i)

        monkeypatch.setattr(qlinalg, "adjugate_spd", refuse)
        monkeypatch.setattr(heuristic, "_adjugate_lower", refuse)
        monkeypatch.setattr(heuristic, "_adjugate_row", counting_row)
        shifts = record_shifts(monkeypatch)
        rng = random.Random(151)
        rows = [[rng.randint(-100, 100) for _ in range(24)] for _ in range(24)]
        inst = MDSPInstance.from_vectors(rows[0], rows[1:])
        out = run_heuristic(inst)
        shifted = {i for _, i, _, _ in shifts}
        assert shifted and len(built) <= len(shifted)
        gamma_sq = out.dist_sq / inst.fixed.norm_sq()
        assert verify_dmdsp_certificate(DMDSPQuery(inst, gamma_sq), out.x_total)
        gamma_hi = gamma_sq * (1 + F(1, 1 << 32))
        assert not verify_dmdsp_certificate(DMDSPQuery(inst, gamma_hi), out.x_total)

    def test_sweep_without_gram_or_elimination(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("Gram matrix or elimination in the sweep")

        rng = random.Random(157)
        for size in (6, 10, 14):
            rows = [[rng.randint(-100, 100) for _ in range(size)] for _ in range(size)]
            d, lam = _lll_rows(rows, 1, 4, ReductionTrace())
            expected = [r[:] for r in rows]
            with monkeypatch.context() as m:
                m.setattr(qlinalg, "integer_gram", refuse)
                m.setattr(qlinalg, "_eliminate_gram", refuse)
                _sweep_prefixes(rows, d, lam, 1)
            # the same sweep on a state from a fresh elimination
            state = _GramState.of_lll(*qlinalg._eliminate_gram(_gram(expected))[:2])
            for i in range(size - 1, 0, -1):
                x = [0] * i
                _pass_over(state, x)
                for j, xj in enumerate(x):
                    expected[j] = [b + xj * c for b, c in zip(expected[j], expected[i])]
                state = state.leading()
            assert rows == expected

    def test_sweep_builds_each_row_once(self, monkeypatch):
        # the first prefix's state builds the lower triangle of adj(G) once,
        # one back-substitution per row; a shifted coordinate's row and the
        # next prefix's state are read off it, so no row is built twice and
        # no full row is built at all
        built = Counter()

        def counting(name, fn):
            def counted(*args):
                built[name] += 1
                return fn(*args)
            return counted

        for name in ("_adjugate_lower", "_adjugate_row", "_back_substitute"):
            counted = counting(name, getattr(qlinalg, name))
            for mod in (qlinalg, heuristic):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted)
        shifts = record_shifts(monkeypatch)
        rng = random.Random(179)
        for size in (8, 12, 16):
            rows = [[rng.randint(-100, 100) for _ in range(size)] for _ in range(size)]
            d, lam = _lll_rows(rows, 1, 4, ReductionTrace())
            built.clear()
            shifts.clear()
            _sweep_prefixes(rows, d, lam, 1)
            assert size - 1 in [n for n, _, _, _ in shifts]  # the first prefix shifts
            assert built == {"_adjugate_lower": 1, "_back_substitute": size}
