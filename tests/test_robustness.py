"""Cross-cutting checks with rational entries, degenerate inputs, and the
less-traveled configuration paths."""

import json
import random
from fractions import Fraction as F

import pytest

from latkit.cli import main
from latkit.cvp import embed_cvp, mdsp_to_cvp, recover_mdsp_distance_sq, enumerate_cvp
from latkit.errors import DegenerateResidual
from latkit.exact import solve_exact, shift_ranges
from latkit.heuristic import improve_coordinate, improve_pass, run_heuristic
from latkit.lattice import LatticeBasis, MDSPInstance, apply_shift, certificate_bounds
from latkit.lll import AccelConfig, LLLParams, accelerated_reduce, lll_reduce
from latkit.qlinalg import QMatrix, QVector, dist_sq_to_span, gram_schmidt
from oracles import brute_force_mdsp


def rational_instance(rng, ambient, den_max=4):
    while True:
        rows = [
            [F(rng.randint(-6, 6), rng.randint(1, den_max)) for _ in range(ambient)]
            for _ in range(ambient)
        ]
        try:
            vecs = [QVector(r) for r in rows]
            gram_schmidt(vecs)
        except Exception:
            continue
        return MDSPInstance(vecs[0], LatticeBasis(vecs[1:], validate=False))


class TestRationalEntries:
    def test_solver_matches_oracle(self):
        rng = random.Random(211)
        checked = 0
        while checked < 10:
            inst = rational_instance(rng, rng.randint(2, 3))
            r = shift_ranges(inst)
            width = max(max(abs(s) for s in r.s), max(abs(t) for t in r.t))
            if (2 * 3 * width + 1) ** inst.n > 4000:
                continue
            sol = solve_exact(inst)
            best_d, _ = brute_force_mdsp(
                inst.fixed.entries,
                [b.entries for b in inst.rest.vectors],
                3 * width,
            )
            assert sol.dist_sq == best_d
            checked += 1

    def test_heuristic_scaling_invariance(self):
        # scaling all vectors by a positive rational leaves the shifts alone
        rng = random.Random(223)
        for _ in range(10):
            inst = rational_instance(rng, 3)
            out = run_heuristic(inst)
            c = F(rng.randint(1, 5), rng.randint(1, 5))
            scaled = MDSPInstance(
                inst.fixed.scaled(c),
                LatticeBasis([b.scaled(c) for b in inst.rest.vectors], validate=False),
            )
            out_scaled = run_heuristic(scaled)
            assert out.x_total == out_scaled.x_total
            assert out_scaled.dist_sq == c * c * out.dist_sq

    def test_round_trip_on_rational_instance(self):
        rng = random.Random(227)
        for _ in range(8):
            inst = rational_instance(rng, 3)
            sol = solve_exact(inst)
            c = mdsp_to_cvp(inst)
            j = enumerate_cvp(c).j
            assert recover_mdsp_distance_sq(c, j) == sol.dist_sq

    def test_certificate_bounds_rational(self):
        inst = MDSPInstance(
            QVector([F(1, 2), F(2, 3)]),
            LatticeBasis([QVector([F(1, 5), 1])]),
        )
        cb = certificate_bounds(inst)
        assert cb.k0 == 6
        assert cb.dk == [F(1, 25) + 1]
        assert all(b > 0 for b in cb.per_coordinate_bound)

    def test_lll_on_rational_basis(self):
        rng = random.Random(229)
        for _ in range(6):
            while True:
                try:
                    vecs = [
                        QVector([F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(4)])
                        for _ in range(4)
                    ]
                    basis = LatticeBasis(vecs)
                    break
                except Exception:
                    continue
            delta = F(3, 4)
            out, _ = lll_reduce(basis, LLLParams(delta))
            gs = gram_schmidt(out.vectors)
            norms = [b.norm_sq() for b in gs.bstar]
            for i in range(4):
                for j in range(i):
                    assert abs(gs.mu[i, j]) <= F(1, 2)
            for k in range(1, 4):
                m = gs.mu[k, k - 1]
                assert norms[k] >= (delta - m * m) * norms[k - 1]


class TestDegenerate:
    def test_v_in_span_of_others(self):
        inst = MDSPInstance(
            QVector([1, 1, 0]),
            LatticeBasis([QVector([1, 1, 0]), QVector([0, 0, 1])], validate=False),
            validate=False,
        )
        with pytest.raises(DegenerateResidual):
            improve_coordinate(inst, 1)

    def test_orthogonal_two_vector_pass(self):
        inst = MDSPInstance(
            QVector([0, 0, 1]),
            LatticeBasis([QVector([1, 0, 0]), QVector([0, 1, 0])]),
        )
        _, any_update = improve_pass(inst)
        assert not any_update


class TestAccelFixedPoint:
    def test_early_exit_before_round_cap(self):
        basis = LatticeBasis([QVector([2, 0]), QVector([0, 2])])
        cfg = AccelConfig(LLLParams(F(3, 4)), F(1), max_rounds=100)
        _, trace = accelerated_reduce(basis, cfg)
        assert not trace.reached_target
        # the basis is a fixed point; the loop notices after two rounds
        assert trace.rounds_used == 2


class TestEmbeddedTarget:
    def test_worked_target(self):
        from latkit.cvp import CVPGramInstance

        c = CVPGramInstance(QMatrix([[1]]), QVector([F(1, 2)]), F(4))
        emb = embed_cvp(c, 64)
        assert emb.basis_rows[0] == QVector([1])
        assert emb.target == QVector([F(-1, 2)])


class TestCLIGaps:
    def test_heur_out_writes_shifted_basis(self, tmp_path, capsys):
        src = tmp_path / "inst.txt"
        src.write_text("2 2\n0 2\n1 5\n")
        out = tmp_path / "improved.txt"
        assert main(["mdsp-heur", "--in", str(src), "--out", str(out)]) == 0
        capsys.readouterr()
        from latkit.basisio import parse_basis_text

        improved = parse_basis_text(out.read_text())
        assert improved == QMatrix([[1, 1]])

    def test_exact_out_writes_solution_basis(self, tmp_path, capsys):
        src = tmp_path / "inst.txt"
        src.write_text("2 2\n0 2\n1 1\n")
        out = tmp_path / "sol.txt"
        assert main(["mdsp-exact", "--in", str(src), "--out", str(out)]) == 0
        capsys.readouterr()
        from latkit.basisio import parse_basis_text

        assert parse_basis_text(out.read_text()) == QMatrix([[1, -1]])

    def test_from_cvp_shape_error(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("2 2\n1 0\n0 1\n")  # square: missing target row
        assert main(["from-cvp", "--in", str(src)]) == 2
        assert "error" in capsys.readouterr().err

    def test_nonsingular_required(self, tmp_path, capsys):
        src = tmp_path / "sing.txt"
        src.write_text("2 2\n1 2\n2 4\n")
        assert main(["mdsp-exact", "--in", str(src)]) == 2
        capsys.readouterr()
