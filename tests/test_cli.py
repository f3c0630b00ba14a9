import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from latkit.basisio import parse_basis_text, serialize_matrix
from latkit.bench import bench_compare, generate_random_basis, report_to_json
from latkit.cli import main
from latkit.errors import ParseError
from latkit.qlinalg import QMatrix, determinant

DATA = Path(__file__).parent / "data"


class TestParse:
    def test_identity(self):
        assert parse_basis_text("2 2\n1 0\n0 1\n") == QMatrix.identity(2)

    def test_rational_tokens(self):
        m = parse_basis_text("1 2\n1/2 -3\n")
        assert m == QMatrix([[F(1, 2), -3]])

    def test_token_count_error(self):
        with pytest.raises(ParseError):
            parse_basis_text("2 2\n1 0\n1\n")

    def test_extra_token_error(self):
        with pytest.raises(ParseError):
            parse_basis_text("1 1\n1 2\n")

    def test_bad_token_position(self):
        with pytest.raises(ParseError) as e:
            parse_basis_text("1 2\n1 x/3\n")
        assert e.value.line == 2
        assert e.value.col == 3

    def test_comments_and_blanks(self):
        text = "# header\n2 2  # dims\n\n1 0\n# middle\n0 1\n"
        assert parse_basis_text(text) == QMatrix.identity(2)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_basis_text("1 1\n1/0\n")

    def test_round_trip_random(self):
        rng = random.Random(173)
        for _ in range(20):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = QMatrix(
                [
                    [F(rng.randint(-99, 99), rng.randint(1, 17)) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            assert parse_basis_text(serialize_matrix(m)) == m


class TestGenerate:
    def test_deterministic(self):
        a = generate_random_basis(6, 50, 42)
        b = generate_random_basis(6, 50, 42)
        assert a == b

    def test_nonsingular(self):
        for seed in range(10):
            m = generate_random_basis(4, 2, seed)
            assert determinant(m) != 0

    def test_frozen_fixture(self):
        m = generate_random_basis(20, 1000, 1)
        frozen = parse_basis_text((DATA / "gen_dim20_bound1000_seed1.txt").read_text())
        assert m == frozen

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_random_basis(1, 5, 0)
        with pytest.raises(ValueError):
            generate_random_basis(4, 0, 0)


class TestBench:
    def test_small_run_reproducible(self):
        kwargs = dict(entry_bound=5, max_rounds=50)
        with pytest.warns(UserWarning, match="delta = 1/4"):
            r1 = bench_compare([3, 4], 2, F(1, 4), F(99, 100), seed=9, **kwargs)
            r2 = bench_compare([3, 4], 2, F(1, 4), F(99, 100), seed=9, **kwargs)
        assert len(r1.instances) + len(r1.exhausted) == 4
        for a, b in zip(r1.instances, r2.instances):
            assert a.dim == b.dim and a.index == b.index
            assert a.target_norm_sq == b.target_norm_sq
            assert a.achieved_norm_sq == b.achieved_norm_sq
        for inst in r1.instances:
            assert inst.achieved_norm_sq <= inst.target_norm_sq

    def test_json_schema(self):
        with pytest.warns(UserWarning, match="delta = 1/4"):
            r = bench_compare([3], 2, F(1, 4), F(99, 100), seed=5, entry_bound=5)
        payload = report_to_json(r)
        assert set(payload) >= {"rows", "seed", "count"}
        for row in payload["rows"]:
            assert set(row) == {
                "dim",
                "t_high_ms",
                "t_low_ms",
                "speedup",
                "target_norm_sq",
                "achieved_norm_sq",
            }
            num, den = row["target_norm_sq"].split("/")
            int(num), int(den)
        for row in r.rows:
            assert row.speedup == pytest.approx(
                row.avg_time_lll_high_delta / row.avg_time_accelerated
            )


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("2 2\n0 2\n1 1\n")
    return str(path)


class TestCLI:
    def test_mdsp_exact_json(self, instance_file, capsys):
        assert main(["mdsp-exact", "--in", instance_file, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"x": [-1], "dist_sq": "2/1"}

    def test_fixed_index(self, instance_file, capsys):
        # row 1 as fixed vector: v=(1,1), B={(0,2)}
        assert main(
            ["mdsp-exact", "--in", instance_file, "--fixed-index", "1", "--json"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        num, den = out["dist_sq"].split("/")
        assert F(int(num), int(den)) > 0

    def test_mdsp_heur(self, instance_file, capsys):
        assert main(
            ["mdsp-heur", "--in", instance_file, "--max-passes", "5", "--json"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is True
        assert out["dist_sq"] == "2/1"

    def test_cvp_pipeline(self, instance_file, tmp_path, capsys):
        cvp_path = str(tmp_path / "cvp.json")
        assert main(
            ["to-cvp", "--in", instance_file, "--out", cvp_path, "--json"]
        ) == 0
        capsys.readouterr()
        saved = json.loads(Path(cvp_path).read_text())
        assert saved["gram"] == [["1/1"]]
        assert saved["offset"] == ["1/2"]
        assert saved["scale_sq"] == "4/1"
        assert main(["cvp-brute", "--in", cvp_path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["j"] == [-1]
        assert out["objective"] == "1/4"
        assert out["recovered_dist_sq"] == "2/1"

    def test_from_cvp(self, tmp_path, capsys):
        path = tmp_path / "cvp_basis.txt"
        path.write_text("2 1\n1\n-1/2\n")  # L = [1], target (-1/2)
        assert main(["from-cvp", "--in", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"] == [["1/1", "0/1"], ["1/2", "1/1"]]
        assert out["fixed_index"] == 0

    def test_lll_and_out_file(self, tmp_path, capsys):
        path = tmp_path / "basis.txt"
        path.write_text("2 2\n1 1\n1 0\n")
        out_path = tmp_path / "reduced.txt"
        assert main(
            ["lll", "--in", str(path), "--delta", "3/4", "--out", str(out_path)]
        ) == 0
        capsys.readouterr()
        reduced = parse_basis_text(out_path.read_text())
        assert reduced == QMatrix([[1, 0], [0, 1]])

    def test_accel(self, tmp_path, capsys, recwarn):
        path = tmp_path / "basis.txt"
        path.write_text("3 3\n9 2 7\n4 8 1\n3 3 6\n")
        assert main(["accel", "--in", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reached_target"] is True
        # the default --delta is the paper's delta_low, 1/4: no warning
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_verify_cert_exit_codes(self, instance_file, capsys):
        assert main(
            ["verify-cert", "--in", instance_file, "--gamma", "1/2", "--cert", "0"]
        ) == 0
        assert main(
            ["verify-cert", "--in", instance_file, "--gamma", "1", "--cert", "0"]
        ) == 1
        capsys.readouterr()

    def test_verify_cert_gamma_sq(self, instance_file, capsys):
        # gamma^2 = dist_sq / |v|^2 = 2/4 accepts exactly
        assert main(
            ["verify-cert", "--in", instance_file, "--gamma-sq", "1/2", "--cert", "-1"]
        ) == 0
        assert main(
            ["verify-cert", "--in", instance_file, "--gamma-sq", "193/384", "--cert", "-1"]
        ) == 1
        capsys.readouterr()

    def test_gen_cli(self, tmp_path, capsys):
        out_path = tmp_path / "gen.txt"
        assert main(
            [
                "gen", "--dims", "4", "--entry-bound", "9", "--seed", "7",
                "--out", str(out_path),
            ]
        ) == 0
        capsys.readouterr()
        m = parse_basis_text(out_path.read_text())
        assert m == generate_random_basis(4, 9, 7)

    def test_bench_cli(self, capsys, recwarn):
        assert main(
            [
                "bench", "--dims", "3", "--count", "1", "--seed", "3",
                "--entry-bound", "5", "--json",
            ]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 1 and out["seed"] == 3
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["verify-cert", "--gamma-sq", "2", "--cert", "0"], "2 2\n0 2\n1 1\n"),
            (["lll", "--delta", "3/2"], "2 2\n0 2\n1 1\n"),
            (["mdsp-heur", "--max-passes", "0"], "2 2\n0 2\n1 1\n"),
            (["accel", "--max-rounds", "0"], "2 2\n0 2\n1 1\n"),
            (["bench", "--dims", "1"], None),
            (["gen", "--dims", "1"], None),
            (["cvp-brute"], "{bad"),
            (["cvp-brute"], '{"gram": [["1/0"]], "offset": ["0"], "scale_sq": "1"}'),
            (["cvp-brute"],
             '{"gram": [[2, 1], [1, 1]], "offset": ["1/3", "1/3", "1/2"], "scale_sq": 1}'),
            # scale_sq is |v|^2: -3 used to print a recovered distance of
            # -12, -4 a ZeroDivisionError traceback and 0 a distance of 0
            (["cvp-brute"], '{"gram": [[1]], "offset": ["1/2"], "scale_sq": "-3"}'),
            (["cvp-brute"], '{"gram": [[1]], "offset": ["1/2"], "scale_sq": "-4"}'),
            (["cvp-brute"], '{"gram": [[1]], "offset": ["1/2"], "scale_sq": "0"}'),
        ],
        ids=["gamma-sq", "delta", "max-passes", "max-rounds", "bench-dims",
             "gen-dims", "cvp-json", "cvp-zero-denominator", "cvp-offset-length",
             "cvp-scale-minus-3", "cvp-scale-minus-4", "cvp-scale-zero"],
    )
    def test_input_error_exits_2(self, tmp_path, capsys, argv, text):
        # out-of-range parameters and malformed files are input errors
        # (exit 2), not tracebacks; verify-cert keeps exit 1 for "rejected"
        if text is not None:
            path = tmp_path / "input"
            path.write_text(text)
            argv = argv[:1] + ["--in", str(path)] + argv[1:]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["mdsp-exact", "--in", str(tmp_path / "absent.txt")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n1\n")
        assert main(["mdsp-exact", "--in", str(path)]) == 2
        assert "error" in capsys.readouterr().err
