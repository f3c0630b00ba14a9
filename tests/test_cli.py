import argparse
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from latkit.basisio import parse_basis_text, serialize_matrix
from latkit.bench import bench_compare, generate_random_basis, report_to_json
from latkit.cli import build_parser, main
from latkit.errors import ParseError
from latkit.qlinalg import QMatrix, determinant, rational

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

    def test_small_integer_tokens_share_their_fraction(self):
        # an integer token goes through rational(), so a small entry is the
        # one Fraction of its value that every vector holding it shares
        m = parse_basis_text("1 2\n3 -4")
        assert m.data[0][0] is rational(3) and m.data[0][1] is rational(-4)
        assert parse_basis_text("1 1\n+5").data[0][0] is rational(5)
        assert parse_basis_text("1 1\n007").data[0][0] is rational(7)
        # every other token keeps its value and type
        m = parse_basis_text("1 6\n1/2 -6/4 1e3 -0 129 " + str(10**30))
        assert m.data[0] == (F(1, 2), F(-3, 2), F(1000), F(0), F(129), F(10**30))
        assert all(type(e) is F for e in m.data[0])
        for text, col in (("1 2\n1 x/3\n", 3), ("1 2\n+-5 1\n", 1), ("1 2\n2 3.5.1\n", 3)):
            with pytest.raises(ParseError) as e:
                parse_basis_text(text)
            assert (e.value.line, e.value.col) == (2, col)

    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            ("", 1, 1, "missing 'm n' header"),
            ("# only a comment\n3\n", 1, 1, "missing 'm n' header"),
            ("2 two\n1 0\n0 1\n", 1, 3, "bad header token 'two'"),
            ("\n2/1 2\n1 0\n0 1\n", 2, 1, "bad header token '2/1'"),
            ("0 2\n", 1, 1, "header dimensions must be positive"),
            ("# dims\n  2 -1\n", 2, 3, "header dimensions must be positive"),
        ],
        ids=["empty", "one-token", "word", "fraction", "zero-rows", "negative-cols"],
    )
    def test_header_errors(self, text, line, col, message):
        with pytest.raises(ParseError, match=message) as e:
            parse_basis_text(text)
        assert (e.value.line, e.value.col) == (line, col)

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
        r1 = bench_compare([3, 4], 2, F(1, 4), F(99, 100), seed=9, **kwargs)
        r2 = bench_compare([3, 4], 2, F(1, 4), F(99, 100), seed=9, **kwargs)
        assert len(r1.instances) + len(r1.exhausted) == 4
        for a, b in zip(r1.instances, r2.instances):
            assert a.dim == b.dim and a.index == b.index
            assert a.target_norm_sq == b.target_norm_sq
            assert a.achieved_norm_sq == b.achieved_norm_sq
        for inst in r1.instances:
            assert inst.achieved_norm_sq <= inst.target_norm_sq

    def test_needs_an_instance_per_dimension(self):
        with pytest.raises(ValueError, match="instances_per_dim must be at least 1"):
            bench_compare([3], 0, F(1, 4), F(99, 100), seed=1)

    def test_json_schema(self):
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
            (["cvp-brute"], '{"gram": [[1, 2], [2, 1]], "offset": [0, 0], "scale_sq": 1}'),
        ],
        ids=["gamma-sq", "delta", "max-passes", "max-rounds", "bench-dims",
             "gen-dims", "cvp-json", "cvp-zero-denominator", "cvp-offset-length",
             "cvp-scale-minus-3", "cvp-scale-minus-4", "cvp-scale-zero",
             "cvp-not-definite"],
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lll", "--in", "b.txt", "--delta", "3/x"], "not a rational: '3/x'"),
            (["accel", "--in", "b.txt", "--target-norm-sq", "1/0"], "not a rational"),
            (["verify-cert", "--in", "b.txt", "--cert", "0,a"], "not a comma-separated"),
            (["bench", "--dims", "3;4"], "not a comma-separated int list: '3;4'"),
        ],
        ids=["delta", "target-zero-denominator", "cert", "dims"],
    )
    def test_bad_argument_is_usage_error(self, capsys, argv, message):
        # a P/Q or LIST value that does not parse is argparse's usage error
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["mdsp-exact"], "2 3\n1 0 0\n0 1 0\n", "need a square matrix, got 2x3"),
            (["mdsp-exact", "--fixed-index", "2"], "2 2\n0 2\n1 1\n", "outside 0..1"),
            (["mdsp-heur", "--fixed-index", "-1"], "2 2\n0 2\n1 1\n", "outside 0..1"),
            (["verify-cert", "--cert", "0"], "2 2\n0 2\n1 1\n", "--gamma or --gamma-sq"),
            (["gen", "--dims", "3,4"], None, "exactly one dimension"),
        ],
        ids=["non-square", "fixed-index-high", "fixed-index-negative", "no-gamma",
             "gen-two-dims"],
    )
    def test_rank_and_argument_errors_exit_2(self, tmp_path, capsys, argv, text, message):
        if text is not None:
            path = tmp_path / "input"
            path.write_text(text)
            argv = argv[:1] + ["--in", str(path)] + argv[1:]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_accel_target_norm_and_out(self, tmp_path, capsys):
        # --target-norm-sq replaces the delta-high run that sets the default
        # target (38 on this basis); --out holds the printed rows
        path = tmp_path / "basis.txt"
        path.write_text("3 3\n9 2 7\n4 8 1\n3 3 6\n")
        out_path = tmp_path / "accel.txt"
        argv = ["accel", "--in", str(path), "--target-norm-sq", "54", "--json"]
        assert main(argv + ["--out", str(out_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["target_norm_sq"] == "54/1"
        assert out["reached_target"] is True and out["rounds_used"] == 1
        assert F(out["achieved_norm_sq"]) <= 54
        assert parse_basis_text(out_path.read_text()) == QMatrix(out["rows"])

    def test_from_cvp_out_file(self, tmp_path, capsys):
        path = tmp_path / "cvp_basis.txt"
        path.write_text("2 1\n1\n-1/2\n")
        out_path = tmp_path / "inst.txt"
        assert main(["from-cvp", "--in", str(path), "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert parse_basis_text(out_path.read_text()) == QMatrix([[1, 0], [F(1, 2), 1]])
        assert parse_basis_text(printed) == parse_basis_text(out_path.read_text())

    def test_bench_out_file_and_exhausted_line(self, tmp_path, capsys):
        # one round is too few for this instance: the arm exhausts its
        # rounds, so no summary row is left and the last line says so
        out_path = tmp_path / "bench.json"
        argv = [
            "bench", "--dims", "6", "--count", "1", "--seed", "3",
            "--entry-bound", "20", "--max-rounds", "1", "--out", str(out_path),
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].split()[0] == "dim"
        assert lines[1] == "rounds exhausted on 1 instance(s)"
        saved = json.loads(out_path.read_text())
        assert saved["exhausted"] == [{"dim": 6, "index": 0}]
        assert saved["rows"] == [] and saved["summary"] == []

    @pytest.mark.parametrize("command", ["lll", "bench"])
    def test_plain_lll_at_quarter_warns(self, instance_file, capsys, command):
        # both run plain LLL at delta = 1/4 and hand out its basis or timing
        argv = {
            "lll": ["lll", "--in", instance_file, "--delta", "1/4"],
            "bench": [
                "bench", "--dims", "3", "--count", "1", "--entry-bound", "5",
                "--delta-high", "1/4",
            ],
        }[command]
        with pytest.warns(UserWarning, match="delta = 1/4"):
            assert main(argv) == 0
        capsys.readouterr()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["mdsp-exact", "--in", str(tmp_path / "absent.txt")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n1\n")
        assert main(["mdsp-exact", "--in", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cvp-brute", "verify-cert"])
    def test_out_is_refused_where_nothing_is_written(
        self, instance_file, tmp_path, capsys, command
    ):
        # these two commands write no file, so --out is argparse's usage
        # error (exit 2) on inputs they otherwise accept
        form = tmp_path / "form.json"
        form.write_text('{"gram": [["1"]], "offset": ["1/2"], "scale_sq": "4"}')
        argv = {
            "cvp-brute": ["cvp-brute", "--in", str(form)],
            "verify-cert": [
                "verify-cert", "--in", instance_file, "--gamma", "1/2", "--cert", "0"
            ],
        }[command]
        assert main(argv) == 0
        out_path = tmp_path / "out.json"
        with pytest.raises(SystemExit) as e:
            main(argv + ["--out", str(out_path)])
        assert e.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out_path.exists()


# Every subcommand's flags: per command its func, its help and each option
# as (option strings, dest, default, type name, metavar, required, help).
IN = (("--in",), "infile", None, None, "FILE", True, None)
OUT = (("--out",), "out", None, None, "FILE", False, None)
JSON = (("--json",), "json", False, None, None, False, "machine-readable output")
FIXED_INDEX = (("--fixed-index",), "fixed_index", 0, "int", "K", False, None)
PARSER_TABLE = {
    "mdsp-exact": (
        "cmd_mdsp_exact", "exact maximum-distance solver", [IN, OUT, JSON, FIXED_INDEX]
    ),
    "mdsp-heur": (
        "cmd_mdsp_heur",
        "greedy improvement heuristic",
        [
            IN, OUT, JSON, FIXED_INDEX,
            (("--max-passes",), "max_passes", 64, "int", "N", False, None),
        ],
    ),
    "to-cvp": (
        "cmd_to_cvp", "transform an instance to Gram-form CVP", [IN, OUT, JSON, FIXED_INDEX]
    ),
    "from-cvp": (
        "cmd_from_cvp",
        "transform a CVP instance (n basis rows plus target row) back",
        [IN, OUT, JSON],
    ),
    "cvp-brute": ("cmd_cvp_brute", "exact CVP oracle on a Gram-form instance", [IN, JSON]),
    "lll": (
        "cmd_lll",
        "exact integer (fraction-free) LLL reduction",
        [IN, OUT, JSON, (("--delta",), "delta", F(3, 4), "_fraction", "P/Q", False, None)],
    ),
    "accel": (
        "cmd_accel",
        "LLL accelerated by the distance heuristic",
        [
            IN, OUT, JSON,
            (("--delta",), "delta", F(1, 4), "_fraction", "P/Q", False, None),
            (("--delta-high",), "delta_high", F(99, 100), "_fraction", "P/Q", False,
             "sets the target via plain LLL when --target-norm-sq is absent"),
            (("--target-norm-sq",), "target_norm_sq", None, "_fraction", "P/Q", False, None),
            (("--max-rounds",), "max_rounds", 1000, "int", "N", False, None),
        ],
    ),
    "verify-cert": (
        "cmd_verify_cert",
        "check a shift-vector certificate",
        [
            IN, JSON, FIXED_INDEX,
            (("--gamma",), "gamma", None, "_fraction", "P/Q", False, None),
            (("--gamma-sq",), "gamma_sq", None, "_fraction", "P/Q", False, None),
            (("--cert",), "cert", None, "_int_list", "LIST", True,
             "comma-separated shift coordinates"),
        ],
    ),
    "bench": (
        "cmd_bench",
        "two-arm reduction benchmark",
        [
            OUT, JSON,
            (("--dims",), "dims", None, "_int_list", "LIST", True, None),
            (("--count",), "count", 5, "int", "N", False, None),
            (("--seed",), "seed", 1, "int", "N", False, None),
            (("--delta",), "delta", F(1, 4), "_fraction", "P/Q", False, None),
            (("--delta-high",), "delta_high", F(99, 100), "_fraction", "P/Q", False, None),
            (("--entry-bound",), "entry_bound", 100, "int", "N", False, None),
            (("--max-rounds",), "max_rounds", 1000, "int", "N", False, None),
        ],
    ),
    "gen": (
        "cmd_gen",
        "seeded random full-rank integer basis",
        [
            OUT, JSON,
            (("--dims",), "dims", None, "_int_list", "LIST", True, None),
            (("--entry-bound",), "entry_bound", 1000, "int", "N", False, None),
            (("--seed",), "seed", 1, "int", "N", False, None),
        ],
    ),
}


def test_parser_matches_its_table():
    # a change to any subcommand or flag has to edit PARSER_TABLE
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert list(sub.choices) == list(PARSER_TABLE)
    for name, (func, help_text, options) in PARSER_TABLE.items():
        p = sub.choices[name]
        assert (p.get_default("func").__name__, helps[name]) == (func, help_text), name
        got = [
            (tuple(a.option_strings), a.dest, a.default,
             getattr(a.type, "__name__", None), a.metavar, a.required, a.help)
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert got == options, name
