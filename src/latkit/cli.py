"""Command-line interface.

Matrices travel as text files with rows as vectors (see basisio); the row
picked by --fixed-index plays the fixed vector for the sub-lattice
commands. All solver outputs can be emitted as JSON with exact 'p/q'
strings via --json.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .basisio import (
    format_token,
    frac_str,
    parse_basis_file,
    serialize_matrix,
    write_basis_file,
)
from .bench import bench_compare, generate_random_basis, report_to_json
from .cvp import CVPGramInstance, mdsp_to_cvp, cvp_to_mdsp, enumerate_cvp, recover_mdsp_distance_sq
from .errors import LatkitError, RankError
from .exact import solve_exact
from .heuristic import HeuristicConfig, run_heuristic
from .lattice import (
    DMDSPQuery,
    LatticeBasis,
    MDSPInstance,
    apply_shift,
    verify_dmdsp_certificate,
)
from .lll import AccelConfig, LLLParams, accelerated_reduce, lll_reduce
from .qlinalg import QMatrix, QVector, determinant


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None


def _load_square_basis(path: str) -> LatticeBasis:
    m = parse_basis_file(path)
    if m.rows != m.cols:
        raise RankError(f"need a square matrix, got {m.rows}x{m.cols}")
    if determinant(m) == 0:
        raise RankError("input rows are not linearly independent")
    return LatticeBasis(m.row_vectors(), validate=False)


def _load_instance(path: str, fixed_index: int) -> MDSPInstance:
    rows = list(_load_square_basis(path))
    if not (0 <= fixed_index < len(rows)):
        raise RankError(f"--fixed-index {fixed_index} outside 0..{len(rows) - 1}")
    fixed = rows.pop(fixed_index)
    return MDSPInstance(fixed, LatticeBasis(rows, validate=False), validate=False)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(human + "\n")


def _write_vectors(path: str, vectors) -> None:
    write_basis_file(path, QMatrix.from_rows(list(vectors)))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cvp_to_dict(c: CVPGramInstance) -> dict:
    return {
        "gram": [[frac_str(e) for e in row] for row in c.gram.data],
        "offset": [frac_str(e) for e in c.offset.entries],
        "scale_sq": frac_str(c.scale_sq),
    }


def _load_cvp(path: str) -> CVPGramInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        return CVPGramInstance(
            gram=QMatrix([[Fraction(e) for e in row] for row in d["gram"]]),
            offset=QVector([Fraction(e) for e in d["offset"]]),
            scale_sq=Fraction(d["scale_sq"]),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError, LatkitError) as exc:
        raise LatkitError(f"{path}: not a CVP instance ({exc})") from None


def cmd_mdsp_exact(args) -> int:
    inst = _load_instance(args.infile, args.fixed_index)
    sol = solve_exact(inst)
    if args.out:
        _write_vectors(args.out, sol.basis.vectors)
    _emit(
        args,
        {"x": list(sol.x), "dist_sq": frac_str(sol.dist_sq)},
        f"x = {list(sol.x)}\ndist_sq = {format_token(sol.dist_sq)}",
    )
    return 0


def cmd_mdsp_heur(args) -> int:
    inst = _load_instance(args.infile, args.fixed_index)
    out = run_heuristic(inst, HeuristicConfig(max_passes=args.max_passes))
    if args.out:
        _write_vectors(args.out, apply_shift(inst, out.x_total).vectors)
    _emit(
        args,
        {
            "x_total": list(out.x_total),
            "dist_sq": frac_str(out.dist_sq),
            "converged": out.converged,
            "passes_used": out.passes_used,
        },
        f"x_total = {list(out.x_total)}\ndist_sq = {format_token(out.dist_sq)}\n"
        f"converged = {out.converged} after {out.passes_used} pass(es)",
    )
    return 0


def cmd_to_cvp(args) -> int:
    inst = _load_instance(args.infile, args.fixed_index)
    c = mdsp_to_cvp(inst)
    payload = _cvp_to_dict(c)
    if args.out:
        _write_json(args.out, payload)
    _emit(args, payload, json.dumps(payload, indent=2))
    return 0


def cmd_from_cvp(args) -> int:
    m = parse_basis_file(args.infile)
    if m.rows != m.cols + 1:
        raise RankError(
            "from-cvp expects n basis rows plus a final target row "
            f"(got {m.rows}x{m.cols})"
        )
    basis_rows = QMatrix(m.data[:-1])
    target = QVector(m.data[-1])
    inst = cvp_to_mdsp(basis_rows, target)
    rows = [inst.fixed] + list(inst.rest.vectors)
    if args.out:
        _write_vectors(args.out, rows)
    text = serialize_matrix(QMatrix.from_rows(rows))
    _emit(
        args,
        {"rows": [[frac_str(e) for e in r.entries] for r in rows], "fixed_index": 0},
        text.rstrip("\n"),
    )
    return 0


def cmd_cvp_brute(args) -> int:
    c = _load_cvp(args.infile)
    sol = enumerate_cvp(c)
    _emit(
        args,
        {
            "j": list(sol.j),
            "objective": frac_str(sol.objective),
            "recovered_dist_sq": frac_str(recover_mdsp_distance_sq(c, sol.j)),
        },
        f"j = {list(sol.j)}\nobjective = {format_token(sol.objective)}",
    )
    return 0


def cmd_lll(args) -> int:
    basis = _load_square_basis(args.infile)
    reduced, trace = lll_reduce(basis, LLLParams(args.delta))
    if args.out:
        _write_vectors(args.out, reduced.vectors)
    _emit(
        args,
        {
            "shortest_norm_sq": frac_str(trace.final_shortest_norm_sq),
            "swaps": trace.swap_count,
            "size_reductions": trace.size_reduction_count,
            "wall_time_ms": trace.wall_time * 1000.0,
            "rows": [[frac_str(e) for e in v.entries] for v in reduced.vectors],
        },
        f"shortest_norm_sq = {format_token(trace.final_shortest_norm_sq)}\n"
        f"swaps = {trace.swap_count}, size_reductions = {trace.size_reduction_count}",
    )
    return 0


def cmd_accel(args) -> int:
    basis = _load_square_basis(args.infile)
    if args.target_norm_sq is not None:
        target = args.target_norm_sq
    else:
        _, high = lll_reduce(basis, LLLParams(args.delta_high))
        target = high.final_shortest_norm_sq
    cfg = AccelConfig(LLLParams(args.delta), target, max_rounds=args.max_rounds)
    out, trace = accelerated_reduce(basis, cfg)
    if args.out:
        _write_vectors(args.out, out.vectors)
    _emit(
        args,
        {
            "target_norm_sq": frac_str(target),
            "achieved_norm_sq": frac_str(trace.final_shortest_norm_sq),
            "reached_target": trace.reached_target,
            "rounds_used": trace.rounds_used,
            "wall_time_ms": trace.wall_time * 1000.0,
            "rows": [[frac_str(e) for e in v.entries] for v in out.vectors],
        },
        f"target_norm_sq = {format_token(target)}\n"
        f"achieved_norm_sq = {format_token(trace.final_shortest_norm_sq)}\n"
        f"reached_target = {trace.reached_target} in {trace.rounds_used} round(s)",
    )
    return 0


def cmd_verify_cert(args) -> int:
    inst = _load_instance(args.infile, args.fixed_index)
    if args.gamma_sq is not None:
        query = DMDSPQuery(inst, args.gamma_sq)
    elif args.gamma is not None:
        query = DMDSPQuery.from_gamma(inst, args.gamma)
    else:
        raise LatkitError("verify-cert needs --gamma or --gamma-sq")
    accepted = verify_dmdsp_certificate(query, args.cert)
    _emit(
        args,
        {"accepted": accepted, "x": args.cert},
        f"certificate {'accepted' if accepted else 'rejected'}",
    )
    return 0 if accepted else 1


def cmd_bench(args) -> int:
    report = bench_compare(
        args.dims,
        args.count,
        args.delta,
        args.delta_high,
        args.seed,
        entry_bound=args.entry_bound,
        max_rounds=args.max_rounds,
    )
    payload = report_to_json(report)
    if args.out:
        _write_json(args.out, payload)
    lines = [
        f"{'dim':>5} {'avg LLL(hi) ms':>16} {'avg accel ms':>14} {'speedup':>9}"
    ]
    for row in report.rows:
        lines.append(
            f"{row.dimension:>5} {row.avg_time_lll_high_delta:>16.3f} "
            f"{row.avg_time_accelerated:>14.3f} {row.speedup:>9.3f}"
        )
    if report.exhausted:
        lines.append(f"rounds exhausted on {len(report.exhausted)} instance(s)")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_gen(args) -> int:
    if len(args.dims) != 1:
        raise LatkitError("gen expects exactly one dimension in --dims")
    m = generate_random_basis(args.dims[0], args.entry_bound, args.seed)
    text = serialize_matrix(m)
    if args.out:
        write_basis_file(args.out, m)
    _emit(
        args,
        {"rows": [[frac_str(e) for e in row] for row in m.data], "seed": args.seed},
        text.rstrip("\n"),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latkit",
        description="Exact lattice toolkit: maximum-distance sublattices, "
        "CVP bridging, LLL acceleration.",
    )
    parser.add_argument("--version", action="version", version=f"latkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, infile=True, out=True, fixed=False):
        # the flags the subcommands share; fixed adds --fixed-index, the row
        # of the input that plays the fixed vector
        p = sub.add_parser(name, help=help)
        if infile:
            p.add_argument("--in", dest="infile", required=True, metavar="FILE")
        if out:
            p.add_argument("--out", dest="out", metavar="FILE")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if fixed:
            p.add_argument("--fixed-index", type=int, default=0, metavar="K")
        p.set_defaults(func=func)
        return p

    command("mdsp-exact", cmd_mdsp_exact, "exact maximum-distance solver", fixed=True)

    p = command("mdsp-heur", cmd_mdsp_heur, "greedy improvement heuristic", fixed=True)
    p.add_argument("--max-passes", type=int, default=64, metavar="N")

    command("to-cvp", cmd_to_cvp, "transform an instance to Gram-form CVP", fixed=True)
    command(
        "from-cvp", cmd_from_cvp,
        "transform a CVP instance (n basis rows plus target row) back",
    )
    command(
        "cvp-brute", cmd_cvp_brute, "exact CVP oracle on a Gram-form instance", out=False
    )

    p = command("lll", cmd_lll, "exact integer (fraction-free) LLL reduction")
    p.add_argument("--delta", type=_fraction, default=Fraction(3, 4), metavar="P/Q")

    p = command("accel", cmd_accel, "LLL accelerated by the distance heuristic")
    p.add_argument("--delta", type=_fraction, default=Fraction(1, 4), metavar="P/Q")
    p.add_argument(
        "--delta-high",
        type=_fraction,
        default=Fraction(99, 100),
        metavar="P/Q",
        help="sets the target via plain LLL when --target-norm-sq is absent",
    )
    p.add_argument("--target-norm-sq", type=_fraction, default=None, metavar="P/Q")
    p.add_argument("--max-rounds", type=int, default=1000, metavar="N")

    p = command(
        "verify-cert", cmd_verify_cert, "check a shift-vector certificate",
        out=False, fixed=True,
    )
    p.add_argument("--gamma", type=_fraction, default=None, metavar="P/Q")
    p.add_argument("--gamma-sq", type=_fraction, default=None, metavar="P/Q")
    p.add_argument(
        "--cert", type=_int_list, required=True, metavar="LIST",
        help="comma-separated shift coordinates",
    )

    p = command("bench", cmd_bench, "two-arm reduction benchmark", infile=False)
    p.add_argument("--dims", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--count", type=int, default=5, metavar="N")
    p.add_argument("--seed", type=int, default=1, metavar="N")
    p.add_argument("--delta", type=_fraction, default=Fraction(1, 4), metavar="P/Q")
    p.add_argument(
        "--delta-high", type=_fraction, default=Fraction(99, 100), metavar="P/Q"
    )
    p.add_argument("--entry-bound", type=int, default=100, metavar="N")
    p.add_argument("--max-rounds", type=int, default=1000, metavar="N")

    p = command("gen", cmd_gen, "seeded random full-rank integer basis", infile=False)
    p.add_argument("--dims", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--entry-bound", type=int, default=1000, metavar="N")
    p.add_argument("--seed", type=int, default=1, metavar="N")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LatkitError, OSError, ValueError) as exc:  # ValueError: a bad parameter
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
