"""latkit benchmark: one workload, one process, one thread.

    python3 latbench/run.py --workload reduce --seed 101 --seconds 30 --trace 0

Run from the repository root; latkit is imported from ./src. The inputs
are a fixed, seeded list (never a time box): --seconds only sets how many
whole rounds of stratified inputs the list holds, sized so that a run
lasts about that long on the reference machine. Every output is checked
by the independent checkers in checks.py after the timed loop. The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Nominal seconds one round of each workload takes on the reference
# machine; a run holds round(--seconds / this) rounds.
ROUND_SECONDS = {"reduce": 0.72, "mdsp-exact": 0.36, "certify": 1.9}
SETUP_REPEATS = 5
DELTA_HIGH = Fraction(99, 100)
DELTA_LOW = Fraction(1, 4)
# the reject query sits this relative step above the accepted threshold
GAMMA_STEP = Fraction(1, 1 << 32)

END_TO_END = {"throughput_ops_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "lll.high_ms": "ms", "lll.high_swaps": "count", "lll.high_size_reductions": "count",
    "accel.ms": "ms", "accel.rounds": "count", "accel.swaps": "count",
    "accel.lll_ms": "ms", "accel.heuristic_ms": "ms", "accel.speedup": "ratio",
    "accel.stalls": "count",
    "exact.solve_ms": "ms", "exact.box_points": "count", "exact.us_per_point": "us",
    "cvp.transform_ms": "ms", "cvp.enum_ms": "ms",
    "heuristic.run_ms": "ms", "heuristic.passes": "count",
    "heuristic.shifted_coords": "count", "lattice.verify_ms": "ms",
    "qlinalg.inverse_ms": "ms", "qlinalg.inverse_calls": "count",
    "qlinalg.dist_sq_ms": "ms", "lattice.same_lattice_ms": "ms",
}


def import_latkit():
    """Fresh import of latkit from ./src (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "latkit" or m.startswith("latkit.")]:
        del sys.modules[name]
    lk = importlib.import_module("latkit")
    if Path(lk.__file__).resolve().parent != SRC / "latkit":
        raise ImportError(f"latkit imported from {lk.__file__}, not from {SRC}")
    return lk


class KernelTimer:
    """Times latkit calls made inside other latkit functions.

    Used only in traced runs, around the timed loop: it rebinds the names
    in the calling modules (qlinalg.inverse in lattice and cvp,
    qlinalg.dist_sq_to_span and same_lattice in lattice), so the timed
    work is unchanged apart from the wrapper, and stop() restores them.
    """

    NAMES = (("lattice", "inverse", "inverse"), ("cvp", "inverse", "inverse"),
             ("lattice", "dist_sq_to_span", "dist_sq"),
             ("lattice", "same_lattice", "same_lattice"))

    def __init__(self, lk):
        self.ms = {key: 0.0 for _, _, key in self.NAMES}
        self.calls = {key: 0 for _, _, key in self.NAMES}
        self.saved = []
        for mod_name, attr, key in self.NAMES:
            mod = getattr(lk, mod_name)
            self.saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self._wrap(key, getattr(mod, attr)))

    def _wrap(self, key, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[key] += (time.perf_counter() - t0) * 1000.0
                self.calls[key] += 1
        return timed

    def stop(self):
        for mod, attr, fn in self.saved:
            setattr(mod, attr, fn)


# --- workloads -------------------------------------------------------------
# Each workload has build(lk, raw) -> operations (the timed set-up work) and
# run(lk, op, ctx) -> result, whose "spans" list (name, start, end) times
# each call into latkit; check(raw, result) runs the independent checkers.


def span_ms(res, name):
    return sum((t1 - t0) * 1e3 for n, t0, t1 in res["spans"] if n == name)


def reduce_build(lk, raw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # delta = 1/4 is the paper's setting
        ctx = {"high": lk.LLLParams(DELTA_HIGH), "low": lk.LLLParams(DELTA_LOW)}
    ops = [lk.LatticeBasis([lk.QVector(r) for r in x.rows], validate=False) for x in raw]
    return ops, ctx


def reduce_run(lk, basis, ctx):
    t0 = time.perf_counter()
    high, tr_high = lk.lll_reduce(basis, ctx["high"])
    _, target = lk.shortest_basis_vector(high)
    t1 = time.perf_counter()
    accel, tr_acc = lk.accelerated_reduce(basis, lk.AccelConfig(ctx["low"], target))
    t2 = time.perf_counter()
    return {"high": high, "accel": accel, "reached": bool(tr_acc.reached_target),
            "spans": [("lll.high", t0, t1), ("accel", t1, t2)],
            "high_swaps": tr_high.swap_count,
            "high_size_reductions": tr_high.size_reduction_count,
            "rounds": tr_acc.rounds_used, "accel_swaps": tr_acc.swap_count,
            "accel_lll_ms": tr_acc.lll_time * 1e3,
            "accel_heuristic_ms": tr_acc.heuristic_time * 1e3}


def rows_of(basis):
    return [list(v.entries) for v in basis.vectors]


def reduce_check(x, res):
    return checks.check_reduce(x.rows, rows_of(res["high"]), rows_of(res["accel"]),
                               res["reached"], DELTA_HIGH)


def reduce_layers(results, kt):
    n = len(results)
    mean = lambda key: sum(r[key] for r in results) / n  # noqa: E731
    high = sum(span_ms(r, "lll.high") for r in results) / n
    accel = sum(span_ms(r, "accel") for r in results) / n
    return {
        "lll.high_ms": high, "lll.high_swaps": mean("high_swaps"),
        "lll.high_size_reductions": mean("high_size_reductions"),
        "accel.ms": accel, "accel.rounds": mean("rounds"),
        "accel.swaps": mean("accel_swaps"), "accel.lll_ms": mean("accel_lll_ms"),
        "accel.heuristic_ms": mean("accel_heuristic_ms"),
        "accel.speedup": high / accel,
        "accel.stalls": sum(not r["reached"] for r in results),
    }


def instance_build(lk, raw):
    ops = [lk.MDSPInstance.from_vectors(x.rows[0], x.rows[1:], validate=False) for x in raw]
    return ops, {}


def mdsp_build(lk, raw):
    ops, ctx = instance_build(lk, raw)
    return [(x.kind, inst) for x, inst in zip(raw, ops)], ctx


def mdsp_run_op(lk, op, ctx):
    route, inst = op
    t0 = time.perf_counter()
    if route == "exact":
        sol = lk.solve_exact(inst)
        return {"route": "exact", "x": sol.x, "dist_sq": sol.dist_sq,
                "spans": [("exact.solve", t0, time.perf_counter())]}
    c = lk.mdsp_to_cvp(inst)
    t1 = time.perf_counter()
    s = lk.solve_cvp_bruteforce(c)
    d = lk.recover_mdsp_distance_sq(c, s.j)
    t2 = time.perf_counter()
    return {"route": "cvp", "x": s.j, "dist_sq": d,
            "spans": [("cvp.transform", t0, t1), ("cvp.enum", t1, t2)]}


def mdsp_check(x, res):
    return checks.check_mdsp(x.rows, res["x"], res["dist_sq"]) + (
        checks.check_routes_agree(res["dist_sq"], res["cvp_dist_sq"])
        if res["route"] == "exact" else [])


def mdsp_after(lk, ops, results):
    """Untimed: answer each exact-route instance through the CVP route too."""
    for (route, inst), res in zip(ops, results):
        if res is not None and route == "exact":
            c = lk.mdsp_to_cvp(inst)
            res["cvp_dist_sq"] = lk.recover_mdsp_distance_sq(c, lk.solve_cvp_bruteforce(c).j)
            res["box_points"] = _box_points(lk.shift_ranges(inst))


def _box_points(ranges):
    points = 1
    for lo, hi in zip(ranges.s, ranges.t):
        points *= hi - lo + 1
    return points


def mdsp_layers(results, kt):
    ex = [r for r in results if r["route"] == "exact"]
    cv = [r for r in results if r["route"] == "cvp"]
    solve = sum(span_ms(r, "exact.solve") for r in ex)
    points = sum(r["box_points"] for r in ex)
    return {
        "exact.solve_ms": solve / len(ex), "exact.box_points": points / len(ex),
        "exact.us_per_point": solve * 1e3 / points,
        "cvp.transform_ms": sum(span_ms(r, "cvp.transform") for r in cv) / len(cv),
        "cvp.enum_ms": sum(span_ms(r, "cvp.enum") for r in cv) / len(cv),
        "qlinalg.inverse_ms": kt.ms["inverse"] / len(results),
        "qlinalg.inverse_calls": kt.calls["inverse"] / len(results),
    }


def certify_run(lk, inst, ctx):
    t0 = time.perf_counter()
    out = lk.run_heuristic(inst)
    t1 = time.perf_counter()
    gamma_sq = out.dist_sq / inst.fixed.norm_sq()
    accept = lk.verify_dmdsp_certificate(lk.DMDSPQuery(inst, gamma_sq), out.x_total)
    gamma_hi = gamma_sq * (1 + GAMMA_STEP)
    reject = (lk.verify_dmdsp_certificate(lk.DMDSPQuery(inst, gamma_hi), out.x_total)
              if gamma_hi <= 1 else None)
    t2 = time.perf_counter()
    return {"x": out.x_total, "dist_sq": out.dist_sq, "accept": accept,
            "reject": reject, "gamma_sq": gamma_sq,
            "gamma_hi": gamma_hi if gamma_hi <= 1 else None,
            "passes": out.passes_used,
            "spans": [("heuristic.run", t0, t1), ("lattice.verify", t1, t2)]}


def certify_check(x, res):
    return checks.check_certify(x.rows, res["x"], res["dist_sq"], res["accept"],
                                res["reject"], res["gamma_sq"], res["gamma_hi"])


def certify_layers(results, kt):
    n = len(results)
    return {
        "heuristic.run_ms": sum(span_ms(r, "heuristic.run") for r in results) / n,
        "heuristic.passes": sum(r["passes"] for r in results) / n,
        "heuristic.shifted_coords": sum(sum(1 for a in r["x"] if a) for r in results) / n,
        "lattice.verify_ms": sum(span_ms(r, "lattice.verify") for r in results) / n,
        "qlinalg.inverse_ms": kt.ms["inverse"] / n,
        "qlinalg.inverse_calls": kt.calls["inverse"] / n,
        "qlinalg.dist_sq_ms": kt.ms["dist_sq"] / n,
        "lattice.same_lattice_ms": kt.ms["same_lattice"] / n,
    }


WORKLOADS = {
    "reduce": (lambda s, r: (inputs.reduce_inputs(s, r), 0), reduce_build,
               reduce_run, reduce_check, None, reduce_layers),
    "mdsp-exact": (inputs.mdsp_inputs, mdsp_build, mdsp_run_op, mdsp_check,
                   mdsp_after, mdsp_layers),
    "certify": (lambda s, r: (inputs.certify_inputs(s, r), 0), instance_build,
                certify_run, certify_check, None, certify_layers),
}


def write_spans(args, raw, results, t_run):
    """Traced runs keep every span in memory and write them out at the end:
    latbench/out/<workload>-seed<seed>.spans.json, times in ms from the
    start of the timed loop, each span's parent being its operation."""
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    ops = [{"op": i, "kind": x.kind, "dim": x.dim,
            "spans": [{"name": n, "start_ms": (t0 - t_run) * 1e3,
                       "end_ms": (t1 - t_run) * 1e3} for n, t0, t1 in res["spans"]]}
           for i, (x, res) in enumerate(zip(raw, results)) if res is not None]
    path = out / f"{args.workload}-seed{args.seed}.spans.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "ops": ops}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "latkit" / "__init__.py").is_file():
        print(f"latkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")
    generate, build, run_op, check, after, layers = WORKLOADS[args.workload]

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    raw, set_aside = generate(args.seed, rounds)

    # set-up: fresh import of latkit and construction of its input objects
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lk = import_latkit()
        ops, ctx = build(lk, raw)
        setup.append(time.perf_counter() - t0)
    kt = KernelTimer(lk) if args.trace else None

    results, latencies, failed = [], [], 0
    t_run = time.perf_counter()
    for op in ops:
        gc.collect()
        t0 = time.perf_counter()
        try:
            res = run_op(lk, op, ctx)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation failed: {exc!r}", file=sys.stderr)
            failed += 1
            results.append(None)
            continue
        latencies.append(time.perf_counter() - t0)
        results.append(res)
    if kt is not None:
        kt.stop()

    if after is not None:
        after(lk, ops, results)
    problems = []
    for i, (x, res) in enumerate(zip(raw, results)):
        if res is not None:
            problems += [f"op {i} ({x.kind}, dim {x.dim}): {p}" for p in check(x, res)]
    for p in problems:
        print(p, file=sys.stderr)
    done = [r for r in results if r is not None]
    print(f"{args.workload}: {len(raw)} ops in {rounds} rounds, {set_aside} draws "
          f"set aside, {len(problems)} check problems", file=sys.stderr)

    if args.trace:
        metrics = dict.fromkeys(PER_LAYER, 0)
        if done:
            metrics.update(layers(done, kt))
        units = PER_LAYER
        write_spans(args, raw, results, t_run)
    else:
        metrics = {
            "throughput_ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
            "latency_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
