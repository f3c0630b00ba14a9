"""Smoke-size self-test of the benchmark's checkers.

    python3 latbench/selftest.py

Runs one round of each workload through latkit, requires every checker
to accept the real outputs, then feeds each checker deliberately wrong
answers (an unreduced basis, a perturbed shift, a flipped verdict, ...)
and requires it to reject every one. Exits 0 when all cases behave.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import checks
import inputs
import run


def main() -> int:
    if not (run.SRC / "latkit" / "__init__.py").is_file():
        print(f"latkit sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.warnings.simplefilter("ignore")
    lk = run.import_latkit()
    bad = []

    def expect(name, problems, should_fail):
        ok = bool(problems) == should_fail
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems[:1] or 'accepted'}")
        if not ok:
            bad.append(name)

    # reduce: one uniform and one knapsack basis
    raw = [x for x in inputs.reduce_inputs(7, 1) if x.dim == 14]
    ops, ctx = run.reduce_build(lk, raw)
    for x, op in zip(raw, ops):
        res = run.reduce_run(lk, op, ctx)
        high, accel = run.rows_of(res["high"]), run.rows_of(res["accel"])
        tag = f"reduce/{x.kind}"
        expect(f"{tag} real output", run.reduce_check(x, res), False)
        expect(f"{tag} unreduced basis as the high arm",
               checks.check_reduce(x.rows, x.rows, accel, res["reached"], run.DELTA_HIGH), True)
        doubled = [[2 * e for e in high[0]]] + high[1:]
        expect(f"{tag} high arm with a doubled row",
               checks.check_reduce(x.rows, doubled, accel, res["reached"], run.DELTA_HIGH), True)
        expect(f"{tag} input basis claimed to reach the target",
               checks.check_reduce(x.rows, high, x.rows, True, run.DELTA_HIGH), True)
        expect(f"{tag} target reached but reported missed",
               checks.check_reduce(x.rows, high, high, False, run.DELTA_HIGH), True)
    # same |det|, integral, but (1, 0) is not in the lattice 2Z x Z
    expect("same_lattice with equal |det| outside the lattice",
           checks.check_same_lattice([[2, 0], [0, 1]], [[1, 0], [0, 2]]), True)
    expect("same_lattice with a non-integral row",
           checks.check_same_lattice([[2, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 4]]), True)

    # mdsp-exact: both routes
    raw, _ = inputs.mdsp_inputs(7, 1)
    ops, ctx = run.mdsp_build(lk, raw)
    results = [run.mdsp_run_op(lk, op, ctx) for op in ops]
    run.mdsp_after(lk, ops, results)
    for x, res in zip(raw, results):
        tag = f"mdsp/{res['route']} n={x.dim - 1}"
        expect(f"{tag} real output", run.mdsp_check(x, res), False)
        moved = list(res["x"])
        moved[0] += 1
        expect(f"{tag} perturbed shift, same d^2",
               checks.check_mdsp(x.rows, moved, res["dist_sq"]), True)
        d_moved = checks.distance_sq(x.rows[0], checks.shifted(x.rows, moved))
        if d_moved < res["dist_sq"]:
            expect(f"{tag} worse neighbour with its true d^2",
                   checks.check_mdsp(x.rows, moved, d_moved), True)
        if res["route"] == "exact":
            expect(f"{tag} routes disagree",
                   checks.check_routes_agree(res["dist_sq"], res["dist_sq"] / 2), True)

    # certify: one instance per dimension is too slow for a smoke test
    rng = inputs.stream(7, "certify")
    rows = inputs.uniform_rows(rng, 8, inputs.CERTIFY_BOUND)
    x = inputs.Input("certify", 8, rows)
    (op,), ctx = run.instance_build(lk, [x])
    res = run.certify_run(lk, op, ctx)
    expect("certify real output", run.certify_check(x, res), False)
    args = (res["accept"], res["reject"], res["gamma_sq"], res["gamma_hi"])
    moved = list(res["x"])
    moved[0] += 1
    expect("certify perturbed certificate, same d^2",
           checks.check_certify(rows, moved, res["dist_sq"], *args), True)
    expect("certify non-integer certificate",
           checks.check_certify(rows, [Fraction(-3, 2)] + moved[1:], res["dist_sq"], *args), True)
    expect("certify accept verdict flipped",
           checks.check_certify(rows, res["x"], res["dist_sq"], False, *args[1:]), True)
    expect("certify reject verdict flipped",
           checks.check_certify(rows, res["x"], res["dist_sq"], args[0], True, *args[2:]), True)
    far = [50] + [0] * (len(rows) - 2)
    d_far = checks.distance_sq(rows[0], checks.shifted(rows, far))
    v_sq = checks.dot(rows[0], rows[0])
    expect("certify certificate worse than the start",
           checks.check_certify(rows, far, d_far, True, False, d_far / v_sq,
                                d_far / v_sq * (1 + run.GAMMA_STEP)), True)

    print(f"{len(bad)} self-test case(s) misbehaved" if bad else "all self-test cases behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
