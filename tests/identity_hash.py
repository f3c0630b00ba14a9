"""SHA-256 over latkit's outputs on the benchmark's inputs.

    python3 tests/identity_hash.py

Draws the inputs of the three latbench workloads (reduce, mdsp-exact,
certify) for seeds 101 and 102 from latbench/inputs.py, with as many
rounds as a --seconds 30 run of latbench, runs the latkit calls those
workloads make on them and prints one SHA-256 over every output and
every trace count (times are left out). The "identity" line covers those
workloads as they are; the "extended" line adds a rational copy of the
mdsp-exact inputs (each vector divided by a small denominator, so the
scaled rows have scale > 1) run through solve_exact and the CVP route.
The "large" line adds instances of rank n + 1 for n = 7 to 10, beyond
the benchmark's n <= 6, drawn with inputs.uniform_rows from this
script's own SplitMix64 streams, with their rational copies, through
solve_exact, the CVP route and enumerate_cvp on an instance rebuilt from
the public fields. latkit is imported from the src/ of the checkout that holds this file, so
running the script in two checkouts shows whether a refactor kept the
outputs bit-identical. The name does not start with test_, so pytest does
not collect it.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "latbench")]

import inputs  # noqa: E402  (latbench/inputs.py)
import latkit as lk  # noqa: E402
from latkit.cvp import enumerate_cvp  # noqa: E402
from latkit.qlinalg import adjugate_spd, integer_gram  # noqa: E402

SEEDS = (101, 102)
# rounds a --seconds 30 latbench run draws per workload
ROUNDS = {"reduce": 42, "mdsp-exact": 83, "certify": 16}
GAMMA_STEP = Fraction(1, 1 << 32)
# large: n = 7..10 with LARGE_PER_N draws each, entries in +-LARGE_BOUND
LARGE_NS = range(7, 11)
LARGE_PER_N = 5
LARGE_BOUND = 100


def rows_of(basis):
    return [list(v.entries) for v in basis.vectors]


def counts(trace):
    return (trace.swap_count, trace.size_reduction_count,
            trace.final_shortest_norm_sq, trace.rounds_used, trace.reached_target)


def reduce_records(seed):
    high_p = lk.LLLParams(Fraction(99, 100))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # delta = 1/4 is the paper's setting
        low_p = lk.LLLParams(Fraction(1, 4))
    for x in inputs.reduce_inputs(seed, ROUNDS["reduce"]):
        basis = lk.LatticeBasis([lk.QVector(r) for r in x.rows], validate=False)
        yield adjugate_spd(integer_gram(x.rows))
        high, tr = lk.lll_reduce(basis, high_p)
        vec, target = lk.shortest_basis_vector(high)
        yield rows_of(high), counts(tr), list(vec.entries), target
        for passes in (1, 2):
            cfg = lk.AccelConfig(low_p, target, heuristic_passes=passes)
            accel, tr = lk.accelerated_reduce(basis, cfg)
            yield passes, rows_of(accel), counts(tr)


def instance(rows):
    return lk.MDSPInstance.from_vectors(rows[0], rows[1:], validate=False)


def rational_copy(k, rows):
    """Row i of the k-th instance divided by 1 + (k + 2 i) % 6."""
    return [[Fraction(e, 1 + (k + 2 * i) % 6) for e in row] for i, row in enumerate(rows)]


def mdsp_records(seed, rational=False):
    raw, set_aside = inputs.mdsp_inputs(seed, ROUNDS["mdsp-exact"])
    yield set_aside
    for k, x in enumerate(raw):
        inst = instance(rational_copy(k, x.rows) if rational else x.rows)
        sol = lk.solve_exact(inst)
        yield sol.x, sol.dist_sq, rows_of(sol.basis)
        c = lk.mdsp_to_cvp(inst)
        cvp = lk.solve_cvp_bruteforce(c)
        yield ([list(r) for r in c.gram.data], list(c.offset.entries), c.scale_sq,
               cvp.j, cvp.objective, c.objective(cvp.j),
               lk.recover_mdsp_distance_sq(c, cvp.j))


def large_records(seed):
    rng = inputs.stream(seed, "identity-large")
    raw = [inputs.uniform_rows(rng, n + 1, LARGE_BOUND)
           for n in LARGE_NS for _ in range(LARGE_PER_N)]
    for k, rows in enumerate(raw):
        for inst in (instance(rows), instance(rational_copy(k, rows))):
            sol = lk.solve_exact(inst)
            yield sol.x, sol.dist_sq, rows_of(sol.basis)
            c = lk.mdsp_to_cvp(inst)
            cvp = enumerate_cvp(c)
            rebuilt = enumerate_cvp(lk.CVPGramInstance(c.gram, c.offset, c.scale_sq))
            yield (cvp.j, cvp.objective, lk.recover_mdsp_distance_sq(c, cvp.j),
                   rebuilt.j, rebuilt.objective)


def certify_records(seed):
    for x in inputs.certify_inputs(seed, ROUNDS["certify"]):
        inst = instance(x.rows)
        yield adjugate_spd(integer_gram([*x.rows[1:], x.rows[0]]))
        out = lk.run_heuristic(inst)
        gamma_sq = out.dist_sq / inst.fixed.norm_sq()
        verdicts = [lk.verify_dmdsp_certificate(lk.DMDSPQuery(inst, g), out.x_total)
                    for g in (gamma_sq, gamma_sq * (1 + GAMMA_STEP)) if g <= 1]
        yield out.x_total, out.dist_sq, out.converged, out.passes_used, verdicts


def hash_part(digest, name, seed, records):
    part = hashlib.sha256()
    for rec in records:
        part.update(repr(rec).encode())
        part.update(b"\n")
    print(f"{name} seed {seed}: {part.hexdigest()}")
    digest.update(part.digest())


def main() -> int:
    digest = hashlib.sha256()
    for name, records in (("reduce", reduce_records), ("mdsp-exact", mdsp_records),
                          ("certify", certify_records)):
        for seed in SEEDS:
            hash_part(digest, name, seed, records(seed))
    print(f"identity {digest.hexdigest()}")
    for seed in SEEDS:
        hash_part(digest, "mdsp-exact rational", seed, mdsp_records(seed, rational=True))
    print(f"extended {digest.hexdigest()}")
    for seed in SEEDS:
        hash_part(digest, "large", seed, large_records(seed))
    print(f"large {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
