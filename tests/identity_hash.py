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
the public fields. The "core" line adds the exact linear algebra that the
workloads do not reach (inverse, same_lattice, is_unimodular), the
instance utilities built on it (cvp_to_mdsp, certificate_bounds), the
identity det([v|B])^2 = relvol^2(B) dist^2(v, span B) and the public fields
of mdsp_to_cvp's instance, on seeded rational matrices of order 1 to 8, a
tenth of them singular; a call that raises contributes its exception's
name. Each matrix's determinant and det([v|B]) in those records come from
naive_det of tests/oracles.py. The "ties" line adds inputs with many tied
optima, where only the lexicographic tie rule fixes the answer: diagonal
CVP forms with half-integer offsets, and MDSP instances
b_i = a_i e_0 + e_{i+1}, v = 2 e_0 with every a_i odd (2^n maximizers),
among them the n = 7 case of the exact solver's tests. latkit is imported
from the src/ of the checkout that holds this file. The five digests are
pinned in EXPECTED: the script exits 0 when all five match and 1 when any
moved, naming each one that did, so one run in one checkout shows whether
a refactor kept the outputs bit-identical. A change that means to alter
outputs updates EXPECTED and says why. The name does not start with
test_, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "latbench")]

import inputs  # noqa: E402  (latbench/inputs.py)
import latkit as lk  # noqa: E402
from oracles import naive_det  # noqa: E402  (tests/oracles.py)
from latkit.qlinalg import adjugate_spd, integer_gram  # noqa: E402

# the digests of the outputs as they stand; any refactor must keep them
EXPECTED = {
    "identity": "c0b52095a1f45d9782657c26323638dedb49d0c04e806c745a6bf19f225abbe4",
    "extended": "2751c4740fd23bab30d8966ca1c95ce39be475a39f432a384ad47b39d43f7076",
    "large": "d953ea7722d0ab742f5589b061b0774b85e92d223d8cd5d6713e6ad37e1e4908",
    "core": "79bf965488bde07413126c05685b187316fea5c37160843416d56922bb852205",
    "ties": "4db16c8d148750e6dfc29021813f0beb65b012e8c23e03d213bd3395e79e9eba",
}
SEEDS = (101, 102)
# rounds a --seconds 30 latbench run draws per workload
ROUNDS = {"reduce": 42, "mdsp-exact": 83, "certify": 16}
GAMMA_STEP = Fraction(1, 1 << 32)
# large: n = 7..10 with LARGE_PER_N draws each, entries in +-LARGE_BOUND
LARGE_NS = range(7, 11)
LARGE_PER_N = 5
LARGE_BOUND = 100
# core: CORE_PER_N matrices of each order n = 1..8, entries p/q with
# |p| <= CORE_BOUND and 1 <= q <= CORE_DEN
CORE_NS = range(1, 9)
CORE_PER_N = 5
CORE_BOUND = 9
CORE_DEN = 6
# ties: forms and instances of order 1..TIE_MAX_N
TIE_MAX_N = 7
LARGER_N_TIE = (1, 3, -1, 5, 1, -3, 1)  # a_i of the exact solver's n = 7 tie test


def rows_of(basis):
    return [list(v.entries) for v in basis.vectors]


def counts(trace):
    return (trace.swap_count, trace.size_reduction_count,
            trace.final_shortest_norm_sq, trace.rounds_used, trace.reached_target)


def reduce_records(seed):
    high_p = lk.LLLParams(Fraction(99, 100))
    low_p = lk.LLLParams(Fraction(1, 4))
    for x in inputs.reduce_inputs(seed, ROUNDS["reduce"]):
        basis = lk.LatticeBasis([lk.QVector(r) for r in x.rows], validate=False)
        yield adjugate_spd(integer_gram(x.rows))[0]
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
        cvp = lk.enumerate_cvp(c)
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
            cvp = lk.enumerate_cvp(c)
            rebuilt = lk.enumerate_cvp(lk.CVPGramInstance(c.gram, c.offset, c.scale_sq))
            yield (cvp.j, cvp.objective, lk.recover_mdsp_distance_sq(c, cvp.j),
                   rebuilt.j, rebuilt.objective)


def call(f, *args):
    """f(*args), or the name of the exception it raises."""
    try:
        return f(*args)
    except Exception as e:
        return type(e).__name__


def core_entry(rng):
    return Fraction(rng.randint(-CORE_BOUND, CORE_BOUND), rng.randint(1, CORE_DEN))


def core_matrix(rng, n):
    """n x n rational matrix with some denominator above 1; one in ten has a
    row that is a multiple of another, one in twenty a zero column."""
    while True:
        rows = [[core_entry(rng) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.below(10) == 0:
            i = rng.below(n)
            j = (i + 1 + rng.below(n - 1)) % n
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows[i] = [c * e for e in rows[j]]
        if rng.below(20) == 0:
            col = rng.below(n)
            for row in rows:
                row[col] = Fraction(0)
        if any(e.denominator > 1 for row in rows for e in row):
            return rows


def unimodular(rng, n):
    """Product of 2n random integer shears of the identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i = rng.below(n)
        j = (i + 1 + rng.below(n - 1)) % n
        c = rng.randint(-3, 3)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return lk.QMatrix(u)


def det_identity(inst):
    """det([v|B])^2 == relvol^2(B) dist^2(v, span B), exact."""
    lhs = naive_det(inst.full_matrix().data) ** 2
    return lhs == lk.rel_volume_sq(inst.rest.vectors) * lk.dist_sq_to_span(
        inst.fixed, inst.rest.vectors)


def core_records(seed):
    rng = inputs.stream(seed, "identity-core")
    for n in CORE_NS:
        for _ in range(CORE_PER_N):
            rows = core_matrix(rng, n)
            m = lk.QMatrix(rows)
            t = lk.QVector([core_entry(rng) for _ in range(n)])
            u = unimodular(rng, n)
            two = lk.QMatrix([[2 * (i == j) for j in range(n)] for i in range(n)])
            yield (naive_det(rows), call(lk.inverse, m),
                   lk.is_unimodular(m), lk.is_unimodular(u),
                   call(lk.same_lattice, m, m @ u), call(lk.same_lattice, m, m @ two))
            yield call(lk.cvp_to_mdsp, m, t)
            if n < 2:
                continue
            inst = instance(rows)
            cvp = call(lk.mdsp_to_cvp, inst)
            yield (call(lk.certificate_bounds, inst), call(det_identity, inst),
                   cvp if isinstance(cvp, str) else (cvp.gram, cvp.offset, cvp.scale_sq))


def tie_instance(a, k):
    """b_i = a_i e_0 + e_{i+1}, v = 2 e_0, the whole lattice divided by k."""
    n = len(a)
    v = [Fraction(2, k)] + [Fraction(0)] * n
    basis = [[Fraction(ai, k)] + [Fraction(int(j == i), k) for j in range(n)]
             for i, ai in enumerate(a)]
    return instance([v, *basis])


def ties_records(seed):
    rng = inputs.stream(seed, "identity-ties")
    for n in range(1, TIE_MAX_N + 1):
        diag = [[Fraction(rng.randint(1, 9), rng.randint(1, 3)) if i == j else 0
                 for j in range(n)] for i in range(n)]
        offset = [Fraction(2 * rng.randint(-4, 4) + 1, 2) for _ in range(n)]
        c = lk.CVPGramInstance(lk.QMatrix(diag), lk.QVector(offset), Fraction(1))
        yield lk.enumerate_cvp(c)
        a = tuple(2 * rng.randint(-4, 4) + 1 for _ in range(n))
        for inst in (tie_instance(a, 1), tie_instance(a, 3)):
            sol = lk.solve_exact(inst)
            c = lk.mdsp_to_cvp(inst)
            rebuilt = lk.CVPGramInstance(c.gram, c.offset, c.scale_sq)
            yield sol.x, sol.dist_sq, lk.enumerate_cvp(c), lk.enumerate_cvp(rebuilt)
    for k in (1, 3):
        sol = lk.solve_exact(tie_instance(LARGER_N_TIE, k))
        yield sol.x, sol.dist_sq, rows_of(sol.basis)


def certify_records(seed):
    for x in inputs.certify_inputs(seed, ROUNDS["certify"]):
        inst = instance(x.rows)
        yield adjugate_spd(integer_gram([*x.rows[1:], x.rows[0]]))[0]
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
    got = {}

    def close(name):
        got[name] = digest.hexdigest()
        print(f"{name} {got[name]}")

    for name, records in (("reduce", reduce_records), ("mdsp-exact", mdsp_records),
                          ("certify", certify_records)):
        for seed in SEEDS:
            hash_part(digest, name, seed, records(seed))
    close("identity")
    for seed in SEEDS:
        hash_part(digest, "mdsp-exact rational", seed, mdsp_records(seed, rational=True))
    close("extended")
    for seed in SEEDS:
        hash_part(digest, "large", seed, large_records(seed))
    close("large")
    for name, records in (("core", core_records), ("ties", ties_records)):
        for seed in SEEDS:
            hash_part(digest, name, seed, records(seed))
        close(name)
    moved = [name for name, want in EXPECTED.items() if got[name] != want]
    for name in moved:
        print(f"MOVED {name}: expected {EXPECTED[name][:8]}..., got {got[name][:8]}...")
    print("all five digests match" if not moved else f"{len(moved)} of 5 digests moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
