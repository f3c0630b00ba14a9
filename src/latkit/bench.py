"""Seeded random bases and the two-arm reduction benchmark.

Each instance is reduced twice: once with plain high-delta LLL (its
shortest basis vector sets the target norm), once with the accelerated
low-delta loop chasing that target. Wall times of the two arms give the
per-dimension speedup. Everything except the times is reproducible from
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import LatticeBasis
from .lll import AccelConfig, LLLParams, accelerated_reduce, lll_reduce
from .basisio import frac_str
from .errors import DependentInput
from .qlinalg import QMatrix, rel_volume_sq


def generate_random_basis(dim: int, entry_bound: int, seed: int) -> QMatrix:
    """Full-rank integer matrix, entries uniform in [-entry_bound, entry_bound].

    Rows are the basis vectors. Redraws whole matrices until nonsingular;
    deterministic for a fixed seed.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if entry_bound < 1:
        raise ValueError("entry_bound must be at least 1")
    rng = random.Random(seed)
    while True:
        rows = [
            [rng.randint(-entry_bound, entry_bound) for _ in range(dim)]
            for _ in range(dim)
        ]
        m = QMatrix(rows)
        try:
            rel_volume_sq(m.row_vectors())
        except DependentInput:
            continue
        return m


def _instance_seed(seed: int, dim: int, index: int) -> int:
    return seed * 1_000_003 + dim * 1_021 + index


@dataclass(frozen=True)
class BenchInstance:
    """One benchmarked basis: timings and achieved norms for both arms."""

    dim: int
    index: int
    t_high_ms: float
    t_low_ms: float
    speedup: float
    target_norm_sq: Fraction
    achieved_norm_sq: Fraction
    reached_target: bool
    rounds_used: int
    lll_time_ms: float
    heuristic_time_ms: float


@dataclass(frozen=True)
class BenchRow:
    """Per-dimension aggregate over the instances that reached the target."""

    dimension: int
    avg_time_lll_high_delta: float
    avg_time_accelerated: float
    speedup: float


@dataclass
class BenchReport:
    rows: list[BenchRow]
    instances: list[BenchInstance]
    exhausted: list[BenchInstance]
    instance_count: int
    seed: int
    delta_low: Fraction = Fraction(1, 4)
    delta_high: Fraction = Fraction(99, 100)


def _bench_one(
    dim: int,
    index: int,
    seed: int,
    delta_low: Fraction,
    delta_high: Fraction,
    entry_bound: int,
    max_rounds: int,
) -> BenchInstance:
    m = generate_random_basis(dim, entry_bound, _instance_seed(seed, dim, index))
    basis = LatticeBasis(m.row_vectors(), validate=False)
    _, trace_high = lll_reduce(basis, LLLParams(delta_high))
    target = trace_high.final_shortest_norm_sq
    cfg = AccelConfig(LLLParams(delta_low), target, max_rounds=max_rounds)
    _, trace_low = accelerated_reduce(basis, cfg)
    t_high = trace_high.wall_time * 1000.0
    t_low = trace_low.wall_time * 1000.0
    return BenchInstance(
        dim=dim,
        index=index,
        t_high_ms=t_high,
        t_low_ms=t_low,
        speedup=t_high / t_low if t_low > 0 else float("inf"),
        target_norm_sq=target,
        achieved_norm_sq=trace_low.final_shortest_norm_sq,
        reached_target=bool(trace_low.reached_target),
        rounds_used=trace_low.rounds_used,
        lll_time_ms=trace_low.lll_time * 1000.0,
        heuristic_time_ms=trace_low.heuristic_time * 1000.0,
    )


def bench_compare(
    dims: Sequence[int],
    instances_per_dim: int,
    delta_low,
    delta_high,
    seed: int,
    *,
    entry_bound: int = 100,
    max_rounds: int = 1000,
) -> BenchReport:
    """Run both arms over seeded random bases and aggregate per dimension.

    Instances whose accelerated run exhausted its rounds are reported
    separately and excluded from the averages.
    """
    if instances_per_dim < 1:
        raise ValueError("instances_per_dim must be at least 1")
    delta_low = Fraction(delta_low)
    delta_high = Fraction(delta_high)
    results = [
        _bench_one(dim, idx, seed, delta_low, delta_high, entry_bound, max_rounds)
        for dim in dims
        for idx in range(instances_per_dim)
    ]
    # deterministic fold ordered by (dim, instance index)
    results.sort(key=lambda r: (r.dim, r.index))
    ok = [r for r in results if r.reached_target]
    bad = [r for r in results if not r.reached_target]
    rows = []
    for dim in dims:
        per = [r for r in ok if r.dim == dim]
        if not per:
            continue
        avg_high = sum(r.t_high_ms for r in per) / len(per)
        avg_low = sum(r.t_low_ms for r in per) / len(per)
        rows.append(
            BenchRow(
                dimension=dim,
                avg_time_lll_high_delta=avg_high,
                avg_time_accelerated=avg_low,
                speedup=avg_high / avg_low if avg_low > 0 else float("inf"),
            )
        )
    return BenchReport(
        rows=rows,
        instances=ok,
        exhausted=bad,
        instance_count=instances_per_dim,
        seed=seed,
        delta_low=delta_low,
        delta_high=delta_high,
    )


def report_to_json(report: BenchReport) -> dict:
    """Machine-readable form; norms are exact 'p/q' strings."""
    return {
        "rows": [
            {
                "dim": r.dim,
                "t_high_ms": r.t_high_ms,
                "t_low_ms": r.t_low_ms,
                "speedup": r.speedup,
                "target_norm_sq": frac_str(r.target_norm_sq),
                "achieved_norm_sq": frac_str(r.achieved_norm_sq),
            }
            for r in report.instances
        ],
        "seed": report.seed,
        "count": report.instance_count,
        "summary": [
            {
                "dimension": row.dimension,
                "avg_time_lll_high_delta_ms": row.avg_time_lll_high_delta,
                "avg_time_accelerated_ms": row.avg_time_accelerated,
                "speedup": row.speedup,
            }
            for row in report.rows
        ],
        "exhausted": [
            {"dim": r.dim, "index": r.index} for r in report.exhausted
        ],
    }
