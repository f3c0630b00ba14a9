"""Greedy single-coordinate improvement of the sub-lattice distance.

One pass visits each basis vector in order, replaces b_i by b_i - a*v for
the integer a that minimizes the residual projection of v in the plane
orthogonal to the other basis vectors, and commits the change before
moving on. Passes repeat until a full pass makes no change or a cap is
hit; the distance never decreases along the way, but termination at the
optimum is not guaranteed in general.

The residual quantities for every coordinate are ratios of minors of the
integer-scaled Gram matrix of (b_1..b_n, v), and all of them share one
positive denominator per coordinate. They are read off the adjugate of
that Gram matrix. One fraction-free elimination builds the adjugate; a
committed shift is a unimodular change of basis, under which the adjugate
is updated exactly in O(n) operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DegenerateResidual, IndexOutOfRange
from .lattice import MDSPInstance, apply_shift
from .qlinalg import QVector, adjugate_spd, integer_gram, integer_rows


@dataclass(frozen=True)
class HeuristicConfig:
    max_passes: int = 64

    def __post_init__(self):
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass(frozen=True)
class HeuristicOutcome:
    """Accumulated shifts, final distance, and convergence status."""

    x_total: tuple[int, ...]
    dist_sq: Fraction
    converged: bool
    passes_used: int


class _GramState:
    """Integer rows b_0..b_{n-1}, the fixed vector v = rows[n], and the
    adjugate of their bordered Gram matrix.

    gram is the Gram matrix of all rows; its leading (n+1)x(n+1) block is
    the bordered Gram matrix. Rows past index n are never shifted, but
    committed shifts keep all of gram current, as well as the adjugate.
    Integer rows come from scaling by a positive constant, under which
    every shift choice is invariant.
    """

    def __init__(
        self, rows: list[list[int]], n: int, gram: list[list[int]], adj: list[list[int]]
    ):
        self.rows = rows
        self.n = n
        self.gram = gram
        self._adj = adj

    def moments(self, i: int) -> tuple[int, int, int]:
        """Numerators of (|v''|^2, v''.b_i'', |b_i''|^2) over one positive
        common denominator, for coordinate i."""
        adj = self._adj
        last = self.n
        return adj[i][i], -adj[last][i], adj[last][last]

    def apply_shift(self, i: int, a: int) -> None:
        """Commit b_i := b_i - a v.

        With rows as the rows of B, the shift is B := E B for
        E = I - a e_i e_v^T, so G := E G E^T, and det E = 1 gives
        adj(G) := E^-T adj(G) E^-1: add a*(row i) to row v, then
        a*(column i) to column v.
        """
        f = self.n
        rows = self.rows
        rows[i] = [x - a * y for x, y in zip(rows[i], rows[f])]
        g = self.gram
        gi, gf = g[i], g[f]
        for k in range(len(gi)):
            gi[k] -= a * gf[k]
        for row in g:
            row[i] -= a * row[f]
        adj = self._adj
        ai, af = adj[i], adj[f]
        for k in range(len(af)):
            af[k] += a * ai[k]
        for row in adj:
            row[f] += a * row[i]

    def _det(self) -> int:
        """det(G): row v of G times column v of adj(G), which is symmetric."""
        f = self.n
        return sum(map(mul, self.gram[f][: f + 1], self._adj[f]))

    def dist_sq(self, scale: int) -> Fraction:
        """dist^2(v, span(b_0..b_{n-1})) for rows scaled by scale.

        It is det(G) / det(G_B) / scale^2, and det(G_B) is the last diagonal
        entry of adj(G).
        """
        f = self.n
        return Fraction(self._det(), self._adj[f][f] * scale * scale)

    def leading_adjugate(self) -> list[list[int]]:
        """adj(G_B), G_B being G without the row and column of v.

        By Jacobi's identity on the 2x2 minors of adj(G),
        adj(G_B)[j][k] = (adj[j][k] adj[v][v] - adj[j][v] adj[v][k]) / det(G),
        an exact division: O(n^2) instead of a new elimination.
        """
        f = self.n
        adj = self._adj
        af = adj[f]
        aff = af[f]
        det = self._det()
        return [
            [(aj[k] * aff - aj[f] * af[k]) // det for k in range(f)] for aj in adj[:f]
        ]


def _state(inst: MDSPInstance) -> tuple[_GramState, int]:
    """Gram state of an instance, with the scale of its integer rows."""
    rows, scale = integer_rows(inst.rest.vectors + (inst.fixed,))
    gram = integer_gram(rows)
    return _GramState(rows, inst.n, gram, adjugate_spd(gram)), scale


def _choose_shift(s: int, w: int, t: int) -> int:
    """Integer a in {floor, ceil} of w/s minimizing the residual projection.

    The squared projection of v'' on the line of b_i'' - a v'' is
    (w - a s)^2 / (t - 2 a w + a^2 s) up to a positive common factor;
    magnitudes are compared in exact squared form and a floor/ceil tie
    keeps the floor.
    """
    if s <= 0:
        raise DegenerateResidual("fixed vector lies in the span of the others")
    a1 = w // s  # floor; s is positive
    a2 = -((-w) // s)
    if a1 == a2:
        return a1
    n1 = (w - a1 * s) ** 2
    d1 = t - 2 * a1 * w + a1 * a1 * s
    n2 = (w - a2 * s) ** 2
    d2 = t - 2 * a2 * w + a2 * a2 * s
    return a1 if n1 * d2 <= n2 * d1 else a2


def improve_coordinate(inst: MDSPInstance, i: int) -> tuple[int, QVector]:
    """Best integer shift for coordinate i and the updated vector b_i - a*v.

    A zero shift means the coordinate is already optimal. Replacing b_i by
    the returned vector never decreases dist(v, span(B)).
    """
    if not (0 <= i < inst.n):
        raise IndexOutOfRange(f"coordinate {i} outside [0, {inst.n})")
    state, _ = _state(inst)
    a = _choose_shift(*state.moments(i))
    return a, inst.rest.vectors[i] - inst.fixed.scaled(a)


def _pass_over(state: _GramState) -> tuple[bool, list[int]]:
    deltas = [0] * state.n
    changed = False
    for i in range(state.n):
        s, w, t = state.moments(i)
        a = _choose_shift(s, w, t)
        if a != 0:
            state.apply_shift(i, a)
            deltas[i] = -a
            changed = True
    return changed, deltas


def improve_pass(inst: MDSPInstance) -> tuple[MDSPInstance, bool]:
    """One in-order sweep over all coordinates, committing each improvement."""
    state, _ = _state(inst)
    changed, deltas = _pass_over(state)
    if not changed:
        return inst, False
    return MDSPInstance(inst.fixed, apply_shift(inst, deltas), validate=False), True


def run_heuristic(inst: MDSPInstance, cfg: HeuristicConfig = HeuristicConfig()) -> HeuristicOutcome:
    """Sweep until a pass makes no update or cfg.max_passes is reached."""
    state, scale = _state(inst)
    x_total = [0] * inst.n
    converged = False
    passes = 0
    for _ in range(cfg.max_passes):
        passes += 1
        changed, deltas = _pass_over(state)
        for i, d in enumerate(deltas):
            x_total[i] += d
        if not changed:
            converged = True
            break
    return HeuristicOutcome(tuple(x_total), state.dist_sq(scale), converged, passes)


def _sweep_prefixes(rows: list[list[int]], passes: int) -> list[list[int]]:
    """Heuristic sweep over the prefixes of integer rows, in place.

    For i = n-1 down to 1, b_i is the fixed vector over b_0..b_{i-1}, with
    up to `passes` passes, and the improved prefix is used at once. The
    bordered Gram matrix of prefix i is the leading (i+1)x(i+1) block of
    the Gram matrix of all rows, which committed shifts keep current; it
    is returned. One elimination gives the adjugate for i = n-1, and each
    later prefix takes its adjugate from the one before.
    """
    gram = integer_gram(rows)
    adj = adjugate_spd(gram)
    for i in range(len(rows) - 1, 0, -1):
        state = _GramState(rows, i, gram, adj)
        for _ in range(passes):
            changed, _ = _pass_over(state)
            if not changed:
                break
        adj = state.leading_adjugate()
    return gram
