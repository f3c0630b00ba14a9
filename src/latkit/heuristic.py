"""Greedy single-coordinate improvement of the sub-lattice distance.

One pass visits each basis vector in order, replaces b_i by b_i - a*v for
the integer a that puts v farthest from the span of the basis, and
commits the change before moving on. Passes repeat until a full pass
makes no change or a cap is hit; the distance never decreases along the
way, but termination at the optimum is not guaranteed in general.

Read on the dual basis (d_0, ..., d_{n-1}, d_v) of (b_0, ..., b_{n-1}, v),
a pass is size reduction of the fixed vector's dual vector d_v by the
d_i, and one identity gives every step: with G the Gram matrix of the
rows, adj(G) = det G Gram(d_0, ..., d_{n-1}, d_v). A shift b_i -= a v only
sets d_v += a d_i, dist^2(v, span B) = 1 / |d_v|^2, so the shift is the
integer nearest -<d_v, d_i> / |d_i|^2, the floor on a tie (_choose_shift),
and dropping v projects the other duals orthogonally to d_v (leading).

The passes read only three parts of adj(G): its diagonal, its row v, and
the row of each coordinate that gets shifted. They come from one of two
sources. On an instance, the source is the record (d, lambda, u) of the
elimination its stored integer form already holds (MDSPInstance._primal),
which the certificate verifier and the exact solver read too: that of
the Gram matrix in the reversed order (v, b_n..b_1), whose adjugate holds
the same integers reversed. The diagonal is one O(n^2) recurrence over
the u_k, and a row one back-substitution, built when first read. In
LLL's sweeps, where each prefix's state is read off the whole B block of
the last, the source is the adjugate's lower triangle, built once from
LLL's own d/lambda data by the same back-substitution. A committed shift
changes only row v of the adjugate, in O(n) operations, and det G not at
all. No Gram matrix or row is kept, and a pass hands back only the shift
vector x, from which the caller forms B(x) = {b_i + x_i v}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Optional

from .errors import DegenerateResidual, IndexOutOfRange, SingularMatrix
from .lattice import MDSPInstance, apply_shift
from .qlinalg import (
    QVector,
    _adjugate_diagonal,
    _adjugate_lower,
    _adjugate_row,
    _Record,
)


def _check_count(name: str, value: int) -> None:
    """Raise ValueError unless the config field name holds an integer
    (operator.index accepts it) of at least 1."""
    try:
        if index(value) >= 1:
            return
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True)
class HeuristicConfig:
    max_passes: int = 64

    def __post_init__(self):
        _check_count("max_passes", self.max_passes)


@dataclass(frozen=True)
class HeuristicOutcome:
    """Accumulated shifts, final distance, and convergence status."""

    x_total: tuple[int, ...]
    dist_sq: Fraction
    converged: bool
    passes_used: int


class _GramState:
    """The entries of adj(G) that the passes read, and det G, for G the
    Gram matrix of rows (b_0..b_{n-1}, v): det G times the inner products
    of their dual basis (d_0, ..., d_{n-1}, d_v).

    Every shift choice reads only adj(G): its diagonal on B, its row v and
    its B-block row i for a shifted coordinate i. det G is fixed, since a
    committed shift is a unimodular change of basis, and so is the B block,
    diagonal included, since a shift changes only d_v. The state holds the
    diagonal, row v and one source for the B-block rows, set by its
    constructor. An instance's state (of_primal) holds the record of the
    elimination of P = J G J, the Gram matrix of (v, b_{n-1}, ..., b_0) for
    the reversal J, whose adjugate J adj(G) J holds the same integers:
    coordinate i is P's index n - i, and its row is built from the record
    when first read. A sweep's state (of_lll, leading) holds the B block's
    lower triangle, built once, which leading() reads whole. Integer rows
    come from scaling by a positive constant, under which every shift
    choice is invariant.
    """

    def __init__(
        self,
        det: int,
        diag: list[int],
        row_v: list[int],
        record: Optional[_Record] = None,
        lower: Optional[list[list[int]]] = None,
    ):
        self.det = det
        self.n = len(diag)
        self._diag = diag
        self._v = row_v  # adj[v][0..n], the one part a shift changes
        self._record = record  # P's record, for an instance's state
        self._lower = lower  # the B block's lower triangle, for a sweep's state
        self._rows: list[Optional[list[int]]] = [None] * self.n

    @classmethod
    def of_lll(cls, d: list[int], lam: list[list[int]]) -> "_GramState":
        """State of rows from their integral LLL data (lll._lll_rows), which
        is the (d, lam) of the record of their Gram matrix's elimination:
        the lower triangle of adj(G) (_adjugate_lower), less its last row,
        row v, and det G the last pivot."""
        lower = _adjugate_lower(d, lam)
        row_v = lower.pop()
        return cls(d[-1], [row[-1] for row in lower], row_v, lower=lower)

    @classmethod
    def of_primal(
        cls, d: list[int], lam: list[list[int]], u: list[list[int]]
    ) -> "_GramState":
        """State of rows (b_0..b_{n-1}, v) from the record (d, lam, u) of
        the elimination of P, the Gram matrix of (v, b_{n-1}, ..., b_0), as
        MDSPInstance._primal holds it: adj(G)[i][j] = adj(P)[n-i][n-j], so
        the diagonal is P's reversed, less v's entry, and row v is row 0 of
        adj(P) reversed."""
        diag = _adjugate_diagonal(d, u)[:0:-1]
        row_v = _adjugate_row(d, lam, u, 0)[::-1]
        return cls(d[-1], diag, row_v, record=(d, lam, u))

    def _row(self, i: int) -> list[int]:
        """adj[i][0..n-1], built once."""
        row = self._rows[i]
        if row is None:
            low = self._lower
            if low is None:
                row = _adjugate_row(*self._record, self.n - i)[:0:-1]
            else:
                row = low[i] + [low[k][i] for k in range(i + 1, self.n)]
            self._rows[i] = row
        return row

    def moments(self, i: int) -> tuple[int, int]:
        """det G (|d_i|^2, -<d_v, d_i>), for coordinate i."""
        return self._diag[i], -self._v[i]

    def apply_shift(self, i: int, a: int) -> None:
        """Commit b_i := b_i - a v, which sets d_v := d_v + a d_i: only row
        v of adj(G) changes, adj[v][k] += a adj[i][k] off the corner, and
        adj[v][v] += a (adj[v][i] before + adj[v][i] after).
        """
        row_v, n = self._v, self.n
        old = row_v[i]
        row_v[:n] = [e + a * r for e, r in zip(row_v, self._row(i))]
        row_v[n] += a * (old + row_v[i])

    def dist_sq(self, scale: int) -> Fraction:
        """dist^2(v, span(b_0..b_{n-1})) = 1 / |d_v|^2 for rows scaled by
        scale: det G / (adj[v][v] scale^2)."""
        return Fraction(self.det, self._v[self.n] * scale * scale)

    def leading(self) -> "_GramState":
        """State of (b_0..b_{n-2}, b_{n-1}), for a sweep's state.

        The dual basis of B is the d_j projected orthogonally to d_v, and
        det G_B = adj[v][v] = det G |d_v|^2, so
        adj(G_B)[j][k] = (adj[j][k] adj[v][v] - adj[j][v] adj[v][k]) / det G,
        an exact division: O(n^2) on the lower triangle of the B block,
        instead of a new elimination.
        """
        det, row_v = self.det, self._v
        aff = row_v[self.n]
        lead = [
            [(a * aff - vj * vk) // det for a, vk in zip(lj, row_v)]
            for lj, vj in zip(self._lower, row_v)
        ]
        row_v = lead.pop()
        return _GramState(aff, [lj[-1] for lj in lead], row_v, lower=lead)


def _state(inst: MDSPInstance) -> tuple[_GramState, int]:
    """Gram state of an instance, read off its stored integer form, with
    the scale of its integer rows. A dependent [B; v] raises
    DegenerateResidual."""
    try:
        _, scale, e = inst._primal()
    except SingularMatrix:
        raise DegenerateResidual("fixed vector lies in the span of the others") from None
    return _GramState.of_primal(*e), scale


def _choose_shift(s: int, w: int) -> int:
    """The integer a nearest w/s, a tie keeping the floor.

    For (s, w) = det G (|d_i|^2, -<d_v, d_i>) (_GramState.moments), the
    shift b_i -= a v leaves |d_v + a d_i|^2 = |d_v|^2 + (s a^2 - 2 w a) / det G,
    so a maximizes dist^2 = 1 / |d_v + a d_i|^2. s > 0, since it is a
    diagonal entry of adj(G) and G is positive definite, as _state and
    LLL's DependentInput guarantee.

    A known waste: at a tie w/s = -1/2 both neighbours, -1 and 0, give the
    same distance, yet the floor commits a = -1, a shift that gains
    nothing and costs one more pass. For v = (0, 2) and B = ((1, -1)),
    run_heuristic returns x = (1,) with the starting dist^2 2 after two
    passes (converged=False at max_passes=1), and improve_pass reports a
    change. Keeping a = 0 on that tie would end such a run after one
    pass, but it changes the shift vectors some runs return, and so the
    pinned bit-identity digests; the rule stays until a change makes that
    move on its own and updates them.
    """
    return -((s - 2 * w) // (2 * s))


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


def _pass_over(state: _GramState, x: list[int]) -> bool:
    """One in-order pass committing each coordinate's best shift.

    b_i := b_i - a v is recorded as x_i -= a, so B(x) = {b_i + x_i v}, over
    the basis the state started from, is the basis the passes so far have
    reached. Returns whether any shift was nonzero.
    """
    changed = False
    for i in range(state.n):
        a = _choose_shift(*state.moments(i))
        if a != 0:
            state.apply_shift(i, a)
            x[i] -= a
            changed = True
    return changed


def improve_pass(inst: MDSPInstance) -> tuple[MDSPInstance, bool]:
    """One in-order sweep over all coordinates, committing each improvement."""
    state, _ = _state(inst)
    x = [0] * inst.n
    if not _pass_over(state, x):
        return inst, False
    return MDSPInstance(inst.fixed, apply_shift(inst, x), validate=False), True


def run_heuristic(inst: MDSPInstance, cfg: HeuristicConfig = HeuristicConfig()) -> HeuristicOutcome:
    """Sweep until a pass makes no update or cfg.max_passes is reached."""
    state, scale = _state(inst)
    x = [0] * inst.n
    converged = False
    for passes in range(1, cfg.max_passes + 1):
        if not _pass_over(state, x):
            converged = True
            break
    return HeuristicOutcome(tuple(x), state.dist_sq(scale), converged, passes)


def _sweep_prefixes(
    rows: list[list[int]], d: list[int], lam: list[list[int]], passes: int
) -> None:
    """Heuristic sweep over the prefixes of integer rows, in place.

    For i = n-1 down to 1, b_i is the fixed vector over b_0..b_{i-1}, with
    up to `passes` passes. The prefix's shift vector x is then applied to
    rows[:i] once, b_j := b_j + x_j b_i, before the next prefix. The state
    for i = n-1 comes from the rows' integral LLL data d and lam
    (lll._lll_rows, lam by columns), with no Gram matrix and no
    elimination, and each later prefix takes its state from the one
    before, so the passes never read the rows.
    """
    state = _GramState.of_lll(d, lam)
    for i in range(len(rows) - 1, 0, -1):
        x = [0] * i
        for _ in range(passes):
            if not _pass_over(state, x):
                break
        v = rows[i]
        for j, xj in enumerate(x):
            if xj:
                rows[j] = [b + xj * c for b, c in zip(rows[j], v)]
        state = state.leading()
