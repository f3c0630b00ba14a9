"""Output checkers that share no code with latkit.

They recompute what they need from the integer inputs with textbook
integer methods: Bareiss determinants, Gram-Schmidt data from Gram
determinants, distances as ratios of Gram determinants, a fraction-free
Gauss-Jordan inverse for lattice membership, and window scans over the
shifts next to a reported optimum. Each checker returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi, rowk = a[i], a[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def gram_schmidt(rows) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Gram-Schmidt data of independent integer rows: mu_ij and |b*_i|^2.

    Computed in integers from the Gram matrix (d_i = det Gram(b_0..b_i),
    lam_ij = d_j mu_ij, all exact divisions), then returned as Fractions.
    """
    n = len(rows)
    d = [1] + [0] * n  # d[i + 1] belongs to row i; d[0] = 1 is the empty product
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = dot(rows[i], rows[j])
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
    mu = [[Fraction(lam[i][j], d[j + 1]) for j in range(i)] for i in range(n)]
    norms = [Fraction(d[i + 1], d[i]) for i in range(n)]
    return mu, norms


def gram_det(rows) -> int:
    return bareiss_det([[dot(a, b) for b in rows] for a in rows])


def distance_sq(v, rows) -> Fraction:
    """Squared distance of v to span(rows): det Gram(rows, v) / det Gram(rows)."""
    return Fraction(gram_det(list(rows) + [v]), gram_det(rows))


def shifted(rows, x):
    """B(x) = {b_i + x_i v} for an instance given as [v, b_1, ..., b_n]."""
    v = rows[0]
    return [[bj + xi * vj for bj, vj in zip(b, v)] for b, xi in zip(rows[1:], x)]


def scaled_inverse(rows) -> tuple[list[list[int]], int]:
    """(M, d) with M A = d I for a nonsingular integer matrix A.

    Fraction-free Gauss-Jordan on [A | I]: every division is exact, the
    left block ends as d I with d = +-det A, and the right block is then
    d A^-1.
    """
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        rowk = a[k]
        pivot = rowk[k]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                a[i] = [(pivot * e - f * p) // prev for e, p in zip(row, rowk)]
        prev = pivot
    return [r[n:] for r in a], prev


def min_norm_sq(rows):
    return min(dot(r, r) for r in rows)


def integral_rows(rows):
    """The rows as lists of ints, or None if an entry is not an integer."""
    if any(getattr(e, "denominator", None) != 1 for r in rows for e in r):
        return None
    return [[int(e) for e in r] for r in rows]


def check_same_lattice(basis, out, inverse=None) -> list[str]:
    """out is an integral basis of the lattice spanned by the rows of basis."""
    if len(out) != len(basis) or any(len(r) != len(basis[0]) for r in out):
        return ["output has the wrong shape"]
    out = integral_rows(out)
    if out is None:
        return ["output is not integral"]
    if abs(bareiss_det(out)) != abs(bareiss_det(basis)):
        return ["output |det| differs from the input's"]
    m, d = inverse if inverse is not None else scaled_inverse(basis)
    n = len(basis)
    for r in out:
        # coordinates of r in the input basis: c = r . basis^-1 = (r . m) / d
        for j in range(n):
            if sum(r[i] * m[i][j] for i in range(n)) % d:
                return ["an output row is not in the input lattice"]
    return []


def check_lll(out, delta: Fraction) -> list[str]:
    """Size reduction |mu_ij| <= 1/2 and Lovasz at delta."""
    mu, norms = gram_schmidt(out)
    half = Fraction(1, 2)
    for i, row in enumerate(mu):
        if any(abs(m) > half for m in row):
            return [f"row {i} is not size-reduced"]
    for k in range(1, len(out)):
        m = mu[k][k - 1]
        if norms[k] < (delta - m * m) * norms[k - 1]:
            return [f"Lovasz condition fails at {k}"]
    return []


def check_reduce(basis, high, accel, reached: bool, delta: Fraction) -> list[str]:
    """Both arms span the input lattice; the high arm is delta-LLL reduced;
    the accelerated arm's claim about the target norm holds."""
    inv = scaled_inverse(basis)
    problems = check_same_lattice(basis, high, inv)
    problems += check_same_lattice(basis, accel, inv)
    if problems:
        return problems
    high, accel = integral_rows(high), integral_rows(accel)
    problems += check_lll(high, delta)
    target, got = min_norm_sq(high), min_norm_sq(accel)
    if reached and got > target:
        problems.append(f"accelerated arm claims the target but has {got} > {target}")
    if not reached and got <= target:
        problems.append("accelerated arm reached the target but reported otherwise")
    return problems


def window_scan(rows, x, dist_sq) -> list[str]:
    """No shift within +-1 of x in every coordinate is farther than dist_sq."""
    v, bs = rows[0], rows[1:]
    num = gram_det(rows)  # det G(v, B(y)) is the same for every shift y
    # G(B(y))_ij = b_i.b_j + y_i v.b_j + y_j v.b_i + y_i y_j |v|^2
    g = [[dot(a, b) for b in bs] for a in bs]
    vb = [dot(v, b) for b in bs]
    v_sq = dot(v, v)
    n = len(bs)
    for step in product((-1, 0, 1), repeat=n):
        y = [a + b for a, b in zip(x, step)]
        gy = [[g[i][j] + y[i] * vb[j] + y[j] * vb[i] + y[i] * y[j] * v_sq
               for j in range(n)] for i in range(n)]
        if Fraction(num, bareiss_det(gy)) > dist_sq:
            return [f"shift {y} is farther than the reported optimum"]
    return []


def check_mdsp(rows, x, dist_sq) -> list[str]:
    """Reported d^2 matches a recomputation at x, and x is a local
    optimum over the +-1 window."""
    if len(x) != len(rows) - 1 or any(int(a) != a for a in x):
        return ["shift is not an integer vector of the right length"]
    x = [int(a) for a in x]
    recomputed = distance_sq(rows[0], shifted(rows, x))
    if recomputed != dist_sq:
        return [f"reported d^2 {dist_sq} differs from the recomputed {recomputed}"]
    return window_scan(rows, x, dist_sq)


def check_routes_agree(exact_dist_sq, cvp_dist_sq) -> list[str]:
    """The exact solver and the CVP route find the same optimum."""
    if exact_dist_sq != cvp_dist_sq:
        return [f"exact optimum {exact_dist_sq} differs from the CVP route's {cvp_dist_sq}"]
    return []


def check_certify(rows, x, dist_sq, accept_at, reject_above, gamma_sq, gamma_hi_sq) -> list[str]:
    """The certificate's distance is recomputed, is no worse than the
    start, and the verifier's verdicts match the recomputation."""
    if len(x) != len(rows) - 1 or any(int(a) != a for a in x):
        return ["certificate is not an integer vector of the right length"]
    recomputed = distance_sq(rows[0], shifted(rows, [int(a) for a in x]))
    problems = []
    if recomputed != dist_sq:
        problems.append(f"reported d^2 {dist_sq} differs from the recomputed {recomputed}")
    if recomputed < distance_sq(rows[0], rows[1:]):
        problems.append("the heuristic decreased the distance")
    v_sq = dot(rows[0], rows[0])
    if accept_at != (recomputed >= gamma_sq * v_sq):
        problems.append(f"verifier said {accept_at} at gamma^2 = {gamma_sq}")
    if gamma_hi_sq is not None and reject_above != (recomputed >= gamma_hi_sq * v_sq):
        problems.append(f"verifier said {reject_above} at gamma^2 = {gamma_hi_sq}")
    return problems
