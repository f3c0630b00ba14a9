"""Independent reference implementations used as test oracles.

Everything here is written from scratch against the mathematical
definitions (naive Gram-Schmidt, textbook reduction with full
recomputation, exhaustive scans, Bareiss determinants, the dual basis
from a naive inverse) and deliberately shares no code with the package
paths it checks.
"""

from fractions import Fraction
from itertools import product
from math import ceil, lcm


def vdot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(a, c):
    return tuple(c * x for x in a)


def naive_gs(vectors):
    out = []
    for v in vectors:
        w = tuple(Fraction(x) for x in v)
        for u in out:
            w = vsub(w, vscale(u, vdot(w, u) / vdot(u, u)))
        out.append(w)
    return out


def naive_dist_sq(v, basis):
    """Squared distance of v from span(basis) by plain Gram-Schmidt."""
    r = tuple(Fraction(x) for x in v)
    for u in naive_gs(basis):
        r = vsub(r, vscale(u, vdot(r, u) / vdot(u, u)))
    return vdot(r, r)


def naive_det(rows):
    """Determinant by plain Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def int_det(rows):
    """Determinant of a square integer matrix, fraction-free (Bareiss 1968).

    After step k every remaining entry is a (k+1)x(k+1) minor, so the
    division by the previous pivot is exact. The empty matrix has
    determinant 1.
    """
    a = [list(r) for r in rows]
    n = len(a)
    det_sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det_sign = -det_sign
        p = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(a[i][j] * p - f * a[k][j]) // prev for j in range(n)]
        prev = p
    return det_sign * prev


def _gram(rows):
    return [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]


def int_gram_det(rows):
    return int_det(_gram(rows))


def _cofactor_adjugate(g):
    """adj(g)[i][j] = (-1)^(i+j) det(g without row j and column i)."""
    n = len(g)
    return [
        [
            (-1) ** (i + j)
            * int_det([r[:i] + r[i + 1:] for k, r in enumerate(g) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def brute_force_mdsp(v, basis, window):
    """Max dist^2 of v over all shifts x in [-window, window]^n.

    Returns (best_dist_sq, lexicographically smallest maximizing x). Each
    point's dist^2 is det Gram(B(x), v) / det Gram(B(x)), computed in
    integers on the vectors scaled by the lcm of their denominators; the
    winning point is cross-checked against naive_dist_sq.
    """
    n = len(basis)
    scale = lcm(*(Fraction(e).denominator for w in (v, *basis) for e in w))
    iv = [int(Fraction(e) * scale) for e in v]
    ib = [[int(Fraction(e) * scale) for e in b] for b in basis]
    best = None  # (numerator, denominator) of the scaled dist^2
    best_x = None
    for x in product(range(-window, window + 1), repeat=n):
        shifted = [[bk + xi * vk for bk, vk in zip(b, iv)] for b, xi in zip(ib, x)]
        num = int_gram_det(shifted + [iv])
        den = int_gram_det(shifted)
        if best is None or num * best[1] > best[0] * den:
            best, best_x = (num, den), x
    best_d = Fraction(best[0], best[1] * scale * scale)
    shifted = [
        tuple(b[k] + best_x[i] * v[k] for k in range(len(v)))
        for i, b in enumerate(basis)
    ]
    assert naive_dist_sq(v, shifted) == best_d, "integer and naive dist^2 differ"
    return best_d, best_x


def naive_inverse(rows):
    """Inverse by plain Gauss-Jordan over Fractions."""
    n = len(rows)
    a = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        p = a[k][k]
        a[k] = [e / p for e in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [e - f * g for e, g in zip(a[i], a[k])]
    return [row[n:] for row in a]


def dual_basis(vectors):
    """The dual basis of an independent family: the rows of G^-1 B, for B
    the family and G its Gram matrix, so each d_i lies in the span and
    <d_i, b_j> = [i == j]. Inverts G by naive_inverse."""
    g = [[vdot(a, b) for b in vectors] for a in vectors]
    return [
        tuple(sum((c * b[k] for c, b in zip(row, vectors)), Fraction(0))
              for k in range(len(vectors[0])))
        for row in naive_inverse(g)
    ]


def dual_greedy(v, basis, max_passes):
    """The greedy MDSP heuristic read on the dual basis, recomputed from
    scratch at every coordinate.

    With (d_0..d_{n-1}, d_v) the dual basis of (b_0..b_{n-1}, v), the
    shift b_i -= a v at coordinate i takes the integer a nearest
    -<d_v, d_i> / |d_i|^2, the floor on a tie, and the squared distance of
    v from the span of the basis after it is 1 / |d_v|^2. Runs in-order
    passes until one shifts nothing or max_passes have run. Returns
    (x, shifts, passes, converged): B(x) = {b_i + x_i v} is the final
    basis, and shifts lists (i, a, dist^2) for each nonzero shift in order.
    """
    v = tuple(Fraction(e) for e in v)
    basis = [tuple(Fraction(e) for e in b) for b in basis]
    x = [0] * len(basis)
    shifts = []
    for passes in range(1, max_passes + 1):
        changed = False
        for i in range(len(basis)):
            *duals, dv = dual_basis(basis + [v])
            a = ceil(-vdot(dv, duals[i]) / vdot(duals[i], duals[i]) - Fraction(1, 2))
            if a:
                basis[i] = vsub(basis[i], vscale(v, a))
                x[i] -= a
                dv = dual_basis(basis + [v])[-1]
                shifts.append((i, a, 1 / vdot(dv, dv)))
                changed = True
        if not changed:
            return tuple(x), shifts, passes, True
    return tuple(x), shifts, max_passes, False


def cvp_exhaustive(gram_rows, offset, point_budget=250_000):
    """Certified global min of (j+c)^T G (j+c) over integers, lex tie-break.

    The scan window is centered on the rounding of -c with a radius that
    provably contains the minimizer: any eigenvalue of G is at least
    1/trace(G^-1), so the objective at the rounded point bounds how far a
    better lattice point can sit. Returns None when the certified window
    exceeds the point budget.
    """
    from math import isqrt

    n = len(offset)

    def quadform(j):
        u = [Fraction(ji) + ci for ji, ci in zip(j, offset)]
        return sum(
            (u[a] * gram_rows[a][b] * u[b] for a in range(n) for b in range(n)),
            Fraction(0),
        )

    j0 = tuple(
        (2 * (-c).numerator + (-c).denominator) // (2 * (-c).denominator)
        for c in offset
    )
    upper = quadform(j0)
    if upper == 0:
        return upper, j0  # exact hit; nothing can do better
    inv = naive_inverse(gram_rows)
    lam_min_lb = 1 / sum((inv[i][i] for i in range(n)), Fraction(0))
    bound = upper / lam_min_lb  # |j + c|^2 <= bound at any minimizer
    radius = isqrt(bound.numerator // bound.denominator) + 2
    if (2 * radius + 1) ** n > point_budget:
        return None
    best = None
    for j in product(*(range(c - radius, c + radius + 1) for c in j0)):
        obj = quadform(j)
        if best is None or obj < best[0] or (obj == best[0] and j < best[1]):
            best = (obj, j)
    return best


def _round_half_up(m):
    return (2 * m.numerator + m.denominator) // (2 * m.denominator)


def textbook_lll(rows, delta):
    """Reduction with full Gram-Schmidt recomputation after every change.

    Mirrors the iteration order of the usual presentation (reduce against
    the previous vector, test the exchange condition, otherwise finish the
    size reduction and advance) so an exact implementation must reproduce
    its output bit for bit.
    """
    bs = [[Fraction(x) for x in row] for row in rows]
    n = len(bs)
    delta = Fraction(delta)
    half = Fraction(1, 2)

    def gso():
        bstar = []
        mus = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            w = bs[i][:]
            for j in range(i):
                m = vdot(bs[i], bstar[j]) / vdot(bstar[j], bstar[j])
                mus[i][j] = m
                w = [wk - m * bk for wk, bk in zip(w, bstar[j])]
            bstar.append(w)
        return bstar, mus

    k = 1
    while k < n:
        bstar, mus = gso()
        m = mus[k][k - 1]
        if m > half or m < -half:
            r = _round_half_up(m)
            bs[k] = [a - r * b for a, b in zip(bs[k], bs[k - 1])]
            bstar, mus = gso()
            m = mus[k][k - 1]
        if vdot(bstar[k], bstar[k]) < (delta - m * m) * vdot(bstar[k - 1], bstar[k - 1]):
            bs[k], bs[k - 1] = bs[k - 1], bs[k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                bstar, mus = gso()
                m = mus[k][l]
                if m > half or m < -half:
                    r = _round_half_up(m)
                    bs[k] = [a - r * b for a, b in zip(bs[k], bs[l])]
            k += 1
    return [tuple(row) for row in bs]


def random_mdsp_vectors(rng, ambient, bound=5):
    """Random integer instance: (v, [b_1..b_n]) independent, dim = ambient."""
    while True:
        rows = [
            [rng.randint(-bound, bound) for _ in range(ambient)]
            for _ in range(ambient)
        ]
        if naive_det(rows) != 0 and any(rows[0]):
            v = tuple(Fraction(x) for x in rows[0])
            basis = [tuple(Fraction(x) for x in r) for r in rows[1:]]
            return v, basis


def random_unimodular(rng, n, steps=12):
    """Product of random integer shears and row swaps; determinant +-1."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                m[a], m[b] = m[b], m[a]
    return m
