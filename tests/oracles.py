"""Independent slow references for the exact homology layer and the geometry, used by the tests."""

import math

TWO_PI = 2.0 * math.pi


def integer_determinant(M) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(M)
    if n == 0:
        return 1
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def minor_gcd_invariants(M) -> list[int]:
    """Invariant factors via determinantal divisors (independent slow route).

    d_k = gcd of all k x k minors; the k-th invariant factor is
    d_k / d_{k-1}.  Intended for small matrices in tests.
    """
    from itertools import combinations
    n = len(M)
    m = len(M[0]) if n else 0
    divisors = [1]
    for k in range(1, min(n, m) + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                g = math.gcd(g, abs(integer_determinant(sub)))
        divisors.append(g)
        if g == 0:
            break
    out = []
    for k in range(1, len(divisors)):
        if divisors[k] == 0:
            break
        out.append(divisors[k] // divisors[k - 1])
    return [d for d in out if d > 1]


def _class_vector(ab, mu_coef: int, lam_coef: int) -> list[int]:
    return [mu_coef * m + lam_coef * l
            for m, l in zip(ab.meridian_class, ab.longitude_class)]


def abelianized_glue_matrix(model1, model2, g):
    """Mayer-Vietoris relation matrix of a gluing, built through two abelianizations.

    Rows are the generators of both sides, columns the relators of side 1,
    then of side 2, then mu1 - (a mu2 + b lam2) and lam1 - (p mu2 + c lam2).
    """
    from pillowcase.homology import abelianization
    ab1 = abelianization(model1.presentation)
    ab2 = abelianization(model2.presentation)
    g1 = ab1.matrix.rows
    g2 = ab2.matrix.rows
    n = g1 + g2
    cols = []
    for j in range(ab1.matrix.cols):
        cols.append([ab1.matrix.entries[i][j] for i in range(g1)] + [0] * g2)
    for j in range(ab2.matrix.cols):
        cols.append([0] * g1 + [ab2.matrix.entries[i][j] for i in range(g2)])
    mu1 = list(ab1.meridian_class) + [0] * g2
    lam1 = list(ab1.longitude_class) + [0] * g2
    side2_mu = [0] * g1 + _class_vector(ab2, g.a, g.b)
    side2_lam = [0] * g1 + _class_vector(ab2, g.p, g.c)
    cols.append([mu1[i] - side2_mu[i] for i in range(n)])
    cols.append([lam1[i] - side2_lam[i] for i in range(n)])
    return [[col[i] for col in cols] for i in range(n)], n


def abelianized_filling_matrix(model, slope):
    """Relation matrix of the Dehn filling along mu^p lam^q, built through the abelianization."""
    from pillowcase.homology import abelianization
    ab = abelianization(model.presentation)
    M = ab.matrix.matrix()
    col = _class_vector(ab, *slope)
    for i, row in enumerate(M):
        row.append(col[i])
    return M, ab.matrix.rows


def nearest_lift_two_pass(pt, anchor):
    """Plane lift of pt closest to the anchor: the loop over the signs 1, -1 that
    geometry.nearest_lift writes out, a sign's lift kept only when nearer than
    the best so far by more than 1e-15."""
    x, y = anchor
    best = None
    best_d = math.inf
    for s in (1.0, -1.0):
        ax, ay = s * pt.alpha, s * pt.beta
        dx = math.remainder(x - ax, TWO_PI)
        dy = math.remainder(y - ay, TWO_PI)
        d = math.hypot(dx, dy)
        if d < best_d - 1e-15:
            best_d = d
            best = (x - dx, y - dy)
    return best


def reps_near(pt, x, y):
    """Plane lifts of pt within one lattice step of (x, y), both signs."""
    out = []
    for s in (1.0, -1.0):
        ax, ay = s * pt.alpha, s * pt.beta
        m0 = round((x - ax) / TWO_PI)
        n0 = round((y - ay) / TWO_PI)
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                out.append((ax + TWO_PI * (m0 + dm), ay + TWO_PI * (n0 + dn)))
    return out
