"""Independent slow references for the exact homology layer, used by the tests."""

import math


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
