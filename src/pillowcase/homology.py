"""Exact integer homology calculus for knot exteriors and torus gluings.

Everything here is exact: matrices are lists of Python ints, so Smith
normal form never overflows.  An IntegerMatrixPresentation records an
abelian group as coker(matrix : Z^cols -> Z^rows), with generators indexed
by rows and relations by columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import GluingMatrix, _is_prime
from .presentations import GroupPresentation, KnotExteriorModel, exponent_vector

__all__ = [
    "IntegerMatrixPresentation", "AbelianGroup", "Abelianization",
    "StandardFormResult", "CaseReport", "SeifertHomology",
    "smith_normal_form", "invariant_factors", "abelianization",
    "rational_longitude", "filling_homology", "glue_homology", "seifert_h1",
    "standard_form_reduce", "enumerate_standard_tuples", "classify_gluing",
    "minor_gcd_invariants",
]


def _identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


@dataclass(frozen=True)
class IntegerMatrixPresentation:
    """Relation matrix presenting coker(matrix: Z^cols -> Z^rows)."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ent = tuple(tuple(int(x) for x in row) for row in self.entries)
        if len(ent) != self.rows or any(len(r) != self.cols for r in ent):
            raise ValueError("entry shape does not match rows/cols")
        object.__setattr__(self, "entries", ent)

    def matrix(self):
        return [list(r) for r in self.entries]

    def group(self) -> "AbelianGroup":
        return AbelianGroup.from_matrix(self.matrix(), self.rows)


@dataclass(frozen=True)
class AbelianGroup:
    """Invariant factors (each > 1, divisibility chain) plus free rank."""

    torsion: tuple[int, ...]
    rank: int

    @classmethod
    def from_matrix(cls, M, n_generators: int) -> "AbelianGroup":
        if n_generators == 0:
            return cls((), 0)
        if not M or not M[0]:
            return cls((), n_generators)
        d, _, _ = smith_normal_form(M)
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        nonzero = [x for x in diag if x != 0]
        return cls(
            torsion=tuple(x for x in nonzero if x > 1),
            rank=n_generators - len(nonzero),
        )

    def order(self) -> int:
        """Group order; 0 when infinite (positive rank)."""
        if self.rank > 0:
            return 0
        return math.prod(self.torsion) if self.torsion else 1

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def is_p_torsion(self, p: int) -> bool:
        """Whether the group is (Z/p)^r for some r >= 0."""
        return self.rank == 0 and all(d == p for d in self.torsion)

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def pretty_factors(self) -> str:
        if self.is_trivial():
            return "1 (trivial)"
        parts = [str(d) for d in self.torsion] + ["0"] * self.rank
        return " | ".join(parts)


def smith_normal_form(M):
    """Exact Smith normal form: returns (D, U, V) with D = U*M*V.

    U and V are unimodular, D is diagonal with nonnegative entries
    satisfying d_i | d_{i+1}.
    """
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    m = len(A[0]) if n else 0
    U = _identity(n)
    V = _identity(m)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, mult):
        # row dst += mult * row src
        A[dst] = [a + mult * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + mult * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, mult):
        for row in A:
            row[dst] += mult * row[src]
        for row in V:
            row[dst] += mult * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(n, m):
        # find smallest nonzero pivot in the remaining block
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if A[t][t] < 0:
            negate_row(t)
        # clear row and column t; restart if a remainder creates smaller entries
        clean = True
        for i in range(t + 1, n):
            if A[i][t] != 0:
                q = A[i][t] // A[t][t]
                add_row(t, i, -q)
                if A[i][t] != 0:
                    clean = False
        for j in range(t + 1, m):
            if A[t][j] != 0:
                q = A[t][j] // A[t][t]
                add_col(t, j, -q)
                if A[t][j] != 0:
                    clean = False
        if not clean:
            continue
        # enforce divisibility d_t | everything below-right
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    return A, U, V


def invariant_factors(M) -> list[int]:
    """Diagonal of the Smith form, zeros and ones stripped."""
    D, _, _ = smith_normal_form(M)
    out = []
    for i in range(min(len(D), len(D[0]) if D else 0)):
        d = D[i][i]
        if d > 1:
            out.append(d)
    return out


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


# ---------------------------------------------------------------------------
# abelianization of presentations

@dataclass(frozen=True)
class Abelianization:
    """Exponent-sum presentation of H1 plus peripheral classes."""

    matrix: IntegerMatrixPresentation
    meridian_class: tuple[int, ...]
    longitude_class: tuple[int, ...]

    def group(self) -> AbelianGroup:
        return self.matrix.group()


def abelianization(pres: GroupPresentation) -> Abelianization:
    """Exponent-sum matrix of the relators with meridian/longitude images."""
    g = pres.generator_count
    cols = [exponent_vector(r, g) for r in pres.relators]
    entries = tuple(tuple(col[i] for col in cols) for i in range(g))
    imp = IntegerMatrixPresentation(rows=g, cols=len(cols), entries=entries)
    return Abelianization(
        matrix=imp,
        meridian_class=exponent_vector(pres.meridian, g),
        longitude_class=exponent_vector(pres.longitude, g),
    )


def _class_vector(ab: Abelianization, mu_coef: int, lam_coef: int) -> list[int]:
    return [mu_coef * m + lam_coef * l
            for m, l in zip(ab.meridian_class, ab.longitude_class)]


def _smith_diagonal(M, g: int):
    """(diag, U) of the Smith form, tolerating empty matrices."""
    if not M or not M[0]:
        return [], _identity(g)
    D, U, _ = smith_normal_form(M)
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    return diag, U


def _order_in_cokernel(vec, M) -> int:
    """Order of a class in coker(M); 0 when the class is non-torsion."""
    g = len(vec)
    diag, U = _smith_diagonal(M, g)
    w = [sum(U[i][j] * vec[j] for j in range(g)) for i in range(g)]
    order = 1
    for i in range(g):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if w[i] != 0:
                return 0
        else:
            contrib = d // math.gcd(d, w[i])
            order = order * contrib // math.gcd(order, contrib)
    return order


class ModelInvalidError(ValueError):
    """Boundary classes violate the rank-1 kernel expected of a torus boundary."""


def rational_longitude(model: KnotExteriorModel):
    """Primitive boundary class killed rationally, and its torsion order.

    Returns ((x, y), order): the class x*mu + y*lam generates the kernel of
    H1(boundary; Q) -> H1(M; Q), sign-normalized with y >= 0 (then x >= 0),
    and order is the order of its image in H1(M; Z).
    """
    ab = abelianization(model.presentation)
    M = ab.matrix.matrix()
    g = ab.matrix.rows
    diag, U = _smith_diagonal(M, g)
    free_rows = [i for i in range(g) if i >= len(diag) or diag[i] == 0]
    if not free_rows:
        raise ModelInvalidError("H1 has no free part (not a torus boundary)")
    mu = ab.meridian_class
    lam = ab.longitude_class
    um = [sum(U[i][j] * mu[j] for j in range(g)) for i in free_rows]
    ul = [sum(U[i][j] * lam[j] for j in range(g)) for i in free_rows]
    # rational kernel of the 2-column matrix [um | ul]
    C = [[um[i], ul[i]] for i in range(len(free_rows))]
    Dc, _, Vc = smith_normal_form(C)
    rank = sum(1 for i in range(min(len(Dc), 2)) if Dc[i][i] != 0)
    if rank == 0:
        raise ModelInvalidError("both boundary classes die rationally")
    if rank == 2:
        raise ModelInvalidError("no boundary class dies rationally")
    x, y = Vc[0][1], Vc[1][1]
    gcd = math.gcd(x, y)
    if gcd:
        x, y = x // gcd, y // gcd
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    order = _order_in_cokernel(_class_vector(ab, x, y), M)
    if order == 0:
        raise ModelInvalidError("rational longitude candidate is non-torsion")
    return (x, y), order


def filling_homology(model: KnotExteriorModel, slope: tuple[int, int]) -> AbelianGroup:
    """H1 of the Dehn filling along mu^p lam^q (gcd(p, q) = 1)."""
    p, q = slope
    if math.gcd(p, q) != 1:
        raise ValueError(f"slope ({p}, {q}) is not primitive")
    ab = abelianization(model.presentation)
    M = ab.matrix.matrix()
    col = _class_vector(ab, p, q)
    for i, row in enumerate(M):
        row.append(col[i])
    if not M:
        M = [[c] for c in col]
    return AbelianGroup.from_matrix(M, ab.matrix.rows)


def _glue_relation_matrix(model1: KnotExteriorModel, model2: KnotExteriorModel,
                          g: GluingMatrix):
    """Mayer-Vietoris relation matrix for the union along the boundary torus."""
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
    # mu1 = a mu2 + b lam2 and lam1 = p mu2 + c lam2 in the glued manifold
    mu1 = list(ab1.meridian_class) + [0] * g2
    lam1 = list(ab1.longitude_class) + [0] * g2
    side2_mu = [0] * g1 + _class_vector(ab2, g.a, g.b)
    side2_lam = [0] * g1 + _class_vector(ab2, g.p, g.c)
    cols.append([mu1[i] - side2_mu[i] for i in range(n)])
    cols.append([lam1[i] - side2_lam[i] for i in range(n)])
    return [[col[i] for col in cols] for i in range(n)], n


def glue_homology(model1: KnotExteriorModel, model2: KnotExteriorModel,
                  g: GluingMatrix) -> AbelianGroup:
    """H1 of the closed manifold obtained by gluing the two exteriors."""
    M, n = _glue_relation_matrix(model1, model2, g)
    return AbelianGroup.from_matrix(M, n)


# ---------------------------------------------------------------------------
# Seifert fibered homology

@dataclass(frozen=True)
class SeifertHomology:
    group: AbelianGroup
    order_formula: int

    @property
    def positive_rank(self) -> bool:
        return self.group.rank > 0


def seifert_h1(data) -> SeifertHomology:
    """H1 of a Seifert space over S^2 with three exceptional fibers.

    ``data`` is ((a1, b1), (a2, b2), (a3, b3)) with a_i >= 2.  Returns the
    Smith-form group and the closed-form order
    |a1 a2 b3 + a1 b2 a3 + b1 a2 a3|; the two agree whenever the order is
    nonzero, and order zero means positive first Betti number.
    """
    data = tuple((int(a), int(b)) for a, b in data)
    if len(data) != 3:
        raise ValueError("exactly three exceptional fibers are supported")
    for a, _ in data:
        if a < 2:
            raise ValueError("fiber multiplicities must be >= 2")
    (a1, b1), (a2, b2), (a3, b3) = data
    M = [
        [a1, 0, 0, b1],
        [0, a2, 0, b2],
        [0, 0, a3, b3],
        [1, 1, 1, 0],
    ]
    group = AbelianGroup.from_matrix(M, 4)
    order = abs(a1 * a2 * b3 + a1 * b2 * a3 + b1 * a2 * a3)
    if order != 0 and group.order() != order:
        raise AssertionError(
            f"Smith order {group.order()} disagrees with closed form {order}")
    return SeifertHomology(group=group, order_formula=order)


# ---------------------------------------------------------------------------
# standard form of torus gluings

@dataclass(frozen=True)
class StandardFormResult:
    """Normalized gluing tuple with the twist moves that achieve it.

    twist_moves lists (side, twist) in the order applied: side 2 with twist q
    replaces mu2 by mu2 + q*lam2, side 1 with twist n replaces mu1 by
    mu1 - n*lam1.  orientation_reversed records the flip lam1 -> -lam1,
    mu2 -> -mu2 allowed when reversal is enabled.
    """

    a: int
    b: int
    c: int
    p: int
    twist_moves: tuple[tuple[int, int], ...]
    orientation_reversed: bool

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _apply_side2_twist(a, b, c, p, q):
    # mu2 -> mu2 + q lam2: coefficients of (mu1, lam1) in the new basis
    return a, b - q * a, c - q * p


def _apply_side1_twist(a, b, c, p, n):
    # mu1 -> mu1 - n lam1
    return a - n * p, b - n * c, c


def _apply_flip(a, b, c, p):
    # lam1 -> -lam1, mu2 -> -mu2
    return -a, b, -c


def standard_form_reduce(a: int, b: int, c: int, p: int,
                         allow_reversal: bool = False) -> StandardFormResult:
    """Normalize a torus gluing tuple by boundary twists.

    Input satisfies a*c - b*p = -1 with p prime.  Two Euclidean steps (a
    twist on side 2 to shrink c mod p, then a twist on side 1 to shrink
    b mod c) produce 0 <= b < c < p, or 0 <= b < c <= p/2 with a possible
    orientation flip when allow_reversal is set.  The determinant is
    preserved throughout and the moves are recorded for replay.
    """
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if a * c - b * p != -1:
        raise ValueError(f"determinant a*c - b*p must be -1, got {a * c - b * p}")
    moves = []
    flipped = False
    # step 1: reduce c modulo p
    if allow_reversal:
        r = c % p
        if r > p / 2:
            r -= p
        q = (c - r) // p
    else:
        r = c % p
        if r == 0:
            raise ValueError("c cannot be a multiple of p when a*c - b*p = -1")
        q = (c - r) // p
    if q != 0:
        a, b, c = _apply_side2_twist(a, b, c, p, q)
        moves.append((2, q))
        assert a * c - b * p == -1
    if r < 0:
        a, b, c = _apply_flip(a, b, c, p)
        flipped = True
        assert a * c - b * p == -1
    # step 2: reduce b modulo c
    n = b // c
    if n != 0:
        a, b, c = _apply_side1_twist(a, b, c, p, n)
        moves.append((1, n))
        assert a * c - b * p == -1
    bound = p / 2 if allow_reversal else p
    if not (0 <= b < c <= bound):
        raise AssertionError(f"reduction failed: (a,b,c)=({a},{b},{c}), p={p}")
    return StandardFormResult(a=a, b=b, c=c, p=p,
                              twist_moves=tuple(moves),
                              orientation_reversed=flipped)


def replay_standard_form(result: StandardFormResult) -> tuple[int, int, int]:
    """Undo the recorded moves, recovering the original (a, b, c)."""
    a, b, c = result.a, result.b, result.c
    p = result.p
    moves = list(result.twist_moves)
    # the flip happened between the side-2 and side-1 moves; undo in reverse
    if moves and moves[-1][0] == 1:
        side, n = moves.pop()
        a, b, c = _apply_side1_twist(a, b, c, p, -n)
    if result.orientation_reversed:
        a, b, c = _apply_flip(a, b, c, p)
    if moves and moves[-1][0] == 2:
        side, q = moves.pop()
        a, b, c = _apply_side2_twist(a, b, c, p, -q)
    if moves:
        raise ValueError("unexpected move sequence")
    return a, b, c


def enumerate_standard_tuples(p: int) -> list[tuple[int, int, int]]:
    """All standard tuples (a, b, c) with a*c - b*p = -1, 0 <= b < c <= p/2.

    There are exactly (p-1)/2 of them for an odd prime p: c runs over
    1 .. (p-1)/2 and b is the residue of p^{-1} mod c (b = 0 for c = 1).
    """
    if not _is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    out = []
    for c in range(1, (p - 1) // 2 + 1):
        b = 0 if c == 1 else pow(p, -1, c)
        a = (b * p - 1) // c
        assert a * c - b * p == -1
        out.append((a, b, c))
    return out


# ---------------------------------------------------------------------------
# gluing case classification

class UnsupportedGluingError(ValueError):
    """Glued homology or longitude data falls outside the classified cases."""


@dataclass(frozen=True)
class CaseReport:
    """Which structural case governs a p-torsion torus gluing.

    case "1a": both rational longitudes nullhomologous and glued to dual
    curves; "1b": both nullhomologous with a standard-form tuple attached;
    "2": exactly one rational longitude essential, of order p, with basis
    evidence from the integral coordinates.
    """

    case: str
    p: int
    homology: AbelianGroup
    longitude1: tuple[tuple[int, int], int]
    longitude2: tuple[tuple[int, int], int]
    standard_form: StandardFormResult | None = None
    essential_side: int | None = None
    evidence: dict = field(default_factory=dict)


def classify_gluing(model1: KnotExteriorModel, model2: KnotExteriorModel,
                    g: GluingMatrix, p: int) -> CaseReport:
    """Classify a gluing whose closed manifold has (Z/p)^r homology."""
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    h = glue_homology(model1, model2, g)
    if not h.is_p_torsion(p):
        raise UnsupportedGluingError(
            f"glued homology {h} is not {p}-torsion")
    r1, o1 = rational_longitude(model1)
    r2, o2 = rational_longitude(model2)
    if o1 == 1 and o2 == 1:
        # these cases assume the distinguished longitude words are the
        # rational longitudes themselves
        if r1 != (0, 1) or r2 != (0, 1):
            raise UnsupportedGluingError(
                "nullhomologous case expects the longitude words to be the "
                f"rational longitudes, got {r1} and {r2}")
        if abs(g.p) == 1:
            return CaseReport(case="1a", p=p, homology=h,
                              longitude1=(r1, o1), longitude2=(r2, o2))
        a, b, pp, c = g.a, g.b, g.p, g.c
        if pp < 0:
            # reorient the side-2 basis (both curves) to make the prime
            # coefficient positive; gluing determinant is preserved
            a, b, pp, c = -a, -b, -pp, -c
        if pp != p:
            raise UnsupportedGluingError(
                f"longitude coefficient {g.p} does not match the declared prime {p}")
        sf = standard_form_reduce(a, b, c, p, allow_reversal=True)
        return CaseReport(case="1b", p=p, homology=h,
                          longitude1=(r1, o1), longitude2=(r2, o2),
                          standard_form=sf)
    essential = [(1, o1), (2, o2)]
    essential = [(side, o) for side, o in essential if o != 1]
    if len(essential) != 1 or essential[0][1] != p:
        raise UnsupportedGluingError(
            f"expected exactly one essential longitude of order {p}, "
            f"got orders {o1} and {o2}")
    side = essential[0][0]
    ess_model = model1 if side == 1 else model2
    ess_class = r1 if side == 1 else r2
    other_class = r2 if side == 1 else r1
    # express the nullhomologous side's rational longitude as a curve in the
    # essential side's (mu, lam) basis; rows of g give (mu1, lam1) in the
    # (mu2, lam2) basis, so row vectors of curve coefficients transform by
    # the inverse matrix going 2 -> 1 and by g itself going 1 -> 2
    x, y = other_class
    rows = g.inverse().rows() if side == 1 else g.rows()
    curve = (x * rows[0][0] + y * rows[1][0], x * rows[0][1] + y * rows[1][1])
    ab = abelianization(ess_model.presentation)
    M = ab.matrix.matrix()
    gcount = ab.matrix.rows
    vec = _class_vector(ab, curve[0], curve[1])
    diag, U = _smith_diagonal(M, gcount)
    free_rows = [i for i in range(gcount) if i >= len(diag) or diag[i] == 0]
    free_image = [sum(U[i][j] * vec[j] for j in range(gcount)) for i in free_rows]
    free_gcd = math.gcd(*free_image) if free_image else 0
    divisible = _divisible_in_cokernel(vec, M, p)
    basis_det = ess_class[0] * curve[1] - ess_class[1] * curve[0]
    evidence = {
        "essential_order": p,
        "free_rank": len(free_rows),
        "dual_longitude_free_image": free_gcd,
        "dual_longitude_divisible_by_p": bool(divisible),
        "dual_longitude_class_on_essential_side": curve,
        "boundary_basis_det": basis_det,
    }
    return CaseReport(case="2", p=p, homology=h,
                      longitude1=(r1, o1), longitude2=(r2, o2),
                      essential_side=side, evidence=evidence)


def _divisible_in_cokernel(vec, M, p: int) -> bool:
    """Whether the class of vec in coker(M) lies in p * coker(M)."""
    if not M or not M[0]:
        return all(x % p == 0 for x in vec)
    # vec = p*w + M*u has a solution iff vec is 0 in coker([p*I | M])
    g = len(vec)
    aug = [[p if i == j else 0 for j in range(g)] + list(M[i]) for i in range(g)]
    return _order_in_cokernel(vec, aug) == 1
