"""Exact integer homology calculus for knot exteriors and torus gluings.

Everything here is exact: matrices are lists of Python ints, so Smith
normal form never overflows.  An IntegerMatrixPresentation records an
abelian group as coker(matrix : Z^cols -> Z^rows), with generators indexed
by rows and relations by columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .presentations import (GluingMatrix, GroupPresentation, KnotExteriorModel,
                            _is_prime, exponent_vector)

__all__ = [
    "IntegerMatrixPresentation", "AbelianGroup", "Abelianization",
    "StandardFormResult", "CaseReport", "SeifertHomology",
    "smith_normal_form", "invariant_factors", "abelianization",
    "rational_longitude", "filling_homology", "glue_homology", "seifert_h1",
    "standard_form_reduce", "enumerate_standard_tuples", "classify_gluing",
]


def _identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
        nonzero = [x for x in _smith_diagonal(M, track_v=False)[0] if x != 0]
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


def _smith_eliminate(A, U=None, V=None):
    """Reduce the list-of-lists A in place to its Smith form D.

    Each row operation is applied to U and each column operation to V when
    that matrix is given, so D = U*A*V for U and V the identity on entry;
    the operations, and so D, do not depend on which of U and V are given.
    The pivot is the first entry of least absolute value in the remaining
    block, in row-major order.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    column_ops = (A,) if V is None else (A, V)
    t = 0
    while t < min(n, m):
        best = 0
        for i in range(t, n):
            row = A[i]
            for j in range(t, m):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        A[t], A[pi] = A[pi], A[t]
        if U is not None:
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for R in column_ops:
                for row in R:
                    row[t], row[pj] = row[pj], row[t]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            if U is not None:
                U[t] = [-a for a in U[t]]
        # clear row and column t; restart if a remainder creates smaller entries
        top = A[t]
        d = top[t]
        clean = True
        for i in range(t + 1, n):
            q = A[i][t] // d
            if q:
                A[i] = row = [a - q * b for a, b in zip(A[i], top)]
                if U is not None:
                    U[i] = [a - q * b for a, b in zip(U[i], U[t])]
                if row[t]:
                    clean = False
        for j in range(t + 1, m):
            q = top[j] // d
            if q:
                for R in column_ops:
                    for row in R:
                        row[j] -= q * row[t]
                if top[j]:
                    clean = False
        if not clean:
            continue
        # enforce divisibility d_t | everything below-right
        if d > 1:
            offender = next((i for i in range(t + 1, n)
                             if any(x % d for x in A[i][t + 1:])), None)
            if offender is not None:
                A[t] = [a + b for a, b in zip(top, A[offender])]
                if U is not None:
                    U[t] = [a + b for a, b in zip(U[t], U[offender])]
                continue
        t += 1


def smith_normal_form(M):
    """Exact Smith normal form: returns (D, U, V) with D = U*M*V.

    U and V are unimodular, D is diagonal with nonnegative entries
    satisfying d_i | d_{i+1}.
    """
    D = [[int(x) for x in row] for row in M]
    U = _identity(len(D))
    V = _identity(len(D[0]) if D else 0)
    _smith_eliminate(D, U, V)
    return D, U, V


def _smith_diagonal(M, track_v=True):
    """(diag, V) of the Smith form D = U*M*V; M may have no rows or no columns.

    U is never tracked, and V only when track_v is set (else it is None).
    """
    D = [[int(x) for x in row] for row in M]
    V = _identity(len(D[0]) if D else 0) if track_v else None
    _smith_eliminate(D, V=V)
    return [row[i] for i, row in enumerate(D) if i < len(row)], V


def invariant_factors(M) -> list[int]:
    """Diagonal of the Smith form, zeros and ones stripped."""
    return [d for d in _smith_diagonal(M, track_v=False)[0] if d > 1]


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


def _exponents(pres: GroupPresentation):
    """Exponent vectors of the relators, the meridian and the longitude."""
    g = pres.generator_count
    return ([exponent_vector(r, g) for r in pres.relators],
            exponent_vector(pres.meridian, g), exponent_vector(pres.longitude, g))


def abelianization(pres: GroupPresentation) -> Abelianization:
    """Exponent-sum matrix of the relators with meridian/longitude images."""
    cols, mu, lam = _exponents(pres)
    g = pres.generator_count
    entries = tuple(tuple(col[i] for col in cols) for i in range(g))
    imp = IntegerMatrixPresentation(rows=g, cols=len(cols), entries=entries)
    return Abelianization(matrix=imp, meridian_class=mu, longitude_class=lam)


def _boundary_coordinates(pres: GroupPresentation):
    """H1 of pres and its boundary classes in one Smith form: (diag, free_rows, mu, lam).

    D = U*E*V for the relator-by-generator exponent matrix E (one zero row
    when there is no relator), so H1 = Z^g / (rows of E) is the sum of the
    Z/diag[i] in the coordinates V^T*vec.  diag has one entry per generator,
    0 past the last relator; free_rows are where it is 0; mu and lam are
    the coordinates of the meridian and the longitude.
    """
    g = pres.generator_count
    relators, *boundary = _exponents(pres)
    diag, V = _smith_diagonal(relators or [[0] * g])
    diag += [0] * (g - len(diag))
    mu, lam = ([sum(x * row[j] for x, row in zip(vec, V)) for j in range(g)]
               for vec in boundary)
    return diag, [i for i, d in enumerate(diag) if d == 0], mu, lam


def _divisible(diag, w, p: int) -> bool:
    """Whether the class with Smith coordinates w lies in p * H1: gcd(p, d) | x on each row."""
    return all(x % math.gcd(p, d) == 0 for d, x in zip(diag, w))


class ModelInvalidError(ValueError):
    """Boundary classes violate the rank-1 kernel expected of a torus boundary."""


def rational_longitude(model: KnotExteriorModel):
    """Primitive boundary class killed rationally, and its torsion order.

    Returns ((x, y), order): the class x*mu + y*lam generates the kernel of
    H1(boundary; Q) -> H1(M; Q), sign-normalized with y >= 0 (then x >= 0),
    and order is the order of its image in H1(M; Z).
    """
    diag, free_rows, mu, lam = _boundary_coordinates(model.presentation)
    if not free_rows:
        raise ModelInvalidError("H1 has no free part (not a torus boundary)")
    # the rational kernel of the free rows of [mu | lam]: rank 1 iff the
    # nonzero rows are parallel
    rows = [(mu[i], lam[i]) for i in free_rows if mu[i] or lam[i]]
    if not rows:
        raise ModelInvalidError("both boundary classes die rationally")
    a, b = rows[0]
    if any(a * l - b * m for m, l in rows):
        raise ModelInvalidError("no boundary class dies rationally")
    gcd = math.gcd(a, b)
    x, y = b // gcd, -a // gcd
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    # x*mu + y*lam vanishes on the free rows; its order is the lcm of its
    # orders on the torsion rows
    cls = [x * m + y * l for m, l in zip(mu, lam)]
    return (x, y), math.lcm(*(d // math.gcd(d, c) for d, c in zip(diag, cls) if d))


def _filling_relation_matrix(model: KnotExteriorModel, slope: tuple[int, int]):
    """Relation matrix of the Dehn filling along mu^p lam^q: the relators plus the slope."""
    p, q = slope
    cols, mu, lam = _exponents(model.presentation)
    cols.append([p * m + q * l for m, l in zip(mu, lam)])
    return [list(r) for r in zip(*cols)], len(mu)


def filling_homology(model: KnotExteriorModel, slope: tuple[int, int]) -> AbelianGroup:
    """H1 of the Dehn filling along mu^p lam^q (gcd(p, q) = 1)."""
    p, q = slope
    if math.gcd(p, q) != 1:
        raise ValueError(f"slope ({p}, {q}) is not primitive")
    return AbelianGroup.from_matrix(*_filling_relation_matrix(model, slope))


def _glue_relation_matrix(model1: KnotExteriorModel, model2: KnotExteriorModel,
                          g: GluingMatrix):
    """Mayer-Vietoris relation matrix for the union along the boundary torus."""
    cols1, mu1, lam1 = _exponents(model1.presentation)
    cols2, mu2, lam2 = _exponents(model2.presentation)
    zero1, zero2 = (0,) * len(mu1), (0,) * len(mu2)
    cols = [c + zero2 for c in cols1] + [zero1 + c for c in cols2]
    # mu1 = a mu2 + b lam2 and lam1 = p mu2 + c lam2 in the glued manifold
    for side1, (x, y) in zip((mu1, lam1), g.rows()):
        cols.append(side1 + tuple(-(x * m + y * l) for m, l in zip(mu2, lam2)))
    return [list(r) for r in zip(*cols)], len(mu1) + len(mu2)


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
    # step 1: reduce c modulo p; p cannot divide c, as a*c - b*p = -1
    r = c % p
    if allow_reversal and r > p / 2:
        r -= p
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
    diag, free_rows, mu, lam = _boundary_coordinates(ess_model.presentation)
    w = [curve[0] * m + curve[1] * l for m, l in zip(mu, lam)]
    basis_det = ess_class[0] * curve[1] - ess_class[1] * curve[0]
    evidence = {
        "essential_order": p,
        "free_rank": len(free_rows),
        "dual_longitude_free_image": math.gcd(*(w[i] for i in free_rows)),
        "dual_longitude_divisible_by_p": _divisible(diag, w, p),
        "dual_longitude_class_on_essential_side": curve,
        "boundary_basis_det": basis_det,
    }
    return CaseReport(case="2", p=p, homology=h,
                      longitude1=(r1, o1), longitude2=(r2, o2),
                      essential_side=side, evidence=evidence)

