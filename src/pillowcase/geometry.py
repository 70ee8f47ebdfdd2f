"""The pillowcase orbifold: canonical coordinates, involutions, polylines.

The pillowcase is the quotient of the torus (R/2piZ)^2 by the hyperelliptic
involution (a, b) ~ (-a, -b).  Canonical representatives live in
[0, pi] x [0, 2pi), with the extra edge folds (0, b) ~ (0, 2pi - b) and
(pi, b) ~ (pi, 2pi - b).  Polyline segments are straight segments between
plane lifts of the vertices, folded back; this reduces curve intersection
and winding computations to planar segment arithmetic.  A polyline built
from canonical vertices lifts each one next to the last, so its segments
are short geodesics; one built from_lifts keeps the lifts it is given, so
its segments may be long (a gluing matrix applied to exact lifts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

#: snap-to-edge width applied during canonicalization; keeps exact images of
#: the corner points bitwise exact despite float remainders
_SNAP = 1e-12

#: how far an intersection may lie past a segment's end or off its line, and
#: the unit cross product at or below which two segments are parallel
_INTERSECT_TOL = 1e-9

#: intersection hits at most 1e-7 apart are one hit (distinct_indices tests <)
_DEDUP_TOL = math.nextafter(1e-7, math.inf)

#: distinct_points keeps a point 1e-6 or more from every earlier kept point
_DISTINCT_TOL = 1e-6

#: LineForm.contains takes a point within 1e-6 of the line
_ON_LINE_TOL = 1e-6

#: distance-matrix entries _close_pairs holds at once; bounds its memory
#: (about 64 bytes per entry while a block is evaluated)
_PAIR_BLOCK = 1 << 16


class DegenerateCurveError(ValueError):
    """Curve passes through a forbidden marked point within tolerance."""


def _mod_2pi(x: float) -> float:
    y = math.fmod(x, TWO_PI)
    if y < 0.0:
        y += TWO_PI
    if y >= TWO_PI or TWO_PI - y < _SNAP:
        y = 0.0
    elif y < _SNAP:
        y = 0.0
    elif abs(y - math.pi) < _SNAP:
        y = math.pi
    return y


@dataclass(frozen=True, order=True)
class PillowcasePoint:
    """Canonical coordinate pair; construct via canonicalize()."""

    alpha: float
    beta: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.alpha, self.beta)

    def __str__(self):
        return f"({self.alpha:.6f}, {self.beta:.6f})"


def canonicalize(alpha_raw: float, beta_raw: float) -> PillowcasePoint:
    """Unique canonical representative of an angle pair; idempotent and total.

    Values within 1e-12 of the lattice pi Z are snapped onto it so that the
    corner and marked points reproduce exactly under the involutions.
    """
    if not (math.isfinite(alpha_raw) and math.isfinite(beta_raw)):
        raise ValueError("angles must be finite")
    a = _mod_2pi(alpha_raw)
    b = _mod_2pi(beta_raw)
    if a > math.pi:
        a = TWO_PI - a
        b = _mod_2pi(-b)
    if (a == 0.0 or a == math.pi) and b > math.pi:
        b = TWO_PI - b
    return PillowcasePoint(a, b)


#: marked points of the pillowcase
P_POINT = canonicalize(0.0, math.pi)
Q_POINT = canonicalize(math.pi, math.pi)


def _is_prime(p: int) -> bool:
    """Trial-division primality test for the small integers of gluings."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def sigma(pt: PillowcasePoint) -> PillowcasePoint:
    """(a, b) -> (-a, 2a + b)."""
    return apply_integer_matrix(((-1, 0), (2, 1)), pt)


def tau(pt: PillowcasePoint) -> PillowcasePoint:
    """(a, b) -> (pi - a, 2pi - b)."""
    return canonicalize(math.pi - pt.alpha, TWO_PI - pt.beta)


def sigma_p(p: int, pt: PillowcasePoint) -> PillowcasePoint:
    """(a, b) -> (-a, pa + b) for an odd prime p."""
    if p == 2 or not _is_prime(p):
        raise ValueError(f"sigma_p needs an odd prime, got {p}")
    return apply_integer_matrix(((-1, 0), (p, 1)), pt)


@dataclass(frozen=True)
class GluingMatrix:
    """Orientation-reversing torus gluing: mu1 = a mu2 + b lam2, lam1 = p mu2 + c lam2.

    The determinant a*c - b*p must be -1.
    """

    a: int
    b: int
    p: int
    c: int

    def __post_init__(self):
        for v in (self.a, self.b, self.p, self.c):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError("gluing entries must be integers")
        if self.det() != -1:
            raise ValueError(f"gluing determinant must be -1, got {self.det()}")

    def det(self) -> int:
        return self.a * self.c - self.b * self.p

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.p, self.c))

    def inverse(self) -> "GluingMatrix":
        # adj/det with det = -1
        return GluingMatrix(a=-self.c, b=self.b, p=self.p, c=-self.a)

    @classmethod
    def swap(cls) -> "GluingMatrix":
        """mu1 <-> lam2, lam1 <-> mu2 (splice gluing)."""
        return cls(0, 1, 1, 0)

    @classmethod
    def skew(cls, p: int = 2) -> "GluingMatrix":
        """mu1 ~ mu2^-1, lam1 ~ mu2^p lam2."""
        return cls(-1, 0, p, 1)


def apply_integer_matrix(rows, pt: PillowcasePoint) -> PillowcasePoint:
    """Linear action of an integer 2x2 matrix on angle pairs, canonicalized.

    Any unimodular integer matrix descends to the pillowcase since it
    commutes with negation and preserves the 2pi lattice.
    """
    (a, b), (p, c) = rows
    if abs(a * c - b * p) != 1:
        raise ValueError("matrix must be unimodular")
    return canonicalize(a * pt.alpha + b * pt.beta, p * pt.alpha + c * pt.beta)


def induced_boundary_transform(g: GluingMatrix, pt: PillowcasePoint) -> PillowcasePoint:
    """Pillowcase map induced by a gluing on peripheral holonomy angles.

    Takes angle coordinates for the (mu2, lam2) basis to coordinates for
    (mu1, lam1).  The skew gluing (-1, 0, 2, 1) specializes to sigma.
    """
    return apply_integer_matrix(g.rows(), pt)


# ---------------------------------------------------------------------------
# distances and lifts

#: the signs of _reps_near_array's 18 lifts, and their lattice steps
#: (dm, dn) as rows: sign 1 then -1, dm outer, dn inner
_LIFT_SIGNS = np.repeat([1.0, -1.0], 9)
_LIFT_STEPS = np.array([np.tile(np.repeat([-1.0, 0.0, 1.0], 3), 2),
                        np.tile([-1.0, 0.0, 1.0], 6)])

#: the two signs of the involution, as a (2, 1) column
_SIGNS = np.array([[1.0], [-1.0]])


def _reps_near_array(pt: PillowcasePoint, anchors: np.ndarray) -> np.ndarray:
    """Plane lifts of pt within one lattice step of each anchor, both signs.

    anchors is (n, 2, 1), a column (x, y) per anchor; the result is
    (n, 2, 18), the (x, y) rows of 18 lifts per anchor.  For sign 1, then
    -1, they are the lifts s * pt + 2pi (m, n) with (m, n) within one step
    of the lattice point nearest the anchor minus s * pt, dm outer and dn
    inner.  One broadcast makes all of them, each coordinate by the
    operations of a scalar loop over s, dm and dn (np.rint rounds half to
    even, as round does).
    """
    base = _LIFT_SIGNS * np.array([[pt.alpha], [pt.beta]])
    return base + TWO_PI * (np.rint((anchors - base) / TWO_PI) + _LIFT_STEPS)


def pillowcase_distance(p1: PillowcasePoint, p2: PillowcasePoint) -> float:
    """Flat orbifold metric distance.

    The deck group translates the two coordinates independently, so the
    minimum over lattice shifts is the wrapped difference per coordinate,
    leaving only the sign choice.  A difference d wraps to
    d - 2pi round(d / 2pi), which is math.remainder(d, 2pi) exactly for
    |d| < 5pi (every difference of canonical coordinates), and the
    distance is sqrt(dx*dx + dy*dy): the operations of pillowcase_distances,
    so the two agree bit for bit.
    """
    best = math.inf
    for s in (1.0, -1.0):
        x = p1.alpha - s * p2.alpha
        dx = x - TWO_PI * round(x / TWO_PI)
        y = p1.beta - s * p2.beta
        dy = y - TWO_PI * round(y / TWO_PI)
        best = min(best, math.sqrt(dx * dx + dy * dy))
    return best


def _wrap_2pi(d: np.ndarray) -> np.ndarray:
    return d - TWO_PI * np.rint(d / TWO_PI)


def _norm(dx, dy):
    """sqrt(dx*dx + dy*dy), the distance formula of pillowcase_distance."""
    return np.sqrt(dx * dx + dy * dy)


def pillowcase_distances(xy: np.ndarray, pt: PillowcasePoint) -> np.ndarray:
    """pillowcase_distance from every row (alpha, beta) of an (n, 2) array to pt.

    The scalar function's operations, broadcast over the rows, so entry i
    is pillowcase_distance(point i, pt) bit for bit: callers rank, break
    ties and test thresholds on these values alone.
    """
    x, y = xy[:, 0], xy[:, 1]
    return _norm(_wrap_2pi(x - _SIGNS * pt.alpha),
                 _wrap_2pi(y - _SIGNS * pt.beta)).min(axis=0)


def pillowcase_distance_matrix(xy: np.ndarray) -> np.ndarray:
    """(n, n) distances between the rows (alpha, beta) of an (n, 2) array.

    Row i is pillowcase_distances(xy, point i) bit for bit: the same
    operations, broadcast over the points.  The matrix is symmetric, since
    negating a difference negates its wrap exactly.
    """
    return _distance_rows(xy, xy)


def _distance_rows(xy: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Row i: pillowcase_distances(xy, anchor i), bit for bit."""
    x, y = xy[:, 0], xy[:, 1]
    return _norm(_wrap_2pi(x - _SIGNS[:, :, None] * anchors[:, 0, None]),
                 _wrap_2pi(y - _SIGNS[:, :, None] * anchors[:, 1, None])).min(axis=0)


def nearest_lift(pt: PillowcasePoint, anchor: tuple[float, float]) -> tuple[float, float]:
    """Plane lift of pt closest to the anchor point; deterministic on ties."""
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


# ---------------------------------------------------------------------------
# polylines

@dataclass(frozen=True)
class PillowcasePolyline:
    """Ordered canonical vertices joined by the segments of a plane lift."""

    vertices: tuple[PillowcasePoint, ...]
    closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.vertices) < 2:
            raise ValueError("polyline needs at least two vertices")

    @classmethod
    def from_lifts(cls, lifts, closed: bool = False) -> "PillowcasePolyline":
        """The polyline through the canonical images of plane lifts, keeping the lifts.

        The lifts are its lift cache as given, so a segment is the plane
        segment between consecutive lifts, however long.  A closed polyline
        takes one lift more than it has vertices: its first vertex's lift
        reached after going around.
        """
        lifts = tuple((float(x), float(y)) for x, y in lifts)
        line = cls(tuple(canonicalize(x, y) for x, y in (lifts[:-1] if closed else lifts)),
                   closed=closed)
        object.__setattr__(line, "_lifts", lifts)
        return line

    def __len__(self):
        return len(self.vertices)

    def segment_count(self) -> int:
        return len(self.vertices) - 1 + (1 if self.closed else 0)

    @cached_property
    def _lifts(self) -> tuple[tuple[float, float], ...]:
        first = self.vertices[0]
        lifts = [(first.alpha, first.beta)]
        seq = list(self.vertices[1:])
        if self.closed:
            seq.append(first)
        for v in seq:
            lifts.append(nearest_lift(v, lifts[-1]))
        return tuple(lifts)

    @cached_property
    def _lift_array(self) -> np.ndarray:
        """The lifted vertices as a read-only (segments + 1, 2) array."""
        xy = np.array(self._lifts)
        xy.flags.writeable = False
        return xy

    def lifted_vertices(self) -> list[tuple[float, float]]:
        """Continuous plane lift of the vertices.

        It starts at the first vertex's canonical rep, unless the polyline
        was built from_lifts.  For a closed polyline the returned list has
        one extra point: the lift of the first vertex reached after going
        all the way around (a deck translate of the start).  The lift is
        computed once per polyline and cached.
        """
        return list(self._lifts)

    def lifted_segments(self) -> list[tuple[tuple[float, float], tuple[float, float]]]:
        lifts = self._lifts
        return list(zip(lifts[:-1], lifts[1:]))

    def length(self) -> float:
        return sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in self.lifted_segments())

    @cached_property
    def _segment_table(self) -> np.ndarray:
        """(segments, 8) read-only columns xa, ya, dx, dy, L2, mx, my, reach.

        Segment i runs from the lift (xa, ya) by (dx, dy) to the next lift,
        with midpoint (mx, my); L2 = dx*dx + dy*dy, or 1 on a zero-length
        segment.  reach is its half length plus the rounding pad of
        _distance_bounds.
        """
        xy = self._lift_array
        a, b = xy[:-1], xy[1:]
        step = b - a
        length2 = step[:, 0] * step[:, 0] + step[:, 1] * step[:, 1]
        scale = np.abs(a).sum(axis=1) + np.abs(b).sum(axis=1)
        reach = 0.5 * np.sqrt(length2) + 256.0 * np.finfo(float).eps * (1.0 + scale)
        table = np.column_stack([a, step, np.where(length2 == 0.0, 1.0, length2),
                                 0.5 * (a + b), reach])
        table.flags.writeable = False
        return table

    @cached_property
    def _box_table(self) -> np.ndarray:
        """(segments, 8) read-only lifted segment boxes: raw, then padded.

        Columns 0-3 are each segment's box [xlo, xhi, ylo, yhi], and columns
        4-7 the same box padded by (tol + 64 eps / tol) (1 + length), with
        tol = _INTERSECT_TOL.  If _segment_intersection(a, b) reports
        anything, the boxes of a and b lie within tol * (2 + |a| + |b|) of
        each other in exact arithmetic: a transversal hit is within tol of
        both segments (t and u overshoot [0, 1] by at most tol / length); a
        collinear hit has b within tol * (1 + |b|) of the line of a (offset
        and direction checks) and the projections within tol * |a| along it
        (hi >= lo - tol).  Rounding moves the hit by at most
        ~4 eps (|a| + |b|) / |unit_cross| < 4 eps (|a| + |b|) / tol, the
        near-parallel transversal worst case, plus an ulp of the
        coordinates.  The two pads sum to at least tol * (2 + |a| + |b|)
        + 64 eps (|a| + |b|) / tol, and to at least 4 sqrt(64 eps) ~ 5e-7,
        far above an ulp of any lift reached here, so they cover all of it.
        """
        tol = _INTERSECT_TOL
        xy = self._lift_array
        x, y = xy[:, 0], xy[:, 1]
        boxes = np.stack([np.minimum(x[:-1], x[1:]), np.maximum(x[:-1], x[1:]),
                          np.minimum(y[:-1], y[1:]), np.maximum(y[:-1], y[1:])], axis=1)
        length = np.hypot(x[1:] - x[:-1], y[1:] - y[:-1])
        pad = (tol + 64.0 * np.finfo(float).eps / tol) * (1.0 + length)
        table = np.hstack([boxes, boxes + pad[:, None] * np.array([-1.0, 1.0, -1.0, 1.0])])
        table.flags.writeable = False
        return table

    def _distance_bounds(self, pt: PillowcasePoint) -> np.ndarray:
        """Per segment, a lower bound on every distance _lift_distances gives it.

        The bound is pillowcase_distances from the segment's midpoint to pt,
        minus half the segment's length and a pad.  In exact arithmetic a
        lift of pt lies at least the midpoint's distance from the midpoint,
        so at least that minus half the length from the segment.  Rounding
        moves the computed midpoint, lifts, projected point, length and
        norms by a few eps times the magnitudes they involve: the ends (at
        most C = |xa| + |ya| + |xb| + |yb|), the lifts (within 3pi of the
        midpoint per coordinate), the length (at most 2C) and the distances
        (below 5).  That is under 8 eps (7C + 25) in all, and the pad is
        256 eps (1 + C), which covers it.
        """
        table = self._segment_table
        return pillowcase_distances(table[:, 5:7], pt) - table[:, 7]

    def _scan(self, pt: PillowcasePoint, rows) -> tuple[np.ndarray, np.ndarray]:
        """_lift_distances of the segments in rows (an index array or a slice).

        x and y run as the two rows of one (segments, 2, 18) array, each by
        its own operations: t from (px - xa) * dx + (py - ya) * dy, and the
        distance from ex * ex + ey * ey.
        """
        table = self._segment_table[rows]
        start, step = table[:, 0:2, None], table[:, 2:4, None]
        lift = _reps_near_array(pt, table[:, 5:7, None])
        along = (lift - start) * step
        t = ((along[:, 0] + along[:, 1]) / table[:, 4, None]).clip(0.0, 1.0)
        off = lift - (start + t[:, None] * step)
        off = off * off
        return np.sqrt(off[:, 0] + off[:, 1]), t

    def _lift_distances(self, pt: PillowcasePoint,
                        radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(segments, 18) distances from each segment to the lifts of pt near it, and t.

        Row i is for the 18 lifts that _reps_near_array gives around segment
        i's midpoint, in that order.  t is a lift's projection parameter on
        the segment, clipped to [0, 1] (0 on a zero-length segment), and the
        distance is sqrt(ex*ex + ey*ey) of the lift's offset from the point
        at t, as in pillowcase_distance.  Only segments whose
        _distance_bounds entry is at most the radius are scanned; the rows
        of the others read distance inf and t 0.  Their distances exceed the
        radius, so every entry at or below it, and so every least entry
        there, is where the full scan (_scan of every row) has it.
        """
        keep = np.flatnonzero(self._distance_bounds(pt) <= radius)
        d = np.full((self.segment_count(), 18), math.inf)
        t = np.zeros_like(d)
        if len(keep):
            d[keep], t[keep] = self._scan(pt, keep)
        return d, t

    def min_distance_to(self, pt: PillowcasePoint) -> float:
        """Distance from pt (any point, marked or not) to the polyline's segments.

        The least entry of _lift_distances: over every segment, the distance
        to the nearest of the lifts of pt around its midpoint.  Only the
        segments that can hold it are scanned: the radius is the scanned
        distance of the segment with the least _distance_bounds entry.
        """
        bound = self._distance_bounds(pt)
        r = int(np.argmin(bound))
        radius = self._scan(pt, slice(r, r + 1))[0].min()
        keep = np.flatnonzero(bound <= radius)
        if len(keep) == 1:
            return float(radius)
        return float(self._scan(pt, keep)[0].min())

    def transformed(self, rows) -> "PillowcasePolyline":
        """The image under an integer 2x2 matrix, applied to the plane lifts.

        The map is linear on the plane, so the image of a lifted segment is
        the segment between the images of its ends, however long.
        """
        (a, b), (p, c) = rows
        return PillowcasePolyline.from_lifts(
            [(a * x + b * y, p * x + c * y) for x, y in self._lifts], self.closed)


def polyline(points, closed: bool = False) -> PillowcasePolyline:
    """Build a polyline, canonicalizing raw (alpha, beta) pairs."""
    verts = []
    for p in points:
        if isinstance(p, PillowcasePoint):
            verts.append(p)
        else:
            verts.append(canonicalize(p[0], p[1]))
    return PillowcasePolyline(tuple(verts), closed=closed)


# ---------------------------------------------------------------------------
# intersections

def _segment_intersection(a1, a2, b1, b2):
    """Intersections of two plane segments, to within _INTERSECT_TOL.

    Returns a list of (x, y, transversal, t_a, t_b).  Collinear overlaps
    report the midpoint of the overlap interval with transversal=False.
    """
    tol = _INTERSECT_TOL
    ax, ay = a1
    bx, by = a2
    cx, cy = b1
    dx, dy = b2
    r = (bx - ax, by - ay)
    s = (dx - cx, dy - cy)
    rlen = math.hypot(*r)
    slen = math.hypot(*s)
    if rlen == 0.0 or slen == 0.0:
        return []
    cross = r[0] * s[1] - r[1] * s[0]
    qp = (cx - ax, cy - ay)
    qpxr = qp[0] * r[1] - qp[1] * r[0]
    unit_cross = cross / (rlen * slen)
    if abs(unit_cross) <= tol:
        # parallel: check collinearity then overlap
        if abs(qpxr) / rlen > tol:
            return []
        t0 = (qp[0] * r[0] + qp[1] * r[1]) / (rlen * rlen)
        t1 = t0 + (s[0] * r[0] + s[1] * r[1]) / (rlen * rlen)
        lo, hi = min(t0, t1), max(t0, t1)
        lo = max(lo, 0.0)
        hi = min(hi, 1.0)
        if hi < lo - tol:
            return []
        tm = 0.5 * (lo + hi)
        x, y = ax + tm * r[0], ay + tm * r[1]
        tb_num = ((x - cx) * s[0] + (y - cy) * s[1]) / (slen * slen)
        return [(x, y, False, tm, tb_num)]
    t = (qp[0] * s[1] - qp[1] * s[0]) / cross
    u = qpxr / cross
    pad_a = tol / rlen
    pad_b = tol / slen
    if -pad_a <= t <= 1.0 + pad_a and -pad_b <= u <= 1.0 + pad_b:
        x, y = ax + t * r[0], ay + t * r[1]
        return [(x, y, True, t, u)]
    return []


def _shift_range(lo_a, hi_a, lo_b, hi_b):
    """(k_lo, k_hi): the 2pi k shifts of [lo_b, hi_b] meeting [lo_a, hi_a] are k_lo..k_hi."""
    return np.ceil((lo_a - hi_b) / TWO_PI), np.floor((hi_a - lo_b) / TWO_PI)


def _flip(boxes):
    """Boxes [xlo, xhi, ylo, yhi] of the negated segments."""
    return -boxes[:, [1, 0, 3, 2]]


def _deck_shifts(c1: PillowcasePolyline, c2: PillowcasePolyline):
    """((i1, i2), per-sign shifts) for the segment pairs some deck image can make meet.

    Broad and narrow phase of detailed_intersections, from each curve's
    _box_table.  A pair is kept when, for sign 1 or -1, some 2pi shifts in
    x and in y bring the padded box of sign * seg2[i2] onto the one of
    seg1[i1]; pairs come in the all-pairs loop order, i1 then i2 ascending.
    Each (S1, S2) array of shift ranges is dropped once compared.  For sign
    1, then -1, the shifts of a kept pair are the ranges
    [m_lo, m_hi, n_lo, n_hi] of the deck images sign * seg2[i2] + 2pi (m, n)
    whose padded box meets the one of seg1[i1], so by the _box_table bound
    no dropped image gives a hit.  They are also clipped to the floor/ceil
    range of the raw boxes, seg1[i1]'s widened by _INTERSECT_TOL, which
    bounds them where the pads are wide (two segments some 4e5 long in all).
    """
    tol = _INTERSECT_TOL
    t1, t2 = c1._box_table, c2._box_table
    a, b = t1[:, 4:], t2[:, 4:]
    keep = np.zeros((len(a), len(b)), dtype=bool)
    for sb in (b, _flip(b)):
        x, y = (np.less_equal(*_shift_range(a[:, c, None], a[:, c + 1, None],
                                            sb[None, :, c], sb[None, :, c + 1]))
                for c in (0, 2))
        keep |= x & y
    # np.nonzero on the 2-D mask takes about six times as long
    i1, i2 = np.divmod(np.flatnonzero(keep), len(b))
    a, b = a[i1], b[i2]
    ra = t1[i1, :4] + np.array([-tol, tol, -tol, tol])
    rb = t2[i2, :4]
    ranges = []
    for sb, srb in ((b, rb), (_flip(b), _flip(rb))):
        k_lo, k_hi = _shift_range(a[:, 0::2], a[:, 1::2], sb[:, 0::2], sb[:, 1::2])
        k_lo = np.maximum(k_lo, np.floor((ra[:, 0::2] - srb[:, 1::2]) / TWO_PI))
        k_hi = np.minimum(k_hi, np.ceil((ra[:, 1::2] - srb[:, 0::2]) / TWO_PI))
        ranges.append(np.stack([k_lo[:, 0], k_hi[:, 0], k_lo[:, 1], k_hi[:, 1]], axis=1))
    pairs = zip(i1.tolist(), i2.tolist())
    return list(zip(pairs, np.stack(ranges, axis=1).astype(int).tolist()))


def detailed_intersections(c1: PillowcasePolyline, c2: PillowcasePolyline):
    """All orbifold intersections with segment indices and parameters.

    Returns a list of (point, transversal, i1, t1, i2, t2), deduplicated by
    orbifold distance.  Used by polyline_intersections and curve splitting.
    """
    segs1 = c1.lifted_segments()
    segs2 = c2.lifted_segments()
    found = []
    for (i1, i2), per_sign in _deck_shifts(c1, c2):
        seg_a = segs1[i1]
        (x1, y1), (x2, y2) = segs2[i2]
        for sgn, (m_lo, m_hi, n_lo, n_hi) in zip((1.0, -1.0), per_sign):
            u1, v1, u2, v2 = sgn * x1, sgn * y1, sgn * x2, sgn * y2
            for m in range(m_lo, m_hi + 1):
                for n in range(n_lo, n_hi + 1):
                    for (x, y, trans, ta, tb) in _segment_intersection(
                            seg_a[0], seg_a[1], (u1 + TWO_PI * m, v1 + TWO_PI * n),
                            (u2 + TWO_PI * m, v2 + TWO_PI * n)):
                        found.append((canonicalize(x, y), trans, i1, ta, i2, tb))
    # dedup by orbifold distance <= 1e-7 per segment pair, transversal
    # crossings taking precedence
    found.sort(key=lambda rec: (rec[0].alpha, rec[0].beta, not rec[1]))
    keep = distinct_indices([rec[0] for rec in found], _DEDUP_TOL,
                            keys=[(rec[2], rec[4]) for rec in found])
    return [found[i] for i in keep]


def polyline_intersections(c1: PillowcasePolyline, c2: PillowcasePolyline):
    """Intersection points of two polylines with transversality flags.

    Transversality means the unit segment directions have cross product
    above _INTERSECT_TOL; tangential overlaps are reported as
    non-transversal with a representative point of the overlap interval.
    """
    hits = [(pt, trans) for (pt, trans, *_rest) in detailed_intersections(c1, c2)]
    keep = distinct_indices([pt for pt, _ in hits], _DEDUP_TOL,
                            keys=[trans for _, trans in hits])
    return [hits[i] for i in keep]


# ---------------------------------------------------------------------------
# essential class

#: reference arc from P to Q used for the winding count
_REFERENCE_EPSILONS = (1e-8, 2.3e-8, 3.7e-8, 5.1e-8, 7.3e-8, 1.1e-7, 1e-6, 1e-5)


def _abs_remainder(d: np.ndarray, period: float) -> np.ndarray:
    """|math.remainder(d, period)| for period > 0, bit for bit.

    With f = |fmod(d, period)|, exact, the remainder's size is
    min(f, period - f).  The subtraction is exact where it decides the min
    (f >= period / 2, by Sterbenz's lemma), and elsewhere it rounds to no
    less than period / 2 >= f.
    """
    f = np.abs(np.fmod(d, period))
    return np.minimum(f, period - f)


def essential_class(curve: PillowcasePolyline) -> int:
    """Signed crossings with the arc from P to Q along {beta = pi}.

    The count is the homology class of the curve in the twice-punctured
    pillowcase; it is nonzero iff the curve separates P from Q.  Sign
    convention: crossing the arc upward (beta increasing, in canonical
    coordinates) counts +1.  The reference arc is perturbed by a tiny
    deterministic epsilon so crossings at vertices are unambiguous: the
    first of _REFERENCE_EPSILONS with no lift within 1e-11 of pi + eps mod
    2pi, tested on all lifts at once (_abs_remainder).  Curves passing
    within 1e-7 of P or Q raise DegenerateCurveError, and lifts that are
    not finite raise ValueError.
    """
    if not curve.closed:
        raise ValueError("essential_class needs a closed polyline")
    xy = curve._lift_array
    if not np.isfinite(xy).all():
        raise ValueError("essential_class needs finite lifts")
    for marked in (P_POINT, Q_POINT):
        if curve.min_distance_to(marked) <= 1e-7:
            raise DegenerateCurveError(f"curve passes through marked point {marked}")
    for eps in _REFERENCE_EPSILONS:
        if not (_abs_remainder(xy[:, 1] - (math.pi + eps), TWO_PI) < 1e-11).any():
            return _count_crossings(curve, eps)
    raise DegenerateCurveError("could not find a clean reference arc offset")


def _count_crossings(curve: PillowcasePolyline, eps: float) -> int:
    """Signed crossings of the lifted segments with the lines beta = pi + eps + 2pi k.

    One array pass gives each segment its window of k; the segments whose
    window is not empty are then counted one by one, in the scalar
    arithmetic the count has always used.  A segment with an empty window
    would count nothing.
    """
    y = curve._lift_array[:, 1]
    first = np.ceil((np.minimum(y[:-1], y[1:]) - math.pi - eps) / TWO_PI)
    last = np.floor((np.maximum(y[:-1], y[1:]) - math.pi - eps) / TWO_PI)
    lifts = curve._lifts
    total = 0
    for i in np.flatnonzero(first <= last).tolist():
        (x1, y1), (x2, y2) = lifts[i], lifts[i + 1]
        if y1 == y2:
            continue
        lo, hi = min(y1, y2), max(y1, y2)
        k_lo = math.ceil((lo - math.pi - eps) / TWO_PI)
        k_hi = math.floor((hi - math.pi - eps) / TWO_PI)
        for k in range(k_lo, k_hi + 1):
            h = math.pi + eps + TWO_PI * k
            if not (lo < h < hi):
                continue
            t = (h - y1) / (y2 - y1)
            x = x1 + t * (x2 - x1)
            upward = 1 if y2 > y1 else -1
            # arc orientation in the plane flips on odd half-period strips
            xm = math.fmod(x, TWO_PI)
            if xm < 0:
                xm += TWO_PI
            orient = 1 if xm < math.pi else -1
            total += upward * orient
    return total


def line_offset(pt: PillowcasePoint, coef_alpha: float, coef_beta: float,
                target: float) -> float:
    """Distance of coef_a*alpha + coef_b*beta from target, mod 2pi.

    Well defined on the pillowcase for integer coefficients since the
    combination flips sign with the involution.
    """
    val = coef_alpha * pt.alpha + coef_beta * pt.beta - target
    return abs(math.remainder(val, TWO_PI))


def line_crossings(curve: PillowcasePolyline, ca: float, cb: float,
                   target: float = 0.0, period: float = TWO_PI) -> list[PillowcasePoint]:
    """Points where the curve meets ca*alpha + cb*beta = target mod period.

    Each lifted segment is scanned for the line's translates: with f the
    linear form minus target at the two ends, a translate k*period is met
    where the segment parameter t = (k*period - f1)/(f2 - f1) lies in
    [-1e-9, 1 + 1e-9], so the k-window is widened by 1e-9*|f2 - f1| on
    each side.  A segment parallel to the line (|f2 - f1| < 1e-15) gives
    both its ends when it lies on the line (|remainder(f1, period)| < 1e-9)
    and nothing otherwise.  Canonical points come in segment order, then
    k order, not deduplicated; a hit at a shared vertex appears once per
    segment.  One array pass over all segments (period > 0) finds those
    that can give a point: the parallel ones, and those whose k-window is
    not empty or not finite.  Only they are scanned, one by one, in the
    scalar arithmetic the scan has always used; a window that is not
    finite raises there, as math.ceil and math.floor do.
    """
    xy = curve._lift_array
    with np.errstate(all="ignore"):  # what is not finite raises in the scalar scan
        f = ca * xy[:, 0] + cb * xy[:, 1] - target
        rise = np.abs(f[1:] - f[:-1])
        widen = 1e-9 * rise
        first = np.ceil((np.minimum(f[:-1], f[1:]) - widen) / period)
        last = np.floor((np.maximum(f[:-1], f[1:]) + widen) / period)
        scan = (rise < 1e-15) | ~(first > last)
    lifts = curve._lifts
    hits = []
    for i in np.flatnonzero(scan).tolist():
        (x1, y1), (x2, y2) = lifts[i], lifts[i + 1]
        f1 = ca * x1 + cb * y1 - target
        f2 = ca * x2 + cb * y2 - target
        df = f2 - f1
        if abs(df) < 1e-15:
            if abs(math.remainder(f1, period)) < 1e-9:
                hits.append(canonicalize(x1, y1))
                hits.append(canonicalize(x2, y2))
            continue
        w = 1e-9 * abs(df)
        lo, hi = (f1 - w, f2 + w) if df > 0 else (f2 - w, f1 + w)
        for k in range(math.ceil(lo / period), math.floor(hi / period) + 1):
            t = (period * k - f1) / df
            if -1e-9 <= t <= 1 + 1e-9:
                hits.append(canonicalize(x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return hits


@dataclass(frozen=True)
class LineForm:
    """The point set ca*alpha + cb*beta = +-2pi*offset (mod 2pi), exactly.

    ca and cb are integers, not both 0, and offset is a Fraction; the sign
    is the involution's, so offset and -offset give one set.  Points are
    also written X = (alpha, beta) / 2pi, taken mod Z^2.
    """

    ca: int
    cb: int
    offset: Fraction

    @property
    def _signs(self) -> tuple[int, ...]:
        """Target signs of distinct lines: one when 2*offset is an integer (0 or pi)."""
        return (1,) if (2 * self.offset).denominator == 1 else (1, -1)

    def transformed(self, gluing: GluingMatrix) -> "LineForm":
        """The form of the line's image under X = M x, M = gluing.rows().

        u.x = +-c becomes (u M^-1).X = +-c: integer, with the same offset.
        """
        (a, b), (p, c) = gluing.inverse().rows()
        return LineForm(self.ca * a + self.cb * p, self.ca * b + self.cb * c, self.offset)

    def _residual(self, pt: PillowcasePoint) -> float:
        """The least line_offset of pt from the targets +-2pi*offset.

        Both signs even where they are one line, as the on-line filter has
        always compared them, so that contains keeps its verdicts bit for bit.
        """
        return min(line_offset(pt, self.ca, self.cb, s * TWO_PI * float(self.offset))
                   for s in (1, -1))

    def contains(self, pt: PillowcasePoint) -> bool:
        """Whether pt lies within _ON_LINE_TOL of the line: offset below that * |(ca, cb)|."""
        return self._residual(pt) < _ON_LINE_TOL * math.hypot(self.ca, self.cb)

    def crossings(self, curve: PillowcasePolyline) -> list[PillowcasePoint]:
        """line_crossings of the curve at +2pi*offset, then at -2pi*offset if that differs."""
        return [pt for s in self._signs
                for pt in line_crossings(curve, self.ca, self.cb, s * TWO_PI * float(self.offset))]

    def meet(self, other: "LineForm") -> list[tuple[Fraction, Fraction]]:
        """The points of both lines, as X in [0, 1)^2, one per pair X ~ -X, sorted.

        With A = [[ca, cb], [other.ca, other.cb]] and D = det A, a sign pair
        s gives the |D| points X = A^-1 (s*c + k), k over the residues of
        Z^2 / A Z^2 (column Hermite form: k1 < g = gcd(ca, cb),
        k2 < |D| / g).  Parallel or coincident lines (D = 0) give none.
        The points are deduplicated as integer numerators over the common
        denominator L = q1 q2 |D| of the offsets' denominators and D.
        """
        u1, u2, v1, v2 = self.ca, self.cb, other.ca, other.cb
        det = u1 * v2 - u2 * v1
        if det == 0:
            return []
        g = math.gcd(u1, u2)
        (n1, q1), (n2, q2) = self.offset.as_integer_ratio(), other.offset.as_integer_ratio()
        L = q1 * q2 * abs(det)
        sign = 1 if det > 0 else -1
        found = set()
        for s1 in self._signs:
            for s2 in other._signs:
                for k1 in range(g):
                    for k2 in range(abs(det) // g):
                        # r = s*c + k times q1 q2, then X * L = sign * adj(A) r
                        r1, r2 = (s1 * n1 + k1 * q1) * q2, (s2 * n2 + k2 * q2) * q1
                        x, y = sign * (v2 * r1 - u2 * r2), sign * (u1 * r2 - v1 * r1)
                        found.add(min((x % L, y % L), (-x % L, -y % L)))
        return [(Fraction(x, L), Fraction(y, L)) for x, y in sorted(found)]


def _close_pairs(points, radius: float) -> list[tuple[int, int]]:
    """Index pairs (i, j), i != j, of points closer than radius, row by row.

    The verdicts read rows of pillowcase_distance_matrix, _PAIR_BLOCK entries
    at a time, whose entries are the scalar pillowcase_distance bit for bit.
    d <= r is d < nextafter(r, inf).
    """
    if len(points) < 2:
        return []
    xy = np.array([p.as_tuple() for p in points]).reshape(len(points), 2)
    rows = max(1, _PAIR_BLOCK // len(xy))
    pairs = []
    for lo in range(0, len(xy), rows):
        near = np.nonzero(_distance_rows(xy, xy[lo:lo + rows]) < radius)
        pairs += [(lo + i, j) for i, j in zip(*(idx.tolist() for idx in near)) if lo + i != j]
    return pairs


def distance_components(points, radius: float) -> list[list[int]]:
    """Components of the graph joining points closer than radius.

    Each component is a sorted list of indices; components come in order
    of their least index.
    """
    neighbours = [[] for _ in points]
    for i, j in _close_pairs(points, radius):
        neighbours[i].append(j)
    seen = [False] * len(points)
    components = []
    for start in range(len(points)):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [], [start]
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in neighbours[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        components.append(sorted(comp))
    return components


def distinct_indices(points, tol: float, keys=None) -> list[int]:
    """Indices of first occurrences, in input order.

    Point i is dropped when an earlier kept point lies closer than tol and,
    if per-point keys are given, has a key equal to its own.
    """
    dropped = set()
    for i, j in _close_pairs(points, tol):
        if j < i and j not in dropped and (keys is None or keys[i] == keys[j]):
            dropped.add(i)
    return [i for i in range(len(points)) if i not in dropped]


def distinct_points(points) -> list[PillowcasePoint]:
    """First occurrences, in input order, of points _DISTINCT_TOL apart or more."""
    points = list(points)
    return [points[i] for i in distinct_indices(points, _DISTINCT_TOL)]
