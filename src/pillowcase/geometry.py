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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# geometry uses GluingMatrix only in annotations; the name stays bound for
# code that imports it from pillowcase.geometry
from .presentations import GluingMatrix, _is_prime

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

#: distance-matrix entries _row_blocks holds at once; bounds its memory
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


def _mod_2pi_array(x: np.ndarray) -> np.ndarray:
    """_mod_2pi of every entry, bit for bit (np.fmod is exact, as math.fmod is)."""
    y = np.fmod(x, TWO_PI)
    y = np.where(y < 0.0, y + TWO_PI, y)
    zero = (y >= TWO_PI) | (TWO_PI - y < _SNAP) | (y < _SNAP)
    return np.where(zero, 0.0, np.where(np.abs(y - math.pi) < _SNAP, math.pi, y))


def _canonical_array(xy: np.ndarray) -> np.ndarray:
    """Row i: canonicalize(*xy[i]).as_tuple(), bit for bit, for an (n, 2) array.

    The scalar function's branches, taken per row by np.where; a value that
    is not finite raises ValueError, as there.
    """
    if not np.isfinite(xy).all():
        raise ValueError("angles must be finite")
    a, b = _mod_2pi_array(xy).T
    flip = a > math.pi
    a = np.where(flip, TWO_PI - a, a)
    b = np.where(flip, _mod_2pi_array(-b), b)
    b = np.where(((a == 0.0) | (a == math.pi)) & (b > math.pi), TWO_PI - b, b)
    return np.column_stack([a, b])


#: marked points of the pillowcase
P_POINT = canonicalize(0.0, math.pi)
Q_POINT = canonicalize(math.pi, math.pi)


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


def _distance_rows(xy: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Row i: pillowcase_distances(xy, anchor i), bit for bit.

    The scalar operations, broadcast over the anchors; an entry depends
    only on its own point and anchor.  _distance_rows(xy, xy) is
    symmetric, since negating a difference negates its wrap exactly.
    """
    x, y = xy[:, 0], xy[:, 1]
    return _norm(_wrap_2pi(x - _SIGNS[:, :, None] * anchors[:, 0, None]),
                 _wrap_2pi(y - _SIGNS[:, :, None] * anchors[:, 1, None])).min(axis=0)


def _row_blocks(xy: np.ndarray, anchors: np.ndarray):
    """(lo, _distance_rows(xy, anchors[lo:lo + rows])) over the anchors, in order.

    Each block holds at most _PAIR_BLOCK distances, and at least one row;
    xy must not be empty.
    """
    rows = max(1, _PAIR_BLOCK // len(xy))
    for lo in range(0, len(anchors), rows):
        yield lo, _distance_rows(xy, anchors[lo:lo + rows])


def _step_distances(xy: np.ndarray) -> np.ndarray:
    """Entry i: pillowcase_distance(row i, row i + 1) of an (n, 2) array, bit for bit."""
    x, y = xy[:, 0], xy[:, 1]
    return _norm(_wrap_2pi(x[:-1] - _SIGNS * x[1:]),
                 _wrap_2pi(y[:-1] - _SIGNS * y[1:])).min(axis=0)


def nearest_lift(pt: PillowcasePoint, anchor: tuple[float, float]) -> tuple[float, float]:
    """Plane lift of pt closest to the anchor point; deterministic on ties.

    The lift of sign 1 wins unless the one of sign -1 is nearer by more
    than 1e-15.  The two signs are written out: x + a is x - (-a) bit for
    bit.  A NaN coordinate gives None.
    """
    x, y = anchor
    a, b = pt.alpha, pt.beta
    dx1 = math.remainder(x - a, TWO_PI)
    dy1 = math.remainder(y - b, TWO_PI)
    d1 = math.hypot(dx1, dy1)
    dx2 = math.remainder(x + a, TWO_PI)
    dy2 = math.remainder(y + b, TWO_PI)
    if math.hypot(dx2, dy2) < d1 - 1e-15:
        return (x - dx2, y - dy2)
    return (x - dx1, y - dy1) if d1 < math.inf else None


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
        reached after going around.  The vertices are canonicalized when
        they are first read (_vertex_array), and kept; what reads only the
        lifts (transformed, intersections, crossings, distances) builds no
        point.  A lift that is not finite, the closing one too, raises
        ValueError here, as canonicalize does.  The lifts are (x, y) pairs
        or an (n, 2) array.
        """
        xy = np.array(lifts, dtype=float)
        if len(xy) - closed < 2:
            raise ValueError("polyline needs at least two vertices")
        if not np.isfinite(xy).all():
            raise ValueError("angles must be finite")
        xy.flags.writeable = False
        line = cls.__new__(cls)
        object.__setattr__(line, "closed", closed)
        object.__setattr__(line, "_lifts", tuple(map(tuple, xy.tolist())))
        object.__setattr__(line, "_lift_array", xy)
        return line

    def __getattr__(self, name):
        # only a polyline built from_lifts lacks its vertices until they are read
        if name != "vertices" or "_lifts" not in self.__dict__:
            raise AttributeError(name)
        vertices = tuple(itertools.starmap(PillowcasePoint, self._vertex_array.tolist()))
        object.__setattr__(self, "vertices", vertices)
        return vertices

    @cached_property
    def _vertex_array(self) -> np.ndarray:
        """The canonical vertices as a read-only (n, 2) array, bitwise their coordinates."""
        if "vertices" in self.__dict__:
            xy = np.array([v.as_tuple() for v in self.vertices])
        else:
            xy = _canonical_array(self._lift_array[:len(self._lifts) - self.closed])
        xy.flags.writeable = False
        return xy

    def __len__(self):
        return len(self.vertices)

    def segment_count(self) -> int:
        """One fewer than the lifts; a from_lifts polyline builds no vertex for it."""
        return len(self._lifts) - 1

    @cached_property
    def _lifts(self) -> tuple[tuple[float, float], ...]:
        first = self.vertices[0]
        lifts = [(first.alpha, first.beta)]
        seq = list(self.vertices[1:])
        if self.closed:
            seq.append(first)
        for v in seq:
            lift = nearest_lift(v, lifts[-1])
            if lift is None:
                raise ValueError("angles must be finite")
            lifts.append(lift)
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
        _deck_shifts reads both halves in one pass: the padded boxes give
        each pair's window of deck shifts, and the raw ones clip it.
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
        """Per segment, a lower bound on every distance _scan gives it.

        The bound is pillowcase_distances from the segment's midpoint to pt,
        minus half the segment's length and a pad.  In exact arithmetic a
        lift of pt lies at least the midpoint's distance from the midpoint,
        so at least that minus half the length from the segment.  Rounding
        moves the computed midpoint, lifts, projected point, length and
        norms by a few eps times the magnitudes they involve: the ends (at
        most C = |xa| + |ya| + |xb| + |yb|), the lifts (within 3pi of the
        midpoint per coordinate), the length (at most 2C) and the distances
        (below 5).  That is under 8 eps (7C + 25) in all, and the pad is
        256 eps (1 + C), which covers it.  So a segment whose bound exceeds
        a radius has every distance beyond it, and a scan at that radius
        may drop it.
        """
        table = self._segment_table
        return pillowcase_distances(table[:, 5:7], pt) - table[:, 7]

    def _scan(self, pt: PillowcasePoint, rows) -> tuple[np.ndarray, np.ndarray]:
        """Distances from the segments in rows to the lifts of pt near each, and t.

        rows is an index array or a slice, and both arrays have a row of 18
        entries per segment in it.  Row i is for the 18 lifts that
        _reps_near_array gives around its segment's midpoint, in that
        order.  t is a lift's projection parameter on the segment, clipped
        to [0, 1] (0 on a zero-length segment), and the distance is
        sqrt(ex*ex + ey*ey) of the lift's offset from the point at t, as in
        pillowcase_distance.  x and y run as the two rows of one
        (segments, 2, 18) array, each by its own operations: t from
        (px - xa) * dx + (py - ya) * dy, and the distance from
        ex * ex + ey * ey.  A row depends only on its own segment.
        """
        table = self._segment_table[rows]
        start, step = table[:, 0:2, None], table[:, 2:4, None]
        lift = _reps_near_array(pt, table[:, 5:7, None])
        along = (lift - start) * step
        t = ((along[:, 0] + along[:, 1]) / table[:, 4, None]).clip(0.0, 1.0)
        off = lift - (start + t[:, None] * step)
        off = off * off
        return np.sqrt(off[:, 0] + off[:, 1]), t

    def within(self, pt: PillowcasePoint, radius: float) -> bool:
        """Whether min_distance_to(pt) <= radius, scanning only the segments that can tell.

        A segment whose _distance_bounds entry exceeds the radius has every
        distance beyond it, so it cannot decide the test; when no segment
        is left, nothing is scanned.  A strict test d < r is
        within(pt, math.nextafter(r, 0.0)).
        """
        keep = np.flatnonzero(self._distance_bounds(pt) <= radius)
        return len(keep) > 0 and bool(self._scan(pt, keep)[0].min() <= radius)

    def min_distance_to(self, pt: PillowcasePoint) -> float:
        """Distance from pt (any point, marked or not) to the polyline's segments.

        The least entry of _scan over every segment: the distance to the
        nearest of the lifts of pt around each midpoint.
        """
        return float(self._scan(pt, slice(None))[0].min())

    def transformed(self, rows) -> "PillowcasePolyline":
        """The image under an integer 2x2 matrix, applied to the plane lifts.

        The map is linear on the plane, so the image of a lifted segment is
        the segment between the images of its ends, however long.  The
        image lifts are a * x + b * y and p * x + c * y, in one array pass.
        """
        (a, b), (p, c) = rows
        x, y = self._lift_array.T
        return PillowcasePolyline.from_lifts(np.column_stack([a * x + b * y, p * x + c * y]),
                                             self.closed)


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


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array, by a sort (several times faster on short arrays)."""
    x = np.sort(x)
    return np.concatenate([x[:1], x[1:][x[1:] != x[:-1]]])


def _ranges_to_pairs(rows, lo, hi, order):
    """Each rows[k] paired with each of order[lo[k]:hi[k]], as two flat index arrays."""
    count = hi - lo
    start = np.repeat(lo - (np.cumsum(count) - count), count)
    return np.repeat(rows, count), order[start + np.arange(count.sum())]


#: the shifts of the copies of the second intervals that _meeting_pairs sweeps
_COPY_SHIFTS = np.array([[-TWO_PI], [0.0], [TWO_PI]])


def _meeting_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for the pairs of intervals a[i], b[j] that may meet mod 2pi, each at least once.

    a and b are (n, 2) arrays of intervals [lo, hi].  Every pair for which
    the float test of _shift_range finds some 2pi k with b[j] + 2pi k
    meeting a[i] is among them.  That test rounds its quotients by at most
    2^-52 of the exact ones, so such a k makes the intervals meet in exact
    arithmetic once each is widened by 2^-52 (|lo| + |hi|).  Each interval
    is widened by 2^-40 (2pi + |lo| + |hi|), which also covers the rounding
    of the widths and of the reduction below.  It then starts at lo mod 2pi
    (np.fmod is exact), in [0, 2pi].  With both starts there, a copy
    b[j] + 2pi k with k >= 2 that meets a[i] starts after the copy with
    k = 1, which then meets a[i] too (its end is at least 2pi), and k <= -2
    likewise gives k = -1; so the copies shifted by -2pi, 0 and 2pi hold
    every meeting, however wide the intervals.  Two intervals meet when
    one starts within the other: sorted starts give each interval of a the
    run of copies that start within it, and each copy the run of a that
    starts strictly after it and within it, so only pairs that meet are
    visited.
    """
    iv = np.concatenate([a, b])
    pad = 2.0 ** -40 * (TWO_PI + np.abs(iv).sum(axis=1))
    start = np.fmod(iv[:, 0] - pad, TWO_PI)
    start = np.where(start < 0.0, start + TWO_PI, start)
    end = start + (iv[:, 1] - iv[:, 0] + 2.0 * pad)
    n = len(a)
    sa, ea = start[:n], end[:n]
    sb, eb = (start[n:] + _COPY_SHIFTS).ravel(), (end[n:] + _COPY_SHIFTS).ravel()
    copy_of = np.arange(len(sb)) % len(b)
    order_a, order_b = np.argsort(sa), np.argsort(sb)
    sa_sorted, sb_sorted = sa[order_a], sb[order_b]
    i, j = _ranges_to_pairs(np.arange(n), np.searchsorted(sb_sorted, sa, "left"),
                            np.searchsorted(sb_sorted, ea, "right"), copy_of[order_b])
    j2, i2 = _ranges_to_pairs(copy_of, np.searchsorted(sa_sorted, sb, "right"),
                              np.searchsorted(sa_sorted, eb, "right"), order_a)
    return np.concatenate([i, i2]), np.concatenate([j, j2])


def _deck_shifts(c1: PillowcasePolyline, c2: PillowcasePolyline):
    """((i1, i2), sign, [m_lo, m_hi, n_lo, n_hi]) per segment pair and sign with an image to try.

    Broad and narrow phase of detailed_intersections, in one pass over
    each curve's _box_table.  The window [m_lo, m_hi, n_lo, n_hi] holds
    the deck images sign * seg2[i2] + 2pi (m, n) whose padded box meets
    the one of seg1[i1] (_shift_range), so by the _box_table bound no
    dropped image gives a hit.  It is clipped to the floor/ceil range of
    the raw boxes, seg1[i1]'s widened by _INTERSECT_TOL, which bounds it
    where the pads are wide (two segments some 4e5 long in all).  Only
    the pairs and signs whose padded x intervals _meeting_pairs finds are
    computed, a superset of those with a non-empty x window, and a row is
    kept when its window is non-empty in x and in y.  Rows come in the
    all-pairs loop order: i1, then i2 ascending, then sign 1 before -1.
    """
    tol = _INTERSECT_TOL
    t1, t2 = c1._box_table, c2._box_table
    n2 = len(t2)
    signed = np.concatenate([t2, -t2[:, [1, 0, 3, 2, 5, 4, 7, 6]]])  # sign 1, then sign -1
    i1, j = _meeting_pairs(t1[:, 4:6], signed[:, 4:6])
    key = _sorted_unique((i1 * n2 + j % n2) * 2 + j // n2)  # (i1, i2, sign) order
    i1, i2, neg = key // (2 * n2), key // 2 % n2, key % 2
    a, sb = t1[i1], signed[i2 + neg * n2]
    k_lo, k_hi = _shift_range(a[:, 4::2], a[:, 5::2], sb[:, 4::2], sb[:, 5::2])
    ra = a[:, :4] + np.array([-tol, tol, -tol, tol])
    k_lo = np.maximum(k_lo, np.floor((ra[:, 0::2] - sb[:, 1:4:2]) / TWO_PI))
    k_hi = np.minimum(k_hi, np.ceil((ra[:, 1::2] - sb[:, 0:4:2]) / TWO_PI))
    keep = np.flatnonzero((k_lo <= k_hi).all(axis=1))
    windows = np.stack([k_lo[keep, 0], k_hi[keep, 0], k_lo[keep, 1], k_hi[keep, 1]], axis=1)
    pairs = zip(i1[keep].tolist(), i2[keep].tolist())
    return list(zip(pairs, (1 - 2 * neg[keep]).tolist(), windows.astype(int).tolist()))


def detailed_intersections(c1: PillowcasePolyline, c2: PillowcasePolyline):
    """All orbifold intersections with segment indices and parameters.

    Returns a list of (point, transversal, i1, t1, i2, t2), deduplicated by
    orbifold distance.  Used by polyline_intersections and curve splitting.
    """
    segs1 = c1.lifted_segments()
    segs2 = c2.lifted_segments()
    found = []
    for (i1, i2), sgn, (m_lo, m_hi, n_lo, n_hi) in _deck_shifts(c1, c2):
        seg_a = segs1[i1]
        (x1, y1), (x2, y2) = segs2[i2]
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
    within 1e-7 of P or Q raise DegenerateCurveError.  The lifts are
    finite: a polyline whose lifts are not raises ValueError when it is
    built from them, or when they are first read from its vertices.
    """
    if not curve.closed:
        raise ValueError("essential_class needs a closed polyline")
    xy = curve._lift_array
    for marked in (P_POINT, Q_POINT):
        if curve.within(marked, 1e-7):
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


def _line_offsets(xy: np.ndarray, ca: float, cb: float, target: float) -> np.ndarray:
    """line_offset of every row (alpha, beta) of an (n, 2) array, bit for bit."""
    return _abs_remainder(ca * xy[:, 0] + cb * xy[:, 1] - target, TWO_PI)


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

    The verdicts read the rows of _distance_rows(xy, xy) by _row_blocks,
    whose entries are the scalar pillowcase_distance bit for bit.
    d <= r is d < nextafter(r, inf).
    """
    if len(points) < 2:
        return []
    xy = np.array([p.as_tuple() for p in points]).reshape(len(points), 2)
    pairs = []
    for lo, d in _row_blocks(xy, xy):
        near = np.nonzero(d < radius)
        pairs += [(lo + i, j) for i, j in zip(*(idx.tolist() for idx in near)) if lo + i != j]
    return pairs


def distance_components(points, radius: float) -> list[list[int]]:
    """Components of the graph joining points closer than radius.

    Each component is a sorted list of indices; components come in order
    of their least index.
    """
    return _pair_components(len(points), _close_pairs(points, radius))


def _pair_components(n: int, pairs) -> list[list[int]]:
    """Components of the graph on n nodes whose edges are the index pairs (i, j).

    Each pair joins j to i's neighbours; with both (i, j) and (j, i) given,
    as _close_pairs gives them, the graph is undirected.  Each component is
    a sorted list of indices, in order of its least index.
    """
    neighbours = [[] for _ in range(n)]
    for i, j in pairs:
        neighbours[i].append(j)
    seen = [False] * n
    components = []
    for start in range(n):
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
