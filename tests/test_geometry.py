import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from pillowcase import geometry
from pillowcase.geometry import (GluingMatrix, DegenerateCurveError, LineForm, P_POINT,
                                 PillowcasePolyline, PillowcasePoint, Q_POINT, TWO_PI,
                                 _deck_shifts, _segment_intersection,
                                 apply_integer_matrix, canonicalize,
                                 detailed_intersections,
                                 distinct_points, essential_class,
                                 induced_boundary_transform, line_crossings,
                                 line_offset, nearest_lift, pillowcase_distance,
                                 pillowcase_distances, polyline,
                                 polyline_intersections,
                                 sigma, sigma_p, tau)
from oracles import nearest_lift_two_pass

PI = math.pi


def close(p, q, tol=1e-9):
    return pillowcase_distance(p, q) <= tol


def _reps_near(pt, x, y):
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


def _point_segment(px, py, x1, y1, x2, y2):
    """(distance, t) from a plane point to a segment, in the kernel's arithmetic.

    t is the projection clipped to [0, 1], 0 on a zero-length segment, and
    the distance is sqrt(ex*ex + ey*ey) of the offset from the point at t.
    """
    dx, dy = x2 - x1, y2 - y1
    L2 = dx * dx + dy * dy
    t = 0.0 if L2 == 0.0 else max(0.0, min(1.0, ((px - x1) * dx + (py - y1) * dy) / L2))
    ex, ey = px - (x1 + t * dx), py - (y1 + t * dy)
    return math.sqrt(ex * ex + ey * ey), t


class TestCanonicalize:
    def test_already_canonical(self):
        pt = canonicalize(PI / 3, PI / 2)
        assert pt.alpha == pytest.approx(PI / 3, abs=1e-15)
        assert pt.beta == pytest.approx(PI / 2, abs=1e-15)

    def test_negation(self):
        assert close(canonicalize(-PI / 3, -PI / 2), canonicalize(PI / 3, PI / 2))

    def test_edge_fold(self):
        pt = canonicalize(0.0, 3 * PI / 2)
        assert pt.alpha == 0.0
        assert pt.beta == pytest.approx(PI / 2, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = rng.uniform(-10, 10, size=2)
            pt = canonicalize(a, b)
            pt2 = canonicalize(pt.alpha, pt.beta)
            assert pt == pt2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            canonicalize(math.inf, 0.0)

    def test_corner_snap(self):
        # exact corner images stay exact through float remainders
        assert canonicalize(-PI, 4 * PI).as_tuple() == (PI, 0.0)
        assert canonicalize(6 * PI + 1e-14, 0.0).alpha == 0.0

    def test_array_form_is_the_scalar_bitwise(self):
        # near the snap lattice pi Z, signed zeros, just below 2pi, large and
        # negative values, in every pairing of alpha and beta
        rng = np.random.default_rng(8)
        lattice = PI * np.arange(-8, 9)
        near = [lattice + d for d in (0.0, 1e-13, -1e-13, 9e-13, -9e-13, 1e-12, -1e-12,
                                      1.1e-12, -1.1e-12, 1e-11)]
        values = np.concatenate(near + [
            [0.0, -0.0, TWO_PI - 1e-13, -(TWO_PI - 1e-13), TWO_PI - 1e-12, np.nextafter(TWO_PI, 0),
             PI - 5e-13, PI + 5e-13, 1e6, -1e6, 1e6 + 0.5, -1e6 - 0.25, 3e6 * PI, -7e5 * PI],
            rng.uniform(-1e6, 1e6, size=40), rng.uniform(-20.0, 20.0, size=100)])
        xy = np.array(np.meshgrid(values, values)).reshape(2, -1).T
        scalar = np.array([canonicalize(a, b).as_tuple() for a, b in xy.tolist()])
        assert geometry._canonical_array(xy).tobytes() == scalar.tobytes()

    def test_array_form_rejects_nonfinite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                geometry._canonical_array(np.array([[0.5, 1.0], [0.2, bad]]))


class TestInvolutions:
    def test_sigma_fixes_p(self):
        assert sigma(P_POINT) == P_POINT

    def test_sigma_fixes_boundary_lines(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            b = rng.uniform(0, TWO_PI)
            for a in (0.0, PI):
                pt = canonicalize(a, b)
                assert close(sigma(pt), pt, tol=1e-12)

    def test_sigma_p_on_marked_points(self):
        for p in (3, 5, 7):
            assert sigma_p(p, P_POINT) == P_POINT
            assert sigma_p(p, Q_POINT).as_tuple() == (PI, 0.0)

    def test_tau_example(self):
        out = tau(canonicalize(PI / 4, PI / 3))
        assert close(out, canonicalize(3 * PI / 4, 5 * PI / 3), tol=1e-12)

    def test_involutions_square_to_identity(self):
        rng = np.random.default_rng(11)
        pts = [canonicalize(rng.uniform(0, PI), rng.uniform(0, TWO_PI))
               for _ in range(2000)]
        for pt in pts:
            assert close(sigma(sigma(pt)), pt, tol=1e-12)
            assert close(tau(tau(pt)), pt, tol=1e-12)
            for p in (3, 5, 7):
                assert close(sigma_p(p, sigma_p(p, pt)), pt, tol=1e-12)

    def test_sigma_tau_commute(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            pt = canonicalize(rng.uniform(0, PI), rng.uniform(0, TWO_PI))
            assert close(sigma(tau(pt)), tau(sigma(pt)), tol=1e-12)

    def test_sigma_p_rejects_bad_p(self):
        pt = canonicalize(1.0, 1.0)
        for bad in (2, 4, 9, 1, -3):
            with pytest.raises(ValueError):
                sigma_p(bad, pt)


class TestGluingMatrix:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            GluingMatrix(1, 0, 0, 1)
        GluingMatrix(0, 1, 1, 0)

    @pytest.mark.parametrize("entries", [(False, True, True, False), (0, 1, True, 0),
                                         (0.0, 1, 1, 0), (0, "1", 1, 0)])
    def test_non_integer_entries_refused(self, entries):
        # a bool is an int to isinstance, but not a gluing entry
        with pytest.raises(ValueError, match="integers"):
            GluingMatrix(*entries)

    def test_skew_specializes_to_sigma(self):
        g = GluingMatrix(-1, 0, 2, 1)
        pt = canonicalize(PI / 5, PI / 7)
        assert close(induced_boundary_transform(g, pt), sigma(pt), tol=1e-12)

    def test_swap(self):
        g = GluingMatrix.swap()
        pt = canonicalize(PI / 3, PI / 4)
        assert close(induced_boundary_transform(g, pt),
                     canonicalize(PI / 4, PI / 3), tol=1e-12)

    def test_skew_p_fixes_p_point(self):
        g = GluingMatrix(-1, 0, 3, 1)
        assert induced_boundary_transform(g, P_POINT) == P_POINT

    def test_inverse(self):
        g = GluingMatrix(-6, 1, 37, -6)
        gi = g.inverse()
        assert (np.array(g.rows()) @ np.array(gi.rows())).tolist() == [[1, 0], [0, 1]]

    def test_composition_property(self):
        rng = np.random.default_rng(5)
        mats = [((0, 1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1)),
                ((-1, 0), (2, 1)), ((2, 1), (1, 1))]
        for _ in range(200):
            m1 = mats[rng.integers(len(mats))]
            m2 = mats[rng.integers(len(mats))]
            pt = canonicalize(rng.uniform(0, PI), rng.uniform(0, TWO_PI))
            lhs = apply_integer_matrix((np.array(m1) @ np.array(m2)).tolist(), pt)
            rhs = apply_integer_matrix(m1, apply_integer_matrix(m2, pt))
            assert close(lhs, rhs, tol=1e-9)


class TestPolylineIntersections:
    def test_arc_crosses_loop(self):
        arc = polyline([(0.0, PI), (PI, PI)])
        loop = polyline([(PI / 2, 0.0), (PI / 2, 2.0), (PI / 2, 4.0)], closed=True)
        hits = polyline_intersections(arc, loop)
        assert any(close(pt, canonicalize(PI / 2, PI), tol=1e-9) and trans
                   for pt, trans in hits)

    def test_self_overlap_reported(self):
        loop = polyline([(PI / 2, 0.0), (PI / 2, 2.0), (PI / 2, 4.0)], closed=True)
        hits = polyline_intersections(loop, loop)
        assert any(not trans for _, trans in hits)

    def test_trefoil_line_and_swap_image(self):
        # the line 6a + b = pi and its coordinate swap meet where both
        # congruences hold; enumerate the residue branches to check
        ts = np.linspace(PI / 6, 5 * PI / 6, 81)
        c1 = polyline([(t, PI - 6 * t) for t in ts])
        c2 = polyline([(PI - 6 * t, t) for t in ts])
        hits = polyline_intersections(c1, c2)
        expected = [canonicalize(3 * PI / 7, 3 * PI / 7),
                    canonicalize(5 * PI / 7, 5 * PI / 7)]
        for target in expected:
            assert any(close(pt, target, tol=1e-9) for pt, _ in hits)

    def test_no_intersection(self):
        c1 = polyline([(0.3, 1.0), (0.4, 1.0)])
        c2 = polyline([(2.0, 2.0), (2.1, 2.0)])
        assert polyline_intersections(c1, c2) == []


def _deck_images(seg, xlo, xhi, ylo, yhi):
    """Deck-group images of a plane segment meeting the given bounding box.

    The old narrow phase, which widens each shift range by floor and ceil.
    """
    (x1, y1), (x2, y2) = seg
    out = []
    for sgn in (1.0, -1.0):
        u1, v1 = sgn * x1, sgn * y1
        u2, v2 = sgn * x2, sgn * y2
        sxlo, sxhi = min(u1, u2), max(u1, u2)
        sylo, syhi = min(v1, v2), max(v1, v2)
        m_lo = math.floor((xlo - sxhi) / TWO_PI)
        m_hi = math.ceil((xhi - sxlo) / TWO_PI)
        n_lo = math.floor((ylo - syhi) / TWO_PI)
        n_hi = math.ceil((yhi - sylo) / TWO_PI)
        for m in range(m_lo, m_hi + 1):
            for n in range(n_lo, n_hi + 1):
                out.append(((u1 + TWO_PI * m, v1 + TWO_PI * n),
                            (u2 + TWO_PI * m, v2 + TWO_PI * n)))
    return out


def _reference_detailed_intersections(c1, c2, tol):
    """The all-pairs loop that detailed_intersections must reproduce exactly."""
    segs1 = c1.lifted_segments()
    segs2 = c2.lifted_segments()
    found = []
    for i1, seg_a in enumerate(segs1):
        (x1, y1), (x2, y2) = seg_a
        xlo, xhi = min(x1, x2) - tol, max(x1, x2) + tol
        ylo, yhi = min(y1, y2) - tol, max(y1, y2) + tol
        for i2, seg_b in enumerate(segs2):
            for img in _deck_images(seg_b, xlo, xhi, ylo, yhi):
                for (x, y, trans, ta, tb) in _segment_intersection(
                        seg_a[0], seg_a[1], img[0], img[1]):
                    found.append((canonicalize(x, y), trans, i1, ta, i2, tb))
    found.sort(key=lambda rec: (rec[0].alpha, rec[0].beta, not rec[1]))
    kept = []
    for rec in found:
        if not any(pillowcase_distance(rec[0], other[0]) <= 1e-7 and rec[2] == other[2]
                   and rec[4] == other[4] for other in kept):
            kept.append(rec)
    return kept


def _reference_polyline_intersections(c1, c2, tol):
    """The old dedup loop of polyline_intersections."""
    out = []
    for (pt, trans, *_rest) in _reference_detailed_intersections(c1, c2, tol):
        if not any(pillowcase_distance(pt, q) <= 1e-7 and trans == qtrans
                   for (q, qtrans) in out):
            out.append((pt, trans))
    return out


def _reference_min_distance(curve, pt):
    """The all-segments scalar loop that min_distance_to must reproduce."""
    best = math.inf
    for (x1, y1), (x2, y2) in curve.lifted_segments():
        for (px, py) in _reps_near(pt, 0.5 * (x1 + x2), 0.5 * (y1 + y2)):
            best = min(best, _point_segment(px, py, x1, y1, x2, y2)[0])
    return best


def _assert_within_matches(curve, pt, d):
    """within(pt, r) is d <= r at r = d and one float either side of it."""
    for r in (math.nextafter(d, -math.inf), d, math.nextafter(d, math.inf)):
        assert curve.within(pt, r) == (d <= r), (pt, r)


def _walk(rng, n):
    """Plane points of a random walk with short, medium and wrapping steps."""
    steps = rng.normal(size=(n - 1, 2)) * rng.choice([0.03, 0.4, 1.5], size=(n - 1, 1))
    start = rng.uniform(-2 * TWO_PI, 2 * TWO_PI, size=2)
    return np.vstack([start, start + np.cumsum(steps, axis=0)])


def _with_repeats(rng, pts):
    """Repeat a few points in place, giving zero-length segments."""
    dup = set(rng.integers(0, len(pts), size=2).tolist())
    return np.array([q for i, p in enumerate(pts) for q in ([p, p] if i in dup else [p])])


def _deck_move(rng, pts):
    """A random deck transformation: sign and 2pi lattice shift."""
    return rng.choice([-1.0, 1.0]) * pts + TWO_PI * rng.integers(-3, 4, size=2)


def _companion(rng, c1, kind, tol):
    """A polyline placed against c1 to hit one case of the narrow phase."""
    lifts = np.array(c1.lifted_vertices())
    j = int(rng.integers(0, len(lifts) - 2))
    run = lifts[j:j + int(rng.integers(2, 6))]
    if kind == "collinear":
        # sub-segments of a run of c1, overlapping it along its own lines
        a, b = rng.uniform(0.0, 0.9, size=2)
        pts = np.vstack([run[0] + a * (run[1] - run[0]), run[1:-1],
                         run[-2] + (1 - b) * (run[-1] - run[-2])])
    elif kind == "near-parallel":
        # the same run nudged by a few tol, so |unit_cross| lands near tol
        scale = tol * rng.choice([0.3, 1.0, 3.0, 30.0], size=(len(run), 1))
        pts = run + scale * rng.choice([-1.0, 1.0], size=run.shape)
    elif kind == "touching":
        # vertices within a fraction of tol of c1's vertices
        pts = run + 0.5 * tol * rng.uniform(-1.0, 1.0, size=run.shape)
    else:
        # a random walk through some of c1's vertices, shared exactly
        pts = _walk(rng, 8)
        pts[::3] = lifts[rng.integers(0, len(lifts), size=len(pts[::3]))]
    return polyline([tuple(p) for p in _deck_move(rng, _with_repeats(rng, pts))],
                    closed=bool(rng.integers(0, 2)) and len(pts) > 2)


def _reference_deck_shifts(c1, c2):
    """_deck_shifts with the all-pairs mask: every pair's and sign's window, empty ones dropped."""
    tol = geometry._INTERSECT_TOL
    t1, t2 = c1._box_table, c2._box_table
    a = t1[:, None, :]
    ra = a[..., :4] + np.array([-tol, tol, -tol, tol])
    windows = []
    for b in (t2[None], -t2[None, :, [1, 0, 3, 2, 5, 4, 7, 6]]):  # sign 1, then sign -1
        k_lo, k_hi = geometry._shift_range(a[..., 4::2], a[..., 5::2], b[..., 4::2], b[..., 5::2])
        k_lo = np.maximum(k_lo, np.floor((ra[..., 0::2] - b[..., 1:4:2]) / TWO_PI))
        k_hi = np.minimum(k_hi, np.ceil((ra[..., 1::2] - b[..., 0:4:2]) / TWO_PI))
        windows.append(np.stack([k_lo[..., 0], k_hi[..., 0], k_lo[..., 1], k_hi[..., 1]], -1))
    windows = np.stack(windows, axis=2)  # (segments 1, segments 2, sign, 4)
    nonempty = (windows[..., 0] <= windows[..., 1]) & (windows[..., 2] <= windows[..., 3])
    return [((i1, i2), 1 - 2 * s, windows[i1, i2, s].astype(int).tolist())
            for i1, i2, s in np.argwhere(nonempty).tolist()]


@pytest.fixture(scope="module")
def splice_arc_pairs():
    """(arc, glued arc) pairs of the trefoil and trefoil-neg images at r=60.

    Image 2's arcs are mapped by swap, skew:3 and (-6, 1, 37, -6), as a
    splice search maps them, so their lifts and segments are long.
    """
    from pillowcase.families import builtin_model
    from pillowcase.solver import SolverConfig, sample_pillowcase_image
    imgs = {name: sample_pillowcase_image(builtin_model(name), 60, SolverConfig())
            for name in ("trefoil", "trefoil-neg")}
    pairs = []
    for first, second in (("trefoil", "trefoil"), ("trefoil", "trefoil-neg")):
        for g in (GluingMatrix.swap(), GluingMatrix.skew(3), GluingMatrix(-6, 1, 37, -6)):
            mapped = [arc.transformed(g.rows()) for arc in imgs[second].arcs]
            pairs += [(a1, a2) for a1 in imgs[first].arcs for a2 in mapped]
    return pairs


def _lattice_walk(rng, n):
    """from_lifts polyline whose vertices sit on multiples of pi/2: boxes touch at 2pi k."""
    steps = rng.integers(-5, 6, size=(n, 2)).cumsum(axis=0)
    return PillowcasePolyline.from_lifts([(TWO_PI * i / 4, TWO_PI * j / 4)
                                          for i, j in steps.tolist()])


class TestBroadPhaseEquivalence:
    KINDS = ("collinear", "near-parallel", "touching", "shared")

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_matches_all_pairs_loop(self, tol, monkeypatch):
        monkeypatch.setattr(geometry, "_INTERSECT_TOL", tol)
        rng = np.random.default_rng(2024)
        flags, pairs, kept = set(), 0, 0
        for case in range(24):
            c1 = polyline([tuple(p) for p in _with_repeats(rng, _walk(rng, 30))],
                          closed=bool(case % 2))
            walk = polyline([tuple(p) for p in _walk(rng, 25)], closed=True)
            companions = [_companion(rng, c1, kind, tol) for kind in self.KINDS]
            for a, b in [(c1, c1), (c1, walk)] + [(c2, c1) for c2 in companions]:
                got = detailed_intersections(a, b)
                assert repr(got) == repr(_reference_detailed_intersections(a, b, tol))
                assert repr(polyline_intersections(a, b)) == \
                    repr(_reference_polyline_intersections(a, b, tol))
                flags.update(rec[1] for rec in got)
                pairs += a.segment_count() * b.segment_count()
                kept += len(_deck_shifts(a, b))
        # both narrow-phase branches were reached, and pairs were pruned
        assert flags == {True, False}
        assert kept < 0.2 * pairs

    def test_narrow_phase_tries_fewer_images(self, monkeypatch):
        # only deck images whose padded boxes meet are tried, not the whole
        # floor/ceil range of every candidate pair
        rng = np.random.default_rng(5)
        tried, old = [], 0
        inner = geometry._segment_intersection
        monkeypatch.setattr(geometry, "_segment_intersection",
                            lambda *args: tried.append(1) or inner(*args))
        for case in range(6):
            c1 = polyline([tuple(p) for p in _walk(rng, 30)], closed=bool(case % 2))
            c2 = _companion(rng, c1, "shared", 1e-9)
            for a, b in ((c1, c1), (c1, c2)):
                assert repr(detailed_intersections(a, b)) == \
                    repr(_reference_detailed_intersections(a, b, 1e-9))
                segs_a, segs_b = a.lifted_segments(), b.lifted_segments()
                for i1, i2 in dict.fromkeys(pair for pair, _, _ in _deck_shifts(a, b)):
                    (x1, y1), (x2, y2) = segs_a[i1]
                    old += len(_deck_images(segs_b[i2], min(x1, x2) - 1e-9, max(x1, x2) + 1e-9,
                                            min(y1, y2) - 1e-9, max(y1, y2) + 1e-9))
        assert 0 < len(tried) < 0.5 * old

    @pytest.mark.parametrize("tol", [1e-20])
    def test_wide_pads_keep_the_floor_ceil_range(self, tol, monkeypatch):
        # a tiny tol pads by ~1e6, as a segment some 4e5 long is padded at
        # 1e-9, so only the raw floor/ceil range bounds the shifts there
        monkeypatch.setattr(geometry, "_INTERSECT_TOL", tol)
        rng = np.random.default_rng(11)
        for case in range(4):
            c1 = polyline([tuple(p) for p in _walk(rng, 12)], closed=bool(case % 2))
            c2 = _companion(rng, c1, "shared", 1e-9)
            for a, b in ((c1, c1), (c1, c2), (c2, c1)):
                assert repr(detailed_intersections(a, b)) == \
                    repr(_reference_detailed_intersections(a, b, tol))

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_hits_at_the_tolerance_boundary(self, tol, monkeypatch):
        # a transversal hit reaches tol past a segment's end, and a collinear
        # one tol * |a| along it, so boxes tol apart must still be paired
        monkeypatch.setattr(geometry, "_INTERSECT_TOL", tol)
        hits = 0
        for frac in (0.5, 0.9, 0.99, 1.01, 1.5):
            for x0, y0 in ((0.4, 1.1), (-5.0, 7.3), (2.0 + TWO_PI, -0.6)):
                a = polyline([(x0, y0), (x0 + 2.5, y0)])
                short = polyline([(x0 + 1.0, y0 + frac * tol), (x0 + 1.0, y0 + 0.5)])
                beyond = polyline([(x0 + 2.5 + frac * tol * 2.5, y0), (x0 + 3.0, y0)])
                for c1, c2 in ((a, short), (short, a), (a, beyond), (beyond, a)):
                    got = detailed_intersections(c1, c2)
                    assert repr(got) == repr(_reference_detailed_intersections(c1, c2, tol))
                    hits += len(got)
        assert hits

    def test_deck_shifts_match_the_all_pairs_mask_on_glued_arcs(self, splice_arc_pairs):
        tested = kept = 0
        for a1, a2 in splice_arc_pairs:
            got = _deck_shifts(a1, a2)
            assert got == _reference_deck_shifts(a1, a2)
            tested += a1.segment_count() * a2.segment_count()
            kept += len(got)
        assert 0 < kept < 0.05 * tested

    @pytest.mark.parametrize("tol", [1e-9, 1e-20])
    def test_deck_shifts_on_wide_and_touching_boxes(self, tol, monkeypatch):
        # steps up to 4pi make boxes wider than 2pi, and at tol = 1e-20 the
        # pads make every box wider; lattice walks touch at exact 2pi k
        monkeypatch.setattr(geometry, "_INTERSECT_TOL", tol)
        rng = np.random.default_rng(23)
        wide = 0
        for case in range(12):
            steps = rng.uniform(-2 * TWO_PI, 2 * TWO_PI, size=(10, 2))
            long = PillowcasePolyline.from_lifts([tuple(p) for p in steps.cumsum(axis=0)],
                                                 closed=bool(case % 2))
            walk = polyline([tuple(p) for p in _walk(rng, 20)])
            lattice, other = _lattice_walk(rng, 12), _lattice_walk(rng, 9)
            for a, b in ((long, walk), (walk, long), (long, long), (lattice, other),
                         (lattice, lattice), (lattice, long)):
                assert _deck_shifts(a, b) == _reference_deck_shifts(a, b)
            box = long._box_table
            wide += int((box[:, 5] - box[:, 4] >= TWO_PI).sum())
        for a, b in ((lattice, other), (other, lattice)):
            assert repr(detailed_intersections(a, b)) == \
                repr(_reference_detailed_intersections(a, b, tol))
        assert wide

    def test_meeting_pairs_cover_the_float_test(self):
        # endpoints on and one ulp off fl(2pi k), widths 0 to beyond 2pi
        ends = [TWO_PI * k for k in range(-4, 5)] + [0.7, -2.3, 11.1]
        ends = sorted({f(e) for e in ends for f in (lambda e: e, lambda e: np.nextafter(e, 9e9),
                                                    lambda e: np.nextafter(e, -9e9))})
        iv = np.array([(lo, hi) for lo in ends for hi in ends if hi >= lo])
        iv = np.vstack([iv, [[0.3, 0.3 + TWO_PI], [-1.0, 6.0]]])
        a, b = iv[::3], iv
        lo, hi = geometry._shift_range(a[:, 0, None], a[:, 1, None], b[None, :, 0], b[None, :, 1])
        passing = np.flatnonzero(lo <= hi)
        i, j = geometry._meeting_pairs(a, b)
        found = np.unique(i * len(b) + j)
        assert np.isin(passing, found).all()
        # the pads add only pairs that nearly touch
        i, j = np.divmod(np.setdiff1d(found, passing), len(b))
        gap = np.minimum(np.abs(np.remainder(a[i, 0] - b[j, 1], TWO_PI)),
                         np.abs(np.remainder(b[j, 0] - a[i, 1], TWO_PI)))
        assert (np.minimum(gap, TWO_PI - gap) < 1e-9).all()

    def test_min_distance_matches_scalar_loop(self):
        rng = np.random.default_rng(77)
        for case in range(40):
            curve = polyline([tuple(p) for p in _with_repeats(rng, _walk(rng, 40))],
                             closed=bool(case % 2))
            lifts = np.array(curve.lifted_vertices())
            i = int(rng.integers(0, len(lifts) - 1))
            on_segment = lifts[i] + rng.uniform() * (lifts[i + 1] - lifts[i])
            pts = [P_POINT, Q_POINT, canonicalize(0.0, 0.0), canonicalize(PI, 0.0),
                   curve.vertices[int(rng.integers(0, len(curve)))],
                   canonicalize(*on_segment),
                   canonicalize(*(on_segment + 1e-7 * rng.normal(size=2)))]
            pts += [canonicalize(*rng.uniform(-10, 10, size=2)) for _ in range(5)]
            for pt in pts:
                d = _reference_min_distance(curve, pt)
                assert repr(curve.min_distance_to(pt)) == repr(d)
                _assert_within_matches(curve, pt, d)


def _wrap_points():
    """Points on and near the edges alpha in {0, pi} and the seam beta = 0 ~ 2pi."""
    return [canonicalize(a, b) for a in (0.0, 1e-9, 0.5, PI - 1e-9, PI)
            for b in (0.0, 1e-9, 3e-9, PI, TWO_PI - 3e-9, TWO_PI - 1e-9)]


class TestPointDistanceKernel:
    def test_matches_scalar_distance(self):
        # the scalar, per-point and pairwise distances are one arithmetic
        rng = np.random.default_rng(11)
        pts = [canonicalize(*rng.uniform(-10, 10, size=2)) for _ in range(300)]
        pts += _wrap_points() + [tau(p) for p in pts[:20]] + pts[:10]
        # non-canonical pairs: any finite angles, up to a few periods out
        pts += [PillowcasePoint(*rng.uniform(-3 * PI, 3 * PI, size=2)) for _ in range(40)]
        pts += [PillowcasePoint(0.0, TWO_PI - 1e-9), PillowcasePoint(PI, TWO_PI - 1e-9),
                PillowcasePoint(-PI, -PI), PillowcasePoint(2 * PI, 3 * PI)]
        xy = np.array([p.as_tuple() for p in pts])
        matrix = geometry._distance_rows(xy, xy)
        for i, q in enumerate(pts):
            expected = np.array([pillowcase_distance(p, q) for p in pts])
            assert pillowcase_distances(xy, q).tobytes() == expected.tobytes()
            assert matrix[i].tobytes() == expected.tobytes()
        for q in [canonicalize(PI / 2, PI), P_POINT, Q_POINT]:
            expected = np.array([pillowcase_distance(p, q) for p in pts])
            assert pillowcase_distances(xy, q).tobytes() == expected.tobytes()
        assert (np.diag(matrix) == 0.0).all()

    def test_wrap_is_the_remainder(self):
        # for |d| < 5pi, every difference of canonical coordinates among
        # them, the wrap is exact (a zero may differ in sign, which squaring
        # drops)
        rng = np.random.default_rng(14)
        d = np.concatenate([rng.uniform(-5 * PI, 5 * PI, size=40000),
                            [PI, -PI, 3 * PI, -3 * PI, TWO_PI, -TWO_PI, 0.0]])
        wrapped = d - TWO_PI * np.round(d / TWO_PI)
        assert (wrapped == [math.remainder(x, TWO_PI) for x in d.tolist()]).all()

    def test_empty(self):
        assert pillowcase_distances(np.empty((0, 2)), P_POINT).shape == (0,)
        assert geometry._distance_rows(np.empty((0, 2)), np.empty((0, 2))).shape == (0, 0)

    def test_matrix_rows_are_the_kernel_bitwise(self):
        rng = np.random.default_rng(13)
        pts = [canonicalize(*rng.uniform(-10, 10, size=2)) for _ in range(150)]
        pts += _wrap_points() + [tau(p) for p in pts[:20]] + pts[:10]
        xy = np.array([p.as_tuple() for p in pts])
        d = geometry._distance_rows(xy, xy)
        for i, p in enumerate(pts):
            assert d[i].tobytes() == pillowcase_distances(xy, p).tobytes()
        assert d.tobytes() == d.T.tobytes()

    def test_close_pairs_in_row_blocks_are_the_full_matrix_pairs(self, monkeypatch):
        # clustered points give many close pairs; 760 points span several
        # blocks of rows, and one row per block is the smallest block
        rng = np.random.default_rng(15)
        centres = rng.uniform(-10, 10, size=(75, 2))
        pts = [canonicalize(*(c + rng.normal(scale=0.02, size=2)))
               for c in centres for _ in range(10)] + _wrap_points()
        assert len(pts) ** 2 > 4 * geometry._PAIR_BLOCK
        xy = np.array([p.as_tuple() for p in pts])
        full = geometry._distance_rows(xy, xy)
        for radius in (1e-9, 0.01, 0.05):
            near = zip(*(idx.tolist() for idx in np.nonzero(full < radius)))
            expected = repr([(i, j) for i, j in near if i != j])
            assert repr(geometry._close_pairs(pts, radius)) == expected
            with monkeypatch.context() as m:
                m.setattr(geometry, "_PAIR_BLOCK", 1)
                assert repr(geometry._close_pairs(pts, radius)) == expected
        assert len(geometry._close_pairs(pts, 0.05)) > len(pts)

    def test_hits_exactly_the_dedup_distance_apart_are_one(self):
        # two transversal hits, at (0.5, 1e-7) and (0.5, 2e-7), computed
        # exactly on different segments: pillowcase_distance is 1e-7 bit for
        # bit, and the dedup keeps hits at most 1e-7 apart as one
        c1 = polyline([(0.25, 1e-7), (0.75, 1e-7), (0.75, 2e-7), (0.25, 2e-7)])
        c2 = polyline([(0.5, 0.0), (0.5, 1.0)])
        hits = detailed_intersections(c1, c2)
        assert [(h[0].as_tuple(), h[1], h[2]) for h in hits] == \
            [((0.5, 1e-7), True, 0), ((0.5, 2e-7), True, 2)]
        assert pillowcase_distance(hits[0][0], hits[1][0]) == 1e-7
        assert polyline_intersections(c1, c2) == [(hits[0][0], True)]
        assert repr(polyline_intersections(c1, c2)) == \
            repr(_reference_polyline_intersections(c1, c2, 1e-9))

    def test_lift_distances_match_point_segment_distance(self):
        rng = np.random.default_rng(12)
        for case in range(10):
            curve = polyline([tuple(p) for p in _with_repeats(rng, _walk(rng, 30))],
                             closed=bool(case % 2))
            queries = _wrap_points()[::3] + [canonicalize(*rng.uniform(-10, 10, size=2))]
            for pt in queries:
                expected = np.array([[_point_segment(px, py, x1, y1, x2, y2)
                                      for px, py in _reps_near(pt, 0.5 * (x1 + x2),
                                                               0.5 * (y1 + y2))]
                                     for (x1, y1), (x2, y2) in curve.lifted_segments()])
                d, t = curve._scan(pt, slice(None))
                assert d.tobytes() == expected[..., 0].tobytes()
                # equal as numbers: a clipped 0 may carry either sign
                assert (t == expected[..., 1]).all()


def _reference_surgery_candidates(curve, p, q):
    """The old scan of find_surgery_representation, on one arc."""
    out = []
    for (x1, y1), (x2, y2) in curve.lifted_segments():
        f1 = p * x1 + q * y1
        f2 = p * x2 + q * y2
        lo, hi = min(f1, f2), max(f1, f2)
        k_lo = math.ceil(lo / TWO_PI - 1e-12)
        k_hi = math.floor(hi / TWO_PI + 1e-12)
        for k in range(k_lo, k_hi + 1):
            if abs(f2 - f1) < 1e-15:
                continue
            t = (TWO_PI * k - f1) / (f2 - f1)
            if -1e-9 <= t <= 1 + 1e-9:
                out.append(canonicalize(x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return out


def _reference_dedup(points):
    kept = []
    for pt in points:
        if not any(pillowcase_distance(pt, q) < 1e-6 for q in kept):
            kept.append(pt)
    return kept


def _reference_points_on_line(img, ca, cb, target, tol):
    """The old gluer._points_on_line."""
    pts = [rec.point for rec in img.points
           if line_offset(rec.point, ca, cb, target) < tol]
    for arc in img.arcs:
        for v in arc.vertices:
            if line_offset(v, ca, cb, target) < tol:
                pts.append(v)
        for (x1, y1), (x2, y2) in arc.lifted_segments():
            f1 = ca * x1 + cb * y1 - target
            f2 = ca * x2 + cb * y2 - target
            for k in range(math.ceil(min(f1, f2) / TWO_PI),
                           math.floor(max(f1, f2) / TWO_PI) + 1):
                if abs(f2 - f1) < 1e-15:
                    continue
                t = (TWO_PI * k - f1) / (f2 - f1)
                if -1e-9 <= t <= 1 + 1e-9:
                    pts.append(canonicalize(x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return _reference_dedup(pts)


def _reference_meets_line(curve, ca, cb, target, tol):
    """The old gluer._meets_line."""
    if any(line_offset(v, ca, cb, target) < tol for v in curve.vertices):
        return True
    for (x1, y1), (x2, y2) in curve.lifted_segments():
        f1 = ca * x1 + cb * y1 - target
        f2 = ca * x2 + cb * y2 - target
        if math.floor(max(f1, f2) / TWO_PI) >= math.ceil(min(f1, f2) / TWO_PI):
            return True
    return False


def _reference_line_touch_points(curve, p):
    """The old gluer._line_touch_points."""
    hits = []
    for (x1, y1), (x2, y2) in curve.lifted_segments():
        f1 = p * x1 + y1
        f2 = p * x2 + y2
        lo, hi = min(f1, f2), max(f1, f2)
        for k in range(math.ceil(lo / PI - 1e-9), math.floor(hi / PI + 1e-9) + 1):
            target = PI * k
            if abs(f2 - f1) < 1e-15:
                if abs(f1 - target) < 1e-9:
                    hits.append(canonicalize(x1, y1))
                    hits.append(canonicalize(x2, y2))
                continue
            t = (target - f1) / (f2 - f1)
            if -1e-9 <= t <= 1 + 1e-9:
                hits.append(canonicalize(x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return _reference_dedup(hits)


def _line_walk(rng, kind, ca, cb, target, period, scale=1.0):
    """A random walk with vertices put on, or just off, ca*a + cb*b = target."""
    pts = _walk(rng, 24)
    pts = pts[0] + scale * (pts - pts[0])

    def form(i):
        return ca * pts[i, 0] + cb * pts[i, 1] - target

    def move(i, offset):
        want = period * round(form(i) / period) + offset + target
        if cb:
            pts[i, 1] = (want - ca * pts[i, 0]) / cb
        else:
            pts[i, 0] = want / ca

    idx = rng.choice(len(pts) - 1, size=6, replace=False)
    if kind == "on-line":
        for i in idx:
            move(i, 0.0)
        # neighbours on the line make runs of segments parallel to it
        move(idx[0] + 1, 0.0)
    elif kind == "zero-length":
        for i in idx:
            move(i, 0.0)
        pts = np.insert(pts, idx[:2], pts[idx[:2]], axis=0)
    elif kind == "near-hit":
        # the next segment meets the line at t = -u * 1e-9; u > 1 misses it
        for i, u in zip(idx, (0.2, 0.6, 0.95, 1.05, 2.0, 0.6)):
            sign = math.copysign(1.0, form(i + 1) - form(i))
            move(i, 0.0)
            move(i, sign * u * 1e-9 * abs(form(i + 1) - form(i)))
    return polyline([tuple(p) for p in pts], closed=bool(rng.integers(0, 2)))


def _gains_at_line_vertices(old, new, curve, ca, cb, target, period):
    """Check that new is old plus points at vertices on the line's t-window.

    old must be a subsequence of new, and each extra point must sit within
    1e-9 of a segment length of a vertex whose form is within 1e-9 of a
    segment's |f2 - f1| of the line.  Returns the number of extra points.
    """
    extra, it = [], iter(map(repr, old))
    want = next(it, None)
    for pt in new:
        if repr(pt) == want:
            want = next(it, None)
        else:
            extra.append(pt)
    assert want is None, "an old crossing was lost"
    segs = curve.lifted_segments()
    reach = 1e-9 * max(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in segs)
    slack = 1e-9 * max(abs(ca * (b[0] - a[0]) + cb * (b[1] - a[1])) for a, b in segs)
    on_line = [v for v in curve.vertices if abs(math.remainder(
        ca * v.alpha + cb * v.beta - target, period)) <= slack + 1e-12]
    for pt in extra:
        assert any(pillowcase_distance(pt, v) <= reach + 1e-12 for v in on_line), pt
    return len(extra)


class TestLineCrossings:
    """line_crossings against the four scans it replaces.

    _points_on_line and _meets_line give what they gave before.  The
    surgery scan and _line_touch_points keep every old point, in order, and
    may gain points only at vertices on the line or within its t-window:
    the surgery scan now takes the ends of segments lying on the line and
    widens its k-window from 1e-12 of a period to 1e-9 of |f2 - f1|, and
    the touch scan's k-window of 1e-9 of a period (pi) is narrower than
    the t-window only on segments longer than pi in f.
    """

    KINDS = ("generic", "on-line", "zero-length", "near-hit")
    LINES = ((1, 1), (0, 1), (1, 0), (3, 1), (2, -1), (5, 2), (13, 1))

    def _curves(self, seed, target, period, lines=LINES):
        rng = np.random.default_rng(seed)
        for case in range(48):
            ca, cb = lines[case % len(lines)]
            kind = self.KINDS[case % len(self.KINDS)]
            scale = 0.02 if case % 3 == 0 else 1.0
            yield kind, ca, cb, _line_walk(rng, kind, ca, cb, target, period, scale)

    @pytest.mark.parametrize("target", [0.0, PI])
    def test_points_on_line_and_meets_line_unchanged(self, target):
        # the image's points are the curve's vertices, and its arcs include
        # a from_lifts image of the curve, whose vertices are built lazily
        from pillowcase.families import unknot_model
        from pillowcase.gluer import _meets_line, _points_on_line
        from pillowcase.solver import ImagePoint, PillowcaseImage
        for kind, ca, cb, curve in self._curves(31, target, TWO_PI):
            other = polyline([(0.4, 0.3), (2.9, 5.1), (1.7, 2.2)])
            mapped = curve.transformed(GluingMatrix.skew(3).rows())
            img = PillowcaseImage(model=unknot_model(), resolution=8, grid_step=0.1,
                                  points=tuple(ImagePoint(v, None, 0.0) for v in curve.vertices),
                                  arcs=(curve, other, mapped))
            for tol in (1e-6, 0.01):
                assert repr(_points_on_line(img, ca, cb, target, tol)) == \
                    repr(_reference_points_on_line(img, ca, cb, target, tol))
                for arc in (curve, mapped):
                    assert _meets_line(arc, ca, cb, target, tol) == \
                        _reference_meets_line(arc, ca, cb, target, tol)

    def test_surgery_candidates(self):
        gained = {kind: 0 for kind in self.KINDS}
        for kind, p, q, curve in self._curves(32, 0.0, TWO_PI):
            old = _reference_surgery_candidates(curve, p, q)
            new = line_crossings(curve, p, q)
            if kind == "generic":
                assert repr(new) == repr(old)
            gained[kind] += _gains_at_line_vertices(old, new, curve, p, q, 0.0, TWO_PI)
        # parallel runs and zero-length segments on the line give their ends,
        # and near-vertex hits past the old 1e-12 window are kept
        assert gained["generic"] == 0
        assert gained["on-line"] and gained["zero-length"] and gained["near-hit"]

    def test_line_touch_points(self):
        from pillowcase.gluer import _line_touch_points
        short = 0
        for kind, p, _, curve in self._curves(33, 0.0, PI, [(3, 1), (5, 1), (13, 1)]):
            old = _reference_line_touch_points(curve, p)
            new = _line_touch_points(curve, p)
            longest = max(abs(p * (b[0] - a[0]) + (b[1] - a[1]))
                          for a, b in curve.lifted_segments())
            if kind == "generic" or longest <= PI:
                short += longest <= PI
                assert repr(new) == repr(old)
            _gains_at_line_vertices(old, new, curve, p, 1, 0.0, PI)
        assert short
        # 13a + b runs over 5.3 > pi on each side of the tip, which stops 4e-9
        # short of the line 13a + b = 2pi: inside the t-window of 5.3e-9,
        # outside the old k-window of 1e-9 * pi
        a = (TWO_PI - 4e-9 - 1.0) / 13
        curve = polyline([(a - 0.4, 0.9), (a, 1.0), (a - 0.4, 1.1)], closed=True)
        old, new = _reference_line_touch_points(curve, 13), _line_touch_points(curve, 13)
        assert not any(close(pt, curve.vertices[1], 1e-8) for pt in old)
        assert [pt for pt in new if close(pt, curve.vertices[1], 1e-8)]
        assert len(new) == len(old) + 1

    def test_rule(self):
        # t in [-1e-9, 1 + 1e-9]; a segment on the line gives both ends
        for period in (PI, TWO_PI):
            for t, hit in ((-0.9e-9, True), (-1.1e-9, False),
                           (1 + 0.9e-9, True), (1 + 1.1e-9, False)):
                # 3a + b runs from 2.5 to 3.5 and meets the line at t
                seg = polyline([(0.5, 1.0), (0.5, 2.0)])
                got = line_crossings(seg, 3, 1, target=2.5 + t + period,
                                     period=period)
                assert bool(got) == hit, (period, t)
            run = polyline([(0.25, PI - 0.75), (0.5, PI - 1.5), (0.75, PI - 2.25)])
            assert repr(line_crossings(run, 3, 1, target=PI, period=period)) == repr(
                [run.vertices[0], run.vertices[1], run.vertices[1], run.vertices[2]])
            assert line_crossings(run, 3, 1, target=PI + 1e-8, period=period) == []

    def test_distinct_points(self):
        a, b = canonicalize(1.0, 1.0), canonicalize(1.0 + 5e-7, 1.0)
        c = canonicalize(-1.0, -1.0 - 2e-6)
        assert distinct_points([a, b, c, a]) == [a, c]
        assert distinct_points([]) == []
        assert distinct_points(iter([a, a, c])) == [a, c]


def _plane_distance(form, pt):
    """Plane distance from pt to the nearest lift of a LineForm's line."""
    return form._residual(pt) / math.hypot(form.ca, form.cb)


def _brute_meet(f1, f2):
    """Every X of (1/N)Z^2 mod Z^2 on both lines, N = q1 q2 |D|, one per X ~ -X."""
    det = f1.ca * f2.cb - f1.cb * f2.ca
    n = f1.offset.denominator * f2.offset.denominator * abs(det)
    out = set()
    for i in range(n):
        for j in range(n):
            x, y = Fraction(i, n), Fraction(j, n)
            if all(any((f.ca * x + f.cb * y - s * f.offset).denominator == 1 for s in (1, -1))
                   for f in (f1, f2)):
                out.add(min((x, y), (-x % 1, -y % 1)))
    return sorted(out)


class TestLineForm:
    def test_parallel_and_coincident_lines_meet_nowhere(self):
        line = LineForm(1, 2, Fraction(0))
        assert line.meet(line) == []
        assert line.meet(LineForm(-1, -2, Fraction(0))) == []
        assert line.meet(LineForm(1, 2, Fraction(1, 3))) == []
        assert line.meet(LineForm(2, 4, Fraction(1, 2))) == []

    @pytest.mark.parametrize("f1,f2", [
        (LineForm(1, 2, Fraction(0)), LineForm(3, -1, Fraction(0))),
        (LineForm(2, 1, Fraction(1, 2)), LineForm(0, 1, Fraction(0))),
        (LineForm(1, 1, Fraction(1, 3)), LineForm(1, -2, Fraction(1, 5))),
        (LineForm(2, 0, Fraction(1, 3)), LineForm(1, 3, Fraction(0))),
        (LineForm(0, 1, Fraction(0)), LineForm(-37, -6, Fraction(0))),
    ])
    def test_meet_is_every_common_point(self, f1, f2):
        assert f1.meet(f2) == _brute_meet(f1, f2)
        assert sorted(f2.meet(f1)) == f1.meet(f2)

    def test_each_sign_pair_gives_det_points(self):
        # offsets 1/3 and 1/5: four sign pairs of |D| = 3 points each, no
        # point on two sign pairs, and the involution pairs them up
        f1, f2 = LineForm(1, 1, Fraction(1, 3)), LineForm(1, -2, Fraction(1, 5))
        assert len(f1.meet(f2)) == 4 * 3 // 2
        # offset 0: one sign pair of |D| = 7 points, X = 0 its own negative
        f1, f2 = LineForm(1, 2, Fraction(0)), LineForm(3, -1, Fraction(0))
        assert len(f1.meet(f2)) == (7 + 1) // 2

    def test_offset_half_is_the_pi_line(self):
        half = LineForm(0, 1, Fraction(1, 2))
        assert half.meet(LineForm(1, 0, Fraction(0))) == [(Fraction(0), Fraction(1, 2))]
        loop = polyline([(1.1, 0.5), (1.1, 2.5), (1.1, 4.5)], closed=True)
        assert [pt.beta for pt in half.crossings(loop)] == [PI]
        assert [pt.as_tuple() for pt in LineForm(0, 1, Fraction(0)).crossings(loop)] == \
            [(1.1, 0.0)]

    def test_crossings_take_both_signs_of_other_offsets(self):
        loop = polyline([(1.1, 0.5), (1.1, 2.5), (1.1, 4.5)], closed=True)
        third = LineForm(0, 1, Fraction(1, 3))
        assert third.crossings(loop) == (line_crossings(loop, 0, 1, TWO_PI / 3)
                                         + line_crossings(loop, 0, 1, -TWO_PI / 3))
        assert sorted(round(pt.beta, 12) for pt in third.crossings(loop)) == \
            [round(2 * PI / 3, 12), round(4 * PI / 3, 12)]

    def test_distance_and_contains(self):
        # contains takes the plane distance to the line against 1e-6
        line = LineForm(3, 4, Fraction(1, 3))
        on = canonicalize(TWO_PI / 9, 0.0)
        assert _plane_distance(line, on) < 1e-15 and line.contains(on)
        for dist, inside in ((1e-3, False), (2e-6, False), (5e-7, True)):
            off = canonicalize(TWO_PI / 9 + 3 * dist / 5, 4 * dist / 5)
            assert abs(_plane_distance(line, off) - dist) < 1e-12
            assert line.contains(off) == inside

    @pytest.mark.parametrize("gluing", [GluingMatrix.swap(), GluingMatrix.skew(2),
                                        GluingMatrix(a=-6, b=1, p=37, c=-6)])
    @pytest.mark.parametrize("name", ["trefoil", "trefoil-neg", "klein"])
    def test_transformed_form_carries_the_transformed_polyline(self, name, gluing):
        from pillowcase.families import builtin_model
        from pillowcase.solver import _line_forms
        for form, line in _line_forms(builtin_model(name)):
            image = line.transformed(gluing.rows())
            moved = form.transformed(gluing)
            assert max(_plane_distance(moved, v) for v in image.vertices) < 1e-12
            assert moved.offset == form.offset


class TestEssentialClass:
    def test_vertical_loop(self):
        loop = polyline([(PI / 2, 0.0), (PI / 2, 2.0), (PI / 2, 4.0)], closed=True)
        assert essential_class(loop) == 1

    def test_small_square(self):
        loop = polyline([(1.4, 1.4), (1.8, 1.4), (1.8, 1.8), (1.4, 1.8)],
                        closed=True)
        assert essential_class(loop) == 0

    def test_requires_closed(self):
        with pytest.raises(ValueError):
            essential_class(polyline([(1.0, 1.0), (1.2, 1.2)]))

    def test_degenerate_near_marked_point(self):
        loop = polyline([(0.0, PI), (1.0, 1.0), (2.0, 1.0)], closed=True)
        with pytest.raises(DegenerateCurveError):
            essential_class(loop)

    def test_loops_closing_through_edge_folds(self):
        # a half-circle of radius r about an edge point has both endpoints
        # at the same orbifold point, so it closes through the fold; around
        # P or Q it separates the marked points, around a corner it does not
        r = 0.3
        thetas = [(-PI / 2 + k * PI / 16) for k in range(17)]
        around_p = polyline([(r * math.cos(t), PI + r * math.sin(t))
                             for t in thetas], closed=True)
        assert abs(essential_class(around_p)) == 1
        around_q = polyline([(PI - r * math.cos(t), PI + r * math.sin(t))
                             for t in thetas], closed=True)
        assert abs(essential_class(around_q)) == 1
        around_corner = polyline([(r * math.cos(t), r * math.sin(t))
                                  for t in thetas], closed=True)
        assert essential_class(around_corner) == 0

    def test_sparse_vertices_take_fold_geodesics(self):
        # consecutive vertices straddling beta = pi near the left edge are
        # closer through the fold than vertically, so the quadrilateral
        # degenerates to a back-and-forth path of class zero
        quad = polyline([(0.25, PI - 0.5), (0.25, PI + 0.5),
                         (0.05, PI + 0.5), (0.05, PI - 0.5)], closed=True)
        assert essential_class(quad) == 0

    def test_winding_matches_construction(self):
        # random interior loops built with a known beta winding number
        rng = np.random.default_rng(17)
        for _ in range(30):
            k = int(rng.integers(-3, 4))
            n = 40
            ts = np.linspace(0.0, 1.0, n, endpoint=False)
            alpha = PI / 2 + 0.35 * np.sin(TWO_PI * ts * rng.integers(1, 4)
                                           + rng.uniform(0, TWO_PI))
            beta = (TWO_PI * k * ts + PI / 2
                    + 0.3 * np.cos(TWO_PI * ts + rng.uniform(0, TWO_PI)))
            # stay away from beta = pi at the sample points is not needed;
            # the curve lives in the interior strip so the class equals k
            loop = polyline(list(zip(alpha, beta)), closed=True)
            assert essential_class(loop) == k


class TestFromLifts:
    @pytest.mark.parametrize("closed", [False, True])
    def test_keeps_the_lifts(self, closed):
        lifts = [(0.5, 7.0), (-3.0, 20.0), (9.0, -4.0), (0.5 + TWO_PI, 7.0 - 2 * TWO_PI)]
        curve = PillowcasePolyline.from_lifts(lifts, closed)
        verts = lifts[:-1] if closed else lifts
        assert curve.lifted_vertices() == lifts
        assert curve.vertices == tuple(canonicalize(x, y) for x, y in verts)
        # equal to the polyline of its vertices, whose lift steps are short
        short = polyline(verts, closed=closed)
        assert curve == short and curve.lifted_vertices() != short.lifted_vertices()

    def test_long_segment_crossings(self):
        # one segment wraps three times in alpha: three crossings of alpha = 1
        curve = PillowcasePolyline.from_lifts([(1.5, 0.5), (1.5 + 3 * TWO_PI, 0.5)])
        assert len(line_crossings(curve, 1.0, 0.0, 1.0)) == 3

    LIFTS = [(0.5, 7.0), (-3.0, 20.0), (9.0, -4.0), (PI, -PI), (0.5 + TWO_PI, 7.0 - 2 * TWO_PI)]

    @pytest.mark.parametrize("closed", [False, True])
    def test_lazy_vertices_compare_as_eager_ones(self, closed):
        lazy = PillowcasePolyline.from_lifts(self.LIFTS, closed)
        fresh = PillowcasePolyline.from_lifts(self.LIFTS, closed)
        eager = PillowcasePolyline.from_lifts(self.LIFTS, closed)
        assert eager.vertices
        verts = self.LIFTS[:-1] if closed else self.LIFTS
        short = polyline(verts, closed=closed)
        assert "vertices" not in lazy.__dict__ and "vertices" in eager.__dict__
        assert lazy == eager == short and hash(lazy) == hash(eager) == hash(short)
        assert repr(fresh) == repr(eager) == repr(short)
        assert len(PillowcasePolyline.from_lifts(self.LIFTS, closed)) == len(short)
        assert fresh.segment_count() == short.segment_count() == len(short) - 1 + closed
        for curve in (PillowcasePolyline.from_lifts(self.LIFTS, closed), eager):
            back = pickle.loads(pickle.dumps(curve))
            assert back == short and repr(back) == repr(short)
            assert back.lifted_vertices() == self.LIFTS
        # read once, the vertices are kept
        assert lazy.vertices is lazy.vertices

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_lift_raises_at_construction(self, closed, bad):
        # every lift is checked, a closed polyline's closing lift too
        for i in range(len(self.LIFTS)):
            lifts = list(self.LIFTS)
            lifts[i] = (lifts[i][0], bad)
            with pytest.raises(ValueError, match="angles must be finite"):
                PillowcasePolyline.from_lifts(lifts, closed)
            with pytest.raises(ValueError, match="angles must be finite"):
                PillowcasePolyline.from_lifts(lifts[:i] + [(bad, bad)] + lifts[i + 1:], closed)
        with pytest.raises(ValueError, match="two vertices"):
            PillowcasePolyline.from_lifts(self.LIFTS[:2], closed=True)

    READERS = {"lifted_vertices": PillowcasePolyline.lifted_vertices,
               "segment_count": PillowcasePolyline.segment_count,
               "within": lambda c: c.within(P_POINT, 1e-7),
               "min_distance_to": lambda c: c.min_distance_to(P_POINT),
               "essential_class": essential_class}

    # essential_class takes closed polylines only
    @pytest.mark.parametrize("closed, read", [(closed, read) for read in READERS
                                              for closed in (False, True)
                                              if closed or read != "essential_class"])
    def test_nan_vertex_raises_at_first_lift_read(self, closed, read):
        # given vertices are not checked; the first read of their lifts
        # raises for a NaN in the first, a middle or the last vertex
        verts = [canonicalize(0.5, 1.0), canonicalize(2.0, 3.0), canonicalize(1.0, 5.0)]
        for i, v in enumerate(verts):
            for bad in (PillowcasePoint(math.nan, v.beta), PillowcasePoint(v.alpha, math.nan)):
                curve = PillowcasePolyline(tuple(verts[:i] + [bad] + verts[i + 1:]), closed)
                with pytest.raises(ValueError, match="angles must be finite"):
                    self.READERS[read](curve)

    def test_lift_readers_canonicalize_only_their_hits(self, monkeypatch):
        # transformed and min_distance_to build no point, and crossings and
        # intersections canonicalize one point per hit they find
        calls, hits = [], []
        canon, inner = geometry.canonicalize, geometry._segment_intersection

        def segment_hits(*args):
            found = inner(*args)
            hits.extend(found)
            return found

        monkeypatch.setattr(geometry, "canonicalize", lambda *a: calls.append(a) or canon(*a))
        monkeypatch.setattr(geometry, "_segment_intersection", segment_hits)
        rng = np.random.default_rng(12)
        base = PillowcasePolyline.from_lifts([tuple(p) for p in _walk(rng, 40)], closed=True)
        other = polyline([tuple(p) for p in _walk(rng, 30)])
        crossings = 0
        for rows in (((0, 1), (1, 0)), ((-1, 0), (3, 1)), ((-6, 1), (37, -6))):
            del calls[:]
            mapped = base.transformed(rows)
            mapped.min_distance_to(P_POINT)
            assert calls == []
            found = LineForm(1, 1, Fraction(1, 3)).crossings(mapped)
            assert len(calls) == len(found)
            crossings += len(found)
            del calls[:], hits[:]
            polyline_intersections(other, mapped)
            assert len(calls) == len(hits)
            mapped.segment_count()
            assert "vertices" not in mapped.__dict__
        assert crossings and hits


class TestHelpers:
    def test_line_offset(self):
        pt = canonicalize(PI / 4, PI / 2)
        assert line_offset(pt, 2, 1, PI) == pytest.approx(0.0, abs=1e-12)
        assert line_offset(pt, 0, 1, 0.0) == pytest.approx(PI / 2, abs=1e-12)

    def test_distance_respects_fold(self):
        p1 = canonicalize(1e-15, 3 * PI / 2)
        p2 = canonicalize(0.0, PI / 2)
        assert pillowcase_distance(p1, p2) < 1e-12

    def test_nearest_lift_matches_the_two_pass_loop(self):
        # signed zeros, points on the edges alpha in {0, pi}, and anchors at
        # the involution's fixed points, equally far from both signs' lifts,
        # or a few 1e-16 off them, where the 1e-15 margin decides
        rng = np.random.default_rng(20)
        pts = [canonicalize(*rng.uniform(-8, 8, size=2)) for _ in range(200)]
        pts += _wrap_points() + [P_POINT, Q_POINT]
        pts += [PillowcasePoint(a, b) for a in (0.0, -0.0, PI) for b in (0.0, -0.0, 1.0)]
        anchors = [tuple(a) for a in rng.uniform(-20, 20, size=(30, 2)).tolist()]
        anchors += [(x, y) for x in (0.0, -0.0, PI, -PI, TWO_PI) for y in (0.0, -0.0, PI)]
        anchors += [(-k * 1e-16, 0.0) for k in (1, 2, 4)] + [(0.0, -3e-16)]
        ties = margin = 0
        for pt in pts:
            for x, y in anchors + [pt.as_tuple(), (-pt.alpha, -pt.beta)]:
                assert repr(nearest_lift(pt, (x, y))) == \
                    repr(nearest_lift_two_pass(pt, (x, y)))
                d1 = math.hypot(math.remainder(x - pt.alpha, TWO_PI),
                                math.remainder(y - pt.beta, TWO_PI))
                d2 = math.hypot(math.remainder(x + pt.alpha, TWO_PI),
                                math.remainder(y + pt.beta, TWO_PI))
                ties += d1 == d2
                margin += 0.0 < d1 - d2 <= 1e-15
        assert ties > 100 and margin > 10
        # a NaN coordinate gives no lift
        nan = PillowcasePoint(math.nan, 1.0)
        assert nearest_lift(nan, (0.0, 0.0)) is nearest_lift_two_pass(nan, (0.0, 0.0)) is None

    def test_distance_matches_exhaustive_candidates(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            p1 = canonicalize(rng.uniform(-8, 8), rng.uniform(-8, 8))
            p2 = canonicalize(rng.uniform(-8, 8), rng.uniform(-8, 8))
            ref = min(math.hypot(p1.alpha - u, p1.beta - v)
                      for (u, v) in _reps_near(p2, p1.alpha, p1.beta))
            assert abs(ref - pillowcase_distance(p1, p2)) < 1e-12


# ---------------------------------------------------------------------------
# the distance prefilter and the window passes, against the full scans

@pytest.fixture(scope="module")
def image_curves():
    """Arcs of the trefoil image at r=40, with their images under two gluings.

    The arcs include the closed reducible-line polylines; the gluing images
    are from_lifts polylines whose segments are long.
    """
    from pillowcase.families import builtin_model
    from pillowcase.solver import SolverConfig, sample_pillowcase_image
    img = sample_pillowcase_image(builtin_model("trefoil"), 40, SolverConfig())
    arcs = list(img.arcs)
    assert any(arc.closed for arc in arcs)
    mapped = [arc.transformed(g.rows()) for g in (GluingMatrix(-6, 1, 37, -6),
                                                  GluingMatrix.skew(3))
              for arc in arcs]
    return arcs + mapped


def _queries(rng, curve):
    """Marked points, corners, the a_k of p = 3 and 5, and points on, near and off the curve."""
    pts = [P_POINT, Q_POINT, canonicalize(0.0, 0.0), canonicalize(PI, 0.0)]
    pts += [canonicalize(2 * k * PI / p, 0.0) for p in (3, 5) for k in range(1, p)]
    pts += [curve.vertices[i] for i in rng.integers(0, len(curve), size=3)]
    lifts = np.array(curve.lifted_vertices())
    for _ in range(3):
        i = int(rng.integers(0, len(lifts) - 1))
        on = lifts[i] + rng.uniform() * (lifts[i + 1] - lifts[i])
        pts += [canonicalize(*on), canonicalize(*(on + 1e-7 * rng.normal(size=2)))]
    pts += [canonicalize(*rng.uniform(-10, 10, size=2)) for _ in range(3)]
    return pts


class TestDistancePrefilter:
    def test_min_distance_on_image_arcs_and_long_segments(self, image_curves):
        rng = np.random.default_rng(40)
        long_segments = 0
        for curve in image_curves:
            lifts = np.array(curve.lifted_vertices())
            long_segments += (np.hypot(*np.diff(lifts, axis=0).T) > PI).sum()
            for pt in _queries(rng, curve):
                d = _reference_min_distance(curve, pt)
                assert repr(curve.min_distance_to(pt)) == repr(d)
                _assert_within_matches(curve, pt, d)
        assert long_segments

    def test_closed_line_polylines(self):
        rng = np.random.default_rng(41)
        for ca, cb in ((1, 0), (0, 1), (3, 1), (2, -1), (1, 6)):
            n = 96 * max(abs(ca), abs(cb))
            ts = np.linspace(0.0, TWO_PI, n + 1)
            line = PillowcasePolyline.from_lifts(
                [(cb * t + 0.3, -ca * t + 1.1) for t in ts], closed=True)
            for pt in _queries(rng, line):
                d = _reference_min_distance(line, pt)
                assert repr(line.min_distance_to(pt)) == repr(d)
                _assert_within_matches(line, pt, d)

    def test_dropped_rows_lie_beyond_the_radius(self, image_curves):
        # a scan at a radius drops the rows whose bound exceeds it: every
        # distance the full scan gives such a row lies beyond the radius
        rng = np.random.default_rng(42)
        dropped = 0
        for curve in image_curves[::2]:
            for pt in _queries(rng, curve)[::2]:
                d, _ = curve._scan(pt, slice(None))
                bound = curve._distance_bounds(pt)
                least = d.min()
                for radius in (least, 1e-7, 1e-6, 0.3, least + 0.05):
                    beyond = bound > radius
                    assert (d[beyond] > radius).all()
                    dropped += beyond.sum()
        assert dropped

    def test_essential_class_at_its_radius(self):
        # a vertical loop at alpha = a passes P at distance exactly a, since
        # sqrt(a*a) == a; the marked-point test is distance <= 1e-7
        for a, degenerate in ((1e-7, True), (math.nextafter(1e-7, math.inf), False)):
            loop = PillowcasePolyline.from_lifts(
                [(a, 0.0), (a, 2.0), (a, PI), (a, 4.5), (a, TWO_PI)], closed=True)
            assert loop.min_distance_to(P_POINT) == a == _reference_min_distance(loop, P_POINT)
            assert loop.within(P_POINT, 1e-7) == degenerate
            got, want = _outcome(essential_class, loop), _outcome(_reference_essential_class, loop)
            assert got == want
            assert (got[0] == "DegenerateCurveError") == degenerate

    def test_certificate_radii(self):
        # p_avoiding_certificate tests distance > 1e-6 to the corners and
        # < 1e-6 to the points a_k = (2 pi k / p, 0)
        from pillowcase.gluer import p_avoiding_certificate
        tol = 1e-6
        corner = canonicalize(0.0, 0.0)
        for a in (tol, math.nextafter(tol, math.inf)):
            loop = PillowcasePolyline.from_lifts(
                [(a, 0.0), (a, 2.0), (a, 4.0), (a, TWO_PI)], closed=True)
            assert loop.min_distance_to(corner) == a == _reference_min_distance(loop, corner)
            assert loop.within(corner, tol) == (a <= tol)
            assert p_avoiding_certificate(loop, 3).avoids_corners == (a > tol)
        a_k = canonicalize(TWO_PI / 3, 0.0)
        for b in (math.nextafter(tol, 0.0), tol):
            loop = PillowcasePolyline.from_lifts(
                [(a_k.alpha + s, b) for s in (0.0, 1.0, 2.5, 4.0, TWO_PI)], closed=True)
            assert loop.min_distance_to(a_k) == b == _reference_min_distance(loop, a_k)
            assert (loop.min_distance_to(a_k) < tol) == (b < tol)
            # the shared points are those strictly within tol of both curves
            shared = p_avoiding_certificate(loop, 3, partner=loop).shared_transversal
            assert [pt for pt, _ in shared] == ([a_k] if b < tol else [])


def _reference_essential_class(curve):
    """The scalar loops of essential_class before its window pass."""
    if not curve.closed:
        raise ValueError("essential_class needs a closed polyline")
    for marked in (P_POINT, Q_POINT):
        if _reference_min_distance(curve, marked) <= 1e-7:
            raise DegenerateCurveError(f"curve passes through marked point {marked}")
    segs = curve.lifted_segments()
    for eps in geometry._REFERENCE_EPSILONS:
        if all(abs(math.remainder(y - (math.pi + eps), TWO_PI)) >= 1e-11
               for seg in segs for _, y in seg):
            return _reference_count_crossings(segs, eps)
    raise DegenerateCurveError("could not find a clean reference arc offset")


def _reference_count_crossings(segs, eps):
    total = 0
    for (x1, y1), (x2, y2) in segs:
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
            xm = math.fmod(x, TWO_PI)
            if xm < 0:
                xm += TWO_PI
            total += upward * (1 if xm < math.pi else -1)
    return total


def _reference_line_crossings(curve, ca, cb, target=0.0, period=TWO_PI):
    """The scalar loop of line_crossings before its window pass."""
    hits = []
    for (x1, y1), (x2, y2) in curve.lifted_segments():
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


def _outcome(fn, *args, **kwargs):
    """repr of the result, or the exception's type name and message."""
    try:
        return repr(fn(*args, **kwargs))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _loops(rng, count):
    """Closed loops of known beta winding, some through edge folds, some sparse."""
    for case in range(count):
        k = int(rng.integers(-3, 4))
        n = int(rng.choice([7, 40]))
        ts = np.linspace(0.0, 1.0, n, endpoint=False)
        alpha = rng.uniform(0.2, 2.9) + rng.uniform(0.1, 1.5) * np.sin(
            TWO_PI * ts * rng.integers(1, 4) + rng.uniform(0, TWO_PI))
        beta = TWO_PI * k * ts + rng.uniform(0, TWO_PI) + 0.3 * np.cos(TWO_PI * ts)
        yield polyline(list(zip(alpha, beta)), closed=True)


class TestWindowPasses:
    def test_abs_remainder_is_math_remainder(self):
        rng = np.random.default_rng(50)
        for period in (TWO_PI, PI, 1.0, 0.3):
            k = rng.integers(-40, 40, size=200).astype(float)
            d = np.concatenate([
                rng.uniform(-100, 100, size=2000), k * period, (k + 0.5) * period,
                [math.nextafter(v, s) for v in (k + 0.5)[:50] * period
                 for s in (-math.inf, math.inf)],
                k * period + rng.normal(size=200) * 1e-11, [0.0, -0.0, 1e300, -1e-300]])
            want = np.array([abs(math.remainder(v, period)) for v in d.tolist()])
            assert geometry._abs_remainder(d, period).tobytes() == want.tobytes()

    def test_essential_class_matches_scalar_loops(self):
        rng = np.random.default_rng(51)
        classes = set()
        gluings = (GluingMatrix.swap(), GluingMatrix.skew(3), GluingMatrix(-6, 1, 37, -6))
        for loop in _loops(rng, 24):
            for curve in (loop, loop.transformed(gluings[int(rng.integers(0, 3))].rows())):
                got = _outcome(essential_class, curve)
                assert got == _outcome(_reference_essential_class, curve)
                classes.add(got)
        walks = [polyline([tuple(p) for p in _walk(rng, 30)], closed=True) for _ in range(12)]
        for curve in walks:
            assert _outcome(essential_class, curve) == \
                _outcome(_reference_essential_class, curve)
        assert {"0", "1", "-1"} <= classes and len(classes) > 4

    def test_horizontal_segments_and_edge_runs(self):
        curves = [
            polyline([(0.5, 1.0), (2.5, 1.0), (2.5, 4.0), (0.5, 4.0)], closed=True),
            polyline([(0.5, 1.0), (2.5, 1.0), (2.5, 4.0), (1.0, 4.0), (1.0, 7.0)],
                     closed=True),
            PillowcasePolyline.from_lifts([(1.0, PI), (2.0, PI), (2.0, PI + TWO_PI),
                                           (1.0, PI + TWO_PI)], closed=True),
            PillowcasePolyline.from_lifts([(1.5, 0.5), (1.5, 0.5 + 3 * TWO_PI),
                                           (1.6, 0.5 + 3 * TWO_PI)], closed=True),
        ]
        for curve in curves:
            assert _outcome(essential_class, curve) == \
                _outcome(_reference_essential_class, curve)

    def test_vertices_on_the_reference_arc_force_the_next_epsilon(self, monkeypatch):
        used = []
        count = geometry._count_crossings
        monkeypatch.setattr(geometry, "_count_crossings",
                            lambda curve, eps: used.append(eps) or count(curve, eps))
        eps = geometry._REFERENCE_EPSILONS
        for j in range(len(eps) + 1):
            # a vertical loop with lifts at pi + eps for the first j epsilons,
            # some a period up
            ys = [0.5] + [math.pi + e + TWO_PI * (i % 2) for i, e in enumerate(eps[:j])]
            lifts = [(1.0 + 0.01 * i, y) for i, y in enumerate(sorted(ys))]
            lifts += [(2.0, 9.0), (2.0, 13.0), (1.0, 0.5 + 2 * TWO_PI)]
            curve = PillowcasePolyline.from_lifts(lifts, closed=True)
            got = _outcome(essential_class, curve)
            assert got == _outcome(_reference_essential_class, curve)
            if j < len(eps):
                assert used[-1] == eps[j]
            else:
                assert got == ("DegenerateCurveError",
                               "could not find a clean reference arc offset")

    def test_essential_class_error_paths(self):
        near_p = polyline([(0.0, PI), (1.0, 1.0), (2.0, 1.0)], closed=True)
        near_q = polyline([(PI - 5e-8, PI), (1.0, 1.0), (2.0, 1.0)], closed=True)
        open_curve = polyline([(1.0, 1.0), (1.2, 1.2)])
        for curve in (near_p, near_q, open_curve):
            got = _outcome(essential_class, curve)
            assert got == _outcome(_reference_essential_class, curve)
            assert got[0] in ("DegenerateCurveError", "ValueError")

    LINES = ((0, 1), (1, 0), (1, 1), (3, 1), (2, -1), (5, 2), (13, 1), (1, 6))

    @pytest.mark.parametrize("period", [TWO_PI, PI])
    def test_line_crossings_match_scalar_loop(self, period):
        rng = np.random.default_rng(52)
        hits = 0
        for case in range(40):
            ca, cb = self.LINES[case % len(self.LINES)]
            target = (0.0, PI, 2.5)[case % 3]
            kind = TestLineCrossings.KINDS[case % len(TestLineCrossings.KINDS)]
            curve = _line_walk(rng, kind, ca, cb, target, period, (0.02, 1.0)[case % 2])
            mapped = curve.transformed(GluingMatrix(-6, 1, 37, -6).rows())
            for c in (curve, mapped):
                got = line_crossings(c, ca, cb, target, period)
                assert repr(got) == repr(_reference_line_crossings(c, ca, cb, target, period))
                hits += len(got)
        assert hits

    def test_line_crossings_on_image_arcs(self, image_curves):
        for curve in image_curves:
            for ca, cb, target, period in ((1, 0, 0.0, TWO_PI), (0, 1, PI, TWO_PI),
                                           (3, 1, 0.0, PI), (2, 3, 1.0, TWO_PI)):
                assert repr(line_crossings(curve, ca, cb, target, period)) == \
                    repr(_reference_line_crossings(curve, ca, cb, target, period))

    def test_parallel_segments_on_and_off_the_line(self):
        # horizontal runs on beta = 1 and beta = 2, against the lines beta = 1 mod period
        run = polyline([(0.2, 1.0), (0.9, 1.0), (1.7, 1.0), (1.7, 2.0), (0.4, 2.0)])
        loop = polyline([(0.2, 1.0), (0.9, 1.0), (1.7, 1.0), (1.7, 2.0), (0.4, 2.0)],
                        closed=True)
        for curve in (run, loop):
            for target, period in ((1.0, TWO_PI), (1.0, PI), (1.0 + PI, PI), (1.5, TWO_PI)):
                got = line_crossings(curve, 0, 1, target, period)
                assert repr(got) == repr(_reference_line_crossings(curve, 0, 1, target, period))
        on = line_crossings(run, 0, 1, 1.0)
        # both ends of the two runs on the line, and the foot of the vertical segment
        assert len(on) == 5
        assert line_crossings(run, 0, 1, 1.5)[0] == canonicalize(1.7, 1.5)

    def test_shared_vertex_once_per_segment(self):
        # beta = 1 meets the curve at its middle vertex, the end of one
        # segment and the start of the next
        curve = polyline([(0.5, 0.5), (1.0, 1.0), (1.5, 1.7)])
        got = line_crossings(curve, 0, 1, 1.0)
        assert got == [canonicalize(1.0, 1.0)] * 2
        assert repr(got) == repr(_reference_line_crossings(curve, 0, 1, 1.0))

    def test_long_segments_cross_several_strips(self):
        curve = PillowcasePolyline.from_lifts([(1.5, 0.5), (1.5 + 3 * TWO_PI, 0.5 + 7.0),
                                               (-4.0, 30.0)])
        for ca, cb, period in ((1, 0, TWO_PI), (0, 1, PI), (3, 1, PI), (1, -1, TWO_PI)):
            got = line_crossings(curve, ca, cb, 1.0, period)
            assert len(got) > 3
            assert repr(got) == repr(_reference_line_crossings(curve, ca, cb, 1.0, period))

    def test_line_crossings_error_paths(self):
        curve = polyline([(0.5, 0.5), (1.0, 1.0), (1.5, 1.7)])
        flat = polyline([(0.5, 1.0), (1.0, 1.0)])
        # 1e308 * x overflows at the end x = 2, and not at x = 1
        wide = polyline([(1.0, 0.5), (2.0, 0.5)])
        cases = [(curve, 1, 1, math.nan, TWO_PI), (curve, 1, 1, math.inf, TWO_PI),
                 (curve, math.inf, 1, 0.0, TWO_PI), (curve, math.nan, 0, 0.0, TWO_PI),
                 (flat, 0, 1, 1.0, math.nan), (curve, 1, 1, 0.0, 0.0),
                 (wide, 1e308, 0, 0.0, TWO_PI)]
        raised = set()
        for c, ca, cb, target, period in cases:
            got = _outcome(line_crossings, c, ca, cb, target, period)
            assert got == _outcome(_reference_line_crossings, c, ca, cb, target, period)
            raised.add(got[0])
        assert {"ValueError", "OverflowError", "ZeroDivisionError"} <= raised
