import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pillowcase import gluer
from pillowcase.families import (builtin_model, klein_bottle_model, torus_knot_model,
                                 unknot_model)
from pillowcase.geometry import (GluingMatrix, PillowcasePolyline, canonicalize,
                                 detailed_intersections,
                                 distinct_points, line_offset, pillowcase_distance,
                                 pillowcase_distances, polyline,
                                 polyline_intersections, tau)
from pillowcase.gluer import (CandidateCounts, p_avoiding_certificate,
                              search_nonabelian_rep, slope_line_certificates, splice,
                              _candidate_points, _side2_angles)
from pillowcase.homology import abelianization, glue_homology
from pillowcase.solver import (PillowcaseImage, SolverConfig,
                               extract_essential_curve, find_surgery_representation)
from pillowcase.su2 import relator_residual

from images import image

PI = math.pi
CFG = SolverConfig(resolution=100)


@pytest.fixture
def trefoil_image():
    return image(torus_knot_model(2, 3), 100, CFG)


@pytest.fixture
def search_images():
    """The trefoil and trefoil-neg images at r=100, seed 0, with their models."""
    models = {"tre": torus_knot_model(2, 3), "neg": torus_knot_model(-2, 3)}
    return models, {key: image(model, 100, CFG) for key, model in models.items()}


#: the five splice searches of the library reuse path: (image 1, image 2, gluing)
_SEARCH_PATH_GLUINGS = (
    ("tre", "tre", GluingMatrix.swap()),
    ("neg", "neg", GluingMatrix.swap()),
    ("tre", "tre", GluingMatrix.skew(2)),
    ("tre", "neg", GluingMatrix.skew(3)),
    ("tre", "neg", GluingMatrix(a=-6, b=1, p=37, c=-6)),
)


def _search_path(models, images):
    """The library reuse path on two swept images, as perfbench's search op runs it.

    Five splice searches, the essential curve of each image, the (1, 1) and
    (1, 0) surgeries of the trefoil and the slope certificates for p = 3, 5,
    7.
    """
    tre, neg = images["tre"], images["neg"]
    searches = [search_nonabelian_rep(splice(models[a], models[b], g), CFG,
                                      image1=images[a], image2=images[b])
                for a, b, g in _SEARCH_PATH_GLUINGS]
    curves = (extract_essential_curve(tre), extract_essential_curve(neg))
    surgery = (find_surgery_representation(tre, 1, 1, CFG),
               find_surgery_representation(tre, 1, 0, CFG))
    certificates = [(slope_line_certificates(tre, p),
                     p_avoiding_certificate(curves[0], p, partner=curves[1]))
                    for p in (3, 5, 7)]
    return searches, curves, surgery, certificates


class TestSplice:
    @pytest.mark.parametrize("gluing,factors", [
        (GluingMatrix.swap(), ()),
        (GluingMatrix.skew(2), (2,)),
        (GluingMatrix.skew(3), (3,)),
    ])
    def test_amalgamated_matches_matrix_route(self, gluing, factors):
        tre = torus_knot_model(2, 3)
        spliced = splice(tre, tre, gluing)
        via_presentation = abelianization(spliced.amalgamated).group()
        via_matrix = glue_homology(tre, tre, gluing)
        assert via_presentation == via_matrix
        assert via_matrix.torsion == factors

    def test_identification_relators(self):
        tre = torus_knot_model(2, 3)
        spliced = splice(tre, tre, GluingMatrix.swap())
        p = spliced.amalgamated
        assert p.generator_count == 4
        # relators: one per side plus the two identifications
        assert len(p.relators) == 4


class TestSearch:
    def test_swap_trefoils(self, trefoil_image):
        tre = torus_knot_model(2, 3)
        spliced = splice(tre, tre, GluingMatrix.swap())
        res = search_nonabelian_rep(spliced, CFG, image1=trefoil_image,
                                    image2=trefoil_image)
        assert res.found
        assert res.residual < 1e-8
        assert res.gap_side1 > 0.1 and res.gap_side2 > 0.1
        assert relator_residual(res.representation, spliced.amalgamated) < 1e-8
        # boundary point lies on one of the enumerated residue branches
        branches = _swap_branch_points()
        assert min(pillowcase_distance(res.boundary_point, b)
                   for b in branches) < 1e-3
        # both peripheral angles stay away from the reducible locus
        from pillowcase.geometry import line_offset
        assert line_offset(res.boundary_point, 0, 1, 0) > 1e-3
        assert line_offset(res.boundary_point, 1, 0, 0) > 1e-3

    def test_skew3_trefoils(self, trefoil_image):
        tre = torus_knot_model(2, 3)
        spliced = splice(tre, tre, GluingMatrix.skew(3))
        res = search_nonabelian_rep(spliced, CFG, image1=trefoil_image,
                                    image2=trefoil_image)
        assert res.found
        assert res.gap_side1 > 0.1 and res.gap_side2 > 0.1
        # intersections of 6a+b=pi with its skew-3 image: 9a = 2pi mod 2pi
        targets = [canonicalize(2 * PI / 9, PI - 12 * PI / 9),
                   canonicalize(4 * PI / 9, PI - 24 * PI / 9),
                   canonicalize(6 * PI / 9, PI - 36 * PI / 9)]
        assert min(pillowcase_distance(res.boundary_point, t)
                   for t in targets) < 1e-3

    def test_candidates_tau_invariant_for_skew(self, trefoil_image):
        g = GluingMatrix.skew(2)
        cands = [pt for pt, _ in _candidate_points(trefoil_image, trefoil_image, g)]
        assert cands
        for pt in cands:
            assert min(pillowcase_distance(tau(pt), q) for q in cands) \
                < 3 * trefoil_image.grid_step

    def test_klein_trefoil_essential_splice(self):
        # swap-splicing the Klein-bottle bundle (rational longitude of order
        # 2) to a trefoil: the glued representation pairs the a -> j family
        # with a branch point whose longitude holonomy is -1, landing at
        # (pi, k pi/3)
        kl = klein_bottle_model()
        tre = torus_knot_model(2, 3)
        assert glue_homology(kl, tre, GluingMatrix.swap()).torsion == (2, 2)
        spliced = splice(kl, tre, GluingMatrix.swap())
        res = search_nonabelian_rep(spliced, SolverConfig(resolution=80),
                                    image1=image(kl, 80), image2=image(tre, 80))
        assert res.found
        assert res.residual < 1e-8
        assert res.gap_side1 > 0.1 and res.gap_side2 > 0.1
        targets = [canonicalize(PI, PI / 3), canonicalize(PI, 2 * PI / 3)]
        assert min(pillowcase_distance(res.boundary_point, t)
                   for t in targets) < 1e-3

    def test_motegi_none(self):
        tre = torus_knot_model(2, 3)
        neg = torus_knot_model(-2, 3)
        spliced = splice(tre, neg, GluingMatrix(a=-6, b=1, p=37, c=-6))
        res = search_nonabelian_rep(spliced, CFG, image1=image(tre, 100, CFG),
                                    image2=image(neg, 100, CFG))
        assert not res.found
        assert res.resolution == CFG.resolution

    def test_motegi_candidates_forced_abelian(self, trefoil_image):
        # trefoil-neg's reducible line, mapped exactly, meets image 1 only on
        # beta = 0 and at delta = 0: both sides abelian, nothing to refine
        neg = torus_knot_model(-2, 3)
        g = GluingMatrix(a=-6, b=1, p=37, c=-6)
        img2 = image(neg, 100, CFG)
        arcs2 = img2.transform_arcs(g)
        assert [a.segment_count() for a in arcs2] == [a.segment_count() for a in img2.arcs]
        assert sum(a.segment_count() for a in arcs2) == 161
        candidates = [pt for pt, _ in _candidate_points(trefoil_image, img2, g)]
        assert len(candidates) == 19
        for pt in candidates:
            assert line_offset(pt, 0.0, 1.0, 0.0) < 1e-6
            assert abs(math.remainder(_side2_angles(g, pt)[1], 2 * PI)) < 1e-6
        # the reducible lines meet exactly at gamma = 2pi k/37, that is at
        # (alpha, beta) = (-12pi k/37, 74pi k/37): 19 pillowcase points, and
        # the candidates are those points, one each
        exact = distinct_points([canonicalize(-12 * PI * k / 37, 74 * PI * k / 37)
                                 for k in range(37)])
        assert len(exact) == 19
        nearest = []
        for pt in candidates:
            d = [pillowcase_distance(pt, q) for q in exact]
            nearest.append(d.index(min(d)))
            assert min(d) < 1e-12
        assert sorted(nearest) == list(range(19))
        # in units of 2pi, gamma = k/37 is X = (-6k/37, k): the lines meet at
        # exactly those Fractions, one per pair X ~ -X
        (line1,), (line2,) = trefoil_image.lines, img2.lines
        exact = {min(((-6 * k / Fraction(37)) % 1, Fraction(0)),
                     ((6 * k / Fraction(37)) % 1, Fraction(0))) for k in range(37)}
        assert line1.meet(line2.transformed(g)) == sorted(exact)
        assert len(exact) == 19
        res = search_nonabelian_rep(splice(torus_knot_model(2, 3), neg, g), CFG,
                                    image1=trefoil_image, image2=img2)
        assert not res.found and res.diagnostics == ()
        assert res.candidates == CandidateCounts(line_line=19, both_abelian=19)

    def test_candidate_dedup_memory_is_bounded(self):
        # a Klein reducible line overlaps its own image under (1, 0, 0, -1):
        # 2304 collinear hits, whose full distance matrix with its
        # temporaries takes about 340 MB
        img = image(klein_bottle_model(), 60, CFG)
        g = GluingMatrix(1, 0, 0, -1)
        line = img.arcs[-1]
        hits = [pt for pt, *_ in detailed_intersections(line, line.transformed(g.rows()))]
        assert len(hits) == 2304
        tracemalloc.start()
        try:
            kept = distinct_points(hits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert repr(kept) == repr(_distinct_row_by_row(hits, 1e-6))

    def test_klein_klein_candidates_are_the_numeric_hits(self):
        # both lines are fixed by (1, 0, 0, -1), so they meet their images in
        # no points; the candidates are the numeric arcs' hits with their own
        # images, on the edge alpha = pi, and the first one refined is found
        kl = klein_bottle_model()
        img = image(kl, 60, CFG)
        g = GluingMatrix(1, 0, 0, -1)
        assert [l1.meet(l2.transformed(g)) for l1 in img.lines for l2 in img.lines] \
            == [[]] * 4
        candidates = _candidate_points(img, img, g)
        arcs2 = [arc.transformed(g.rows()) for arc in img.numeric_arcs]
        assert [pt for pt, _ in candidates] == distinct_points(
            [pt for a1 in img.numeric_arcs for a2 in arcs2
             for pt, _ in polyline_intersections(a1, a2)])
        assert len(candidates) == 32
        assert all(src == "arc_arc" and pt.alpha == PI for pt, src in candidates)
        res = search_nonabelian_rep(splice(kl, kl, g), CFG, image1=img, image2=img)
        assert res.found and len(res.diagnostics) == 1
        assert abs(res.boundary_point.alpha - PI) < 1e-9
        assert abs(res.boundary_point.beta - 1.311373) < 1e-6
        assert res.candidates == CandidateCounts(arc_arc=32)

    def test_search_deterministic(self, trefoil_image):
        tre = torus_knot_model(2, 3)
        spliced = splice(tre, tre, GluingMatrix.swap())
        r1 = search_nonabelian_rep(spliced, CFG, image1=trefoil_image,
                                   image2=trefoil_image)
        r2 = search_nonabelian_rep(spliced, CFG, image1=trefoil_image,
                                   image2=trefoil_image)
        assert r1.boundary_point == r2.boundary_point
        assert [q for q in r1.representation.images] == \
            [q for q in r2.representation.images]

    def test_search_path_answer_is_pinned(self, search_images):
        # found, representation, diagnostics and CandidateCounts of every
        # search, both curves with their lifts, both surgeries and every
        # certificate pair
        searches, curves, surgery, certificates = _search_path(*search_images)
        answer = (searches, [(c, c.lifted_vertices()) for c in curves], surgery,
                  certificates)
        assert [r.found for r in searches] == [True, True, True, True, False]
        assert None not in curves and surgery[0] is not None and surgery[1] is None
        assert hashlib.sha256(repr(answer).encode()).hexdigest() == \
            "19ca3e48fc8e14aa1fc247bbdacf3d56dcda4f0126938b50624d01161a390f84"

    def test_search_path_makes_no_distance_scan(self, monkeypatch, search_images):
        # the searches, curves and certificates test their radii with
        # within; a search scans each side's witnesses once for all its
        # candidates, and a surgery its distinct crossings' witnesses once
        def refuse(*_args, **_kwargs):
            raise AssertionError("min_distance_to called")

        scans = []
        scan = PillowcaseImage.nearest_points

        def counting(img, pts, min_gap=-math.inf):
            scans.append(len(pts))
            return scan(img, pts, min_gap)

        monkeypatch.setattr(PillowcasePolyline, "min_distance_to", refuse)
        monkeypatch.setattr(PillowcaseImage, "nearest_points", counting)
        searches, curves, surgery, _ = _search_path(*search_images)
        assert [r.found for r in searches] == [True, True, True, True, False]
        assert None not in curves and surgery[0] is not None and surgery[1] is None
        assert len(scans) == 2 * len(searches) + len(surgery)


_MOTEGI = GluingMatrix(a=-6, b=1, p=37, c=-6)


def _sampled_candidate_points(img1, arcs2_transformed):
    """The candidates as found before exact lines: every arc pair intersected
    as polylines, the reducible lines as their sampled polylines."""
    out = []
    for a1 in img1.arcs:
        for a2 in arcs2_transformed:
            for (pt, trans) in polyline_intersections(a1, a2):
                out.append(pt)
    return distinct_points(out)


class TestExactLineCandidates:
    """Candidates from exact line forms against the sampled line polylines."""

    @pytest.mark.parametrize("name1,name2,gluing,resolution,seed", [
        pytest.param("trefoil", "trefoil", GluingMatrix.swap(), 200, 0, id="swap"),
        pytest.param("trefoil-neg", "trefoil-neg", GluingMatrix.swap(), 200, 0,
                     id="swap-neg"),
        pytest.param("trefoil", "trefoil", GluingMatrix.skew(2), 200, 0, id="skew2"),
        pytest.param("trefoil", "trefoil-neg", GluingMatrix.skew(3), 200, 0, id="skew3"),
        pytest.param("trefoil", "trefoil-neg", _MOTEGI, 200, 0, id="motegi"),
        pytest.param("trefoil", "trefoil", GluingMatrix.swap(), 40, 1, id="swap-r40-seed1"),
        pytest.param("trefoil", "trefoil-neg", _MOTEGI, 400, 0, id="motegi-r400"),
        pytest.param("klein", "trefoil", GluingMatrix.swap(), 80, 0, id="klein-trefoil"),
        pytest.param("klein", "trefoil", GluingMatrix.skew(2), 100, 0,
                     id="klein-trefoil-skew2"),
        pytest.param("trefoil", "klein", GluingMatrix.swap(), 100, 0, id="trefoil-klein"),
    ])
    def test_same_candidates_and_search(self, monkeypatch, name1, name2, gluing,
                                        resolution, seed):
        config = SolverConfig(resolution=resolution, seed=seed)
        img1 = image(builtin_model(name1), resolution, config)
        img2 = image(builtin_model(name2), resolution, config)
        exact = [pt for pt, _ in _candidate_points(img1, img2, gluing)]
        sampled = _sampled_candidate_points(img1, img2.transform_arcs(gluing))
        assert len(exact) == len(sampled) > 0
        for pts, others in ((exact, sampled), (sampled, exact)):
            for pt in pts:
                assert min(pillowcase_distance(pt, q) for q in others) < 1e-9, pt

        spliced = splice(img1.model, img2.model, gluing)
        pairs = []
        intersect = gluer.polyline_intersections
        monkeypatch.setattr(gluer, "polyline_intersections",
                            lambda a1, a2: pairs.append(a1) or intersect(a1, a2))
        res = search_nonabelian_rep(spliced, config, image1=img1, image2=img2)
        # no reducible line is intersected as a polyline
        assert len(pairs) == len(img1.numeric_arcs) * len(img2.numeric_arcs)
        assert all(any(a1 is arc for arc in img1.numeric_arcs) for a1 in pairs)
        monkeypatch.setattr(gluer, "_candidate_points", lambda i1, i2, g: [
            (pt, "arc_arc") for pt in _sampled_candidate_points(i1, i2.transform_arcs(g))])
        ref = search_nonabelian_rep(spliced, config, image1=img1, image2=img2)
        assert (res.found, len(res.diagnostics)) == (ref.found, len(ref.diagnostics))
        if res.found:
            assert pillowcase_distance(res.boundary_point, ref.boundary_point) < 1e-9


def _distinct_row_by_row(points, tol):
    """distinct_points with one pillowcase_distances row per point."""
    xy = np.array([p.as_tuple() for p in points])
    kept = []
    for i, p in enumerate(points):
        d = pillowcase_distances(xy, p)
        if not any(d[j] < tol for j in kept):
            kept.append(i)
    return [points[i] for i in kept]


def _swap_branch_points():
    """All intersections of 6a+b=pi with its swap image on both arcs."""
    out = []
    for big_k in range(1, 7):
        for ell in range(-2, 3):
            if (big_k - 1 + ell) % 2 != 0:
                continue
            alpha = PI * big_k / 7 + PI * ell / 5
            beta = PI * big_k / 7 - PI * ell / 5
            pt = canonicalize(alpha, beta)
            # both sides must land on the open arc alpha in (pi/6, 5pi/6)
            swapped = canonicalize(pt.beta, pt.alpha)
            if PI / 6 < pt.alpha < 5 * PI / 6 and PI / 6 < swapped.alpha < 5 * PI / 6:
                out.append(pt)
    assert out
    return out


class TestSlopeLineCertificates:
    def test_trefoil_p2(self, trefoil_image):
        cert = slope_line_certificates(trefoil_image, 2)
        # the branch 6a+b=pi crosses 2a+b=0 at (pi/4, 3pi/2), (3pi/4, pi/2)
        assert not cert.avoid_zero_line
        expected = [canonicalize(PI / 4, 3 * PI / 2),
                    canonicalize(3 * PI / 4, PI / 2)]
        for target in expected:
            assert min(pillowcase_distance(w, target)
                       for w in cert.zero_line_witnesses) < 1e-6
        assert cert.pi_line_connected
        assert cert.contains_half_pi

    def test_klein_p2(self):
        img = image(klein_bottle_model(), 60, CFG)
        cert = slope_line_certificates(img, 2)
        assert not cert.avoid_zero_line
        # the beta = pi family of diagonal representations crosses the line
        assert min(pillowcase_distance(w, canonicalize(PI / 2, PI))
                   for w in cert.zero_line_witnesses) < 1e-6

    def test_synthetic_full_line(self):
        pts = [(t, PI - 2 * t) for t in
               [i * PI / 80 for i in range(81)]]
        line = polyline(pts)
        img = PillowcaseImage(model=unknot_model(), resolution=80,
                              grid_step=PI / 80, points=(), arcs=(line,))
        cert = slope_line_certificates(img, 2)
        assert cert.pi_line_connected
        assert cert.contains_half_pi
        assert cert.avoid_zero_line


class TestPAvoidingCertificate:
    def test_trefoil_curve_p3(self, trefoil_image):
        curve = extract_essential_curve(trefoil_image)
        report = p_avoiding_certificate(curve, 3)
        assert report.essential != 0
        assert report.avoids_corners
        assert report.meets_beta_zero and report.meets_beta_pi
        # the branch touches 3a+b = 0 mod pi at beta = pi, which disqualifies it
        assert report.disallowed_touches
        assert not report.passes
        for pt in report.touch_points:
            assert pillowcase_distance(pt, canonicalize(pt.alpha, 0.0)) < 1e-6

    def test_vertical_loop_pi_over_3(self):
        loop = polyline([(PI / 3, 0.0), (PI / 3, 2.0), (PI / 3, 4.0)],
                        closed=True)
        report = p_avoiding_certificate(loop, 3)
        assert not report.passes
        assert any(abs(pt.beta - PI) < 1e-9 for pt in report.disallowed_touches)

    def test_generic_vertical_loop_fails_off_axis(self):
        # an essential curve always meets the slope-p lines somewhere; at a
        # generic alpha the touches are away from beta = 0, so it fails
        loop = polyline([(1.1, 0.5), (1.1, 2.5), (1.1, 4.5)], closed=True)
        report = p_avoiding_certificate(loop, 3)
        assert not report.passes
        assert report.disallowed_touches

    def test_trefoil_curve_is_5_avoiding(self, trefoil_image):
        # the trefoil has a lens-space 5-surgery, and indeed its essential
        # curve meets 5a + b = 0 mod pi only at points (k pi/5, 0)
        curve = extract_essential_curve(trefoil_image)
        report = p_avoiding_certificate(curve, 5)
        assert report.passes
        assert report.touch_points
        for pt in report.touch_points:
            assert min(abs(pt.alpha - k * PI / 5) for k in range(1, 5)) < 1e-3

    @staticmethod
    def _count_intersections(monkeypatch):
        calls = []
        intersect = gluer.polyline_intersections
        monkeypatch.setattr(gluer, "polyline_intersections",
                            lambda c1, c2: calls.append(1) or intersect(c1, c2))
        return calls

    @pytest.mark.parametrize("p", [31, 37])
    def test_trefoil_curve_shared_points_transversal(self, trefoil_image, p, monkeypatch):
        # sigma_p of the partner maps its exact lifts, so each shared point
        # (2k pi/p, 0) is seen as the crossing it is; the crossings are
        # found once, at the first shared point, for all of them
        curve = extract_essential_curve(trefoil_image)
        calls = self._count_intersections(monkeypatch)
        report = p_avoiding_certificate(curve, p, partner=curve)
        assert len(report.shared_transversal) > 1
        assert all(trans for _, trans in report.shared_transversal)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_no_shared_point_intersects_nothing(self, search_images, p, monkeypatch):
        # the trefoil and trefoil-neg curves share no (2k pi/p, 0), as on
        # the search path, so no crossing is looked for
        _, images = search_images
        curves = [extract_essential_curve(images[k]) for k in ("tre", "neg")]
        calls = self._count_intersections(monkeypatch)
        report = p_avoiding_certificate(curves[0], p, partner=curves[1])
        assert report.shared_transversal == ()
        assert calls == []

    def test_transversality_at_shared_point(self):
        # two curves through (2pi/3, 0): one flat along beta = 0, one steep
        flat = polyline([(2 * PI / 3 - 0.3, 0.0), (2 * PI / 3 + 0.3, 0.0),
                         (2 * PI / 3 + 0.3, 3.0), (2 * PI / 3 - 0.3, 3.0)],
                        closed=True)
        report = p_avoiding_certificate(flat, 3, partner=flat)
        assert report.shared_transversal
        pt, trans = report.shared_transversal[0]
        assert pillowcase_distance(pt, canonicalize(2 * PI / 3, 0.0)) < 1e-9
        assert trans  # sigma_3 maps the flat arc to slope -3, crossing it

    def test_run_along_the_line_touches_at_every_vertex(self):
        # three segments lie on 3a + b = pi; only the segment scan's
        # parallel rule sees the two inner vertices of the run
        run = [(0.25 * i, PI - 0.75 * i) for i in (1, 2, 3, 4)]
        curve = polyline(run + [(1.6, 0.5), (1.6, 2.6)], closed=True)
        forms = [3 * x + y for x, y in curve.lifted_vertices()[:4]]
        assert max(forms) - min(forms) < 1e-15
        report = p_avoiding_certificate(curve, 3)
        touches = report.touch_points + report.disallowed_touches
        for v in curve.vertices[:4]:
            assert any(pillowcase_distance(pt, v) < 1e-12 for pt in touches), v

    def test_open_curve_rejected(self):
        with pytest.raises(ValueError):
            p_avoiding_certificate(polyline([(1.0, 1.0), (1.2, 1.0)]), 3)
