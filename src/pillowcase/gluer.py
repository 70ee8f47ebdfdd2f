"""Splice two knot exteriors and search for non-abelian representations.

The search transforms one boundary image by the gluing, intersects it with
the other, and refines each intersection candidate by a joint solve of the
amalgamated presentation seeded from the two witnesses.  Numeric arcs meet
numeric arcs as polylines; where a reducible line takes part, its exact
integer form gives the points (a scan of the arc, or integer algebra for
two lines), and its sampled polyline is not intersected.  Certificate
checks test sampled images against the line-avoidance and connectedness
constraints that hold when the relevant Dehn surgeries are as assumed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .geometry import (PillowcasePoint, PillowcasePolyline, _DISTINCT_TOL, _distance_rows,
                       _line_offsets, canonicalize, distance_components, distinct_indices,
                       distinct_points, essential_class, line_crossings, line_offset,
                       pillowcase_distance, polyline_intersections, TWO_PI)
from .presentations import (GluingMatrix, GroupPresentation, KnotExteriorModel,
                            _is_prime, concat, invert_word, pow_word, shift_word)
from .solver import ImagePoint, PillowcaseImage, SolverConfig, refine_representation
from .su2 import (Representation, align_boundary_to_i_axis, boundary_angles,
                  irreducibility_gap, relator_residual)

__all__ = [
    "SplicedManifold", "SpliceSearchResult", "CandidateCounts", "CertificateReport",
    "AvoidingCurveReport", "splice", "search_nonabelian_rep",
    "slope_line_certificates", "p_avoiding_certificate",
]


@dataclass(frozen=True)
class SplicedManifold:
    """Two exteriors glued along their boundary tori.

    The amalgamated presentation takes the generators and relators of both
    sides (side 2 reindexed) plus two peripheral identification relators
    equating mu1, lam1 with the gluing-matrix words in mu2, lam2.
    """

    model1: KnotExteriorModel
    model2: KnotExteriorModel
    gluing: GluingMatrix
    amalgamated: GroupPresentation

    @property
    def side1_generators(self) -> int:
        return self.model1.presentation.generator_count

    def restrict(self, rep: Representation, side: int) -> Representation:
        n1 = self.side1_generators
        if side == 1:
            return rep.restrict(0, n1)
        return rep.restrict(n1, len(rep.images))


def splice(model1: KnotExteriorModel, model2: KnotExteriorModel,
           gluing: GluingMatrix) -> SplicedManifold:
    """Amalgamated presentation of the glued manifold."""
    p1 = model1.presentation
    p2 = model2.presentation
    n1 = p1.generator_count
    mu2 = shift_word(p2.meridian, n1)
    lam2 = shift_word(p2.longitude, n1)
    relators = list(p1.relators)
    relators += [shift_word(r, n1) for r in p2.relators]
    # mu1 = mu2^a lam2^b and lam1 = mu2^p lam2^c (peripheral words commute)
    mu_target = concat(pow_word(mu2, gluing.a), pow_word(lam2, gluing.b))
    lam_target = concat(pow_word(mu2, gluing.p), pow_word(lam2, gluing.c))
    relators.append(concat(p1.meridian, invert_word(mu_target)))
    relators.append(concat(p1.longitude, invert_word(lam_target)))
    amalgamated = GroupPresentation(
        generator_count=n1 + p2.generator_count,
        relators=tuple(relators),
        meridian=p1.meridian,
        longitude=p1.longitude,
    )
    return SplicedManifold(model1=model1, model2=model2, gluing=gluing,
                           amalgamated=amalgamated)


@dataclass(frozen=True)
class CandidateCounts:
    """A search's distinct candidates by source, and those dropped before refining.

    Sources: numeric arcs of both images (arc_arc), a numeric arc and a
    reducible line (arc_line), two reducible lines (line_line); a candidate
    found more than once counts for its first source.  Dropped: both sides
    forced abelian (both_abelian), or no witness near it on a side
    (no_witness).  The rest are refined in order until one succeeds.
    """

    arc_arc: int = 0
    arc_line: int = 0
    line_line: int = 0
    both_abelian: int = 0
    no_witness: int = 0


@dataclass(frozen=True)
class SpliceSearchResult:
    found: bool
    representation: Representation | None = None
    residual: float | None = None
    gap: float | None = None
    gap_side1: float | None = None
    gap_side2: float | None = None
    boundary_point: PillowcasePoint | None = None
    resolution: int = 0
    diagnostics: tuple = ()
    candidates: CandidateCounts = CandidateCounts()


def _candidate_points(img1: PillowcaseImage, img2: PillowcaseImage,
                      gluing: GluingMatrix) -> list[tuple[PillowcasePoint, str]]:
    """(point, source) for each intersection of image 1 with image 2 under the gluing.

    Only image 2's numeric arcs are transformed, and no line polyline is
    intersected: two numeric arcs meet by polyline_intersections
    (arc_arc), a line's form and a numeric arc by LineForm.crossings
    (arc_line), and two forms by LineForm.meet, exactly (line_line); image
    2's forms are transformed.  Pairs come arc of image 1 (numeric, then
    lines) by arc of image 2 (likewise); a hit within _DISTINCT_TOL of an
    earlier one is dropped, as in distinct_points.
    """
    arcs2 = [arc.transformed(gluing.rows()) for arc in img2.numeric_arcs]
    lines2 = [line.transformed(gluing) for line in img2.lines]
    hits = []
    for a1 in img1.numeric_arcs:
        hits += [(pt, "arc_arc") for a2 in arcs2
                 for pt, _ in polyline_intersections(a1, a2)]
        hits += [(pt, "arc_line") for l2 in lines2 for pt in l2.crossings(a1)]
    for l1 in img1.lines:
        hits += [(pt, "arc_line") for a2 in arcs2 for pt in l1.crossings(a2)]
        hits += [(canonicalize(TWO_PI * float(x), TWO_PI * float(y)), "line_line")
                 for l2 in lines2 for x, y in l1.meet(l2)]
    return [hits[i] for i in distinct_indices([pt for pt, _ in hits], _DISTINCT_TOL)]


def _side2_angles(gluing: GluingMatrix, pt: PillowcasePoint) -> tuple[float, float]:
    """Exact angle pair on side 2 mapping to pt under the gluing transform."""
    inv = gluing.inverse().rows()
    return (inv[0][0] * pt.alpha + inv[0][1] * pt.beta,
            inv[1][0] * pt.alpha + inv[1][1] * pt.beta)


def search_nonabelian_rep(spliced: SplicedManifold, config: SolverConfig,
                          image1: PillowcaseImage, image2: PillowcaseImage) -> SpliceSearchResult:
    """Search for a representation of the splice, non-abelian on both sides.

    image1 and image2 are the images of the two models, swept under config.
    Image 2 is pushed through the gluing transform, and every intersection
    with image 1 (_candidate_points; outside the locus where both sides are
    forced abelian, and with a witness near it on each side) seeds a joint
    refinement of the amalgamated presentation.  Success requires residual
    < tol on every relator and an irreducibility gap above min_gap on each
    side's restriction; a result that is not found carries the diagnostics
    of every candidate tried.  Both count the candidates by source and drop
    reason (CandidateCounts).
    """
    g = spliced.gluing
    candidates = _candidate_points(image1, image2, g)

    dropped = Counter()
    live = []
    for pt, _ in candidates:
        gamma, delta = _side2_angles(g, pt)
        beta_zero = line_offset(pt, 0.0, 1.0, 0.0) < 1e-6
        delta_zero = abs(math.remainder(delta, TWO_PI)) < 1e-6
        if beta_zero and delta_zero:
            dropped["both_abelian"] += 1  # both restrictions would be forced abelian
            continue
        live.append((pt, (gamma, delta)))
    recs1 = image1.nearest_witnesses([pt for pt, _ in live])
    recs2 = image2.nearest_witnesses([canonicalize(*angles) for _, angles in live])
    scored = []
    for (pt, angles), rec1, rec2 in zip(live, recs1, recs2):
        if rec1 is None or rec2 is None:
            dropped["no_witness"] += 1
            continue
        scored.append((min(rec1.gap, rec2.gap), pt, angles, rec1, rec2))
    scored.sort(key=lambda item: (-item[0], item[1].alpha, item[1].beta))
    counts = CandidateCounts(**Counter(source for _, source in candidates), **dropped)

    diagnostics = []
    for (_, pt, (gamma, delta), rec1, rec2) in scored:
        seed = _build_seed(spliced, pt, (gamma, delta), rec1, rec2)
        refined = refine_representation(spliced.amalgamated, seed, config)
        entry = {"candidate": pt.as_tuple(), "seed_gaps": (rec1.gap, rec2.gap)}
        if refined is None:
            entry["result"] = "no convergence"
            diagnostics.append(entry)
            continue
        res = relator_residual(refined, spliced.amalgamated)
        gap1 = irreducibility_gap(spliced.restrict(refined, 1))
        gap2 = irreducibility_gap(spliced.restrict(refined, 2))
        entry["result"] = {"residual": res, "gaps": (gap1, gap2)}
        diagnostics.append(entry)
        if res < config.tol and gap1 > config.min_gap and gap2 > config.min_gap:
            bp = boundary_angles(refined, spliced.amalgamated)
            return SpliceSearchResult(
                found=True, representation=refined, residual=res,
                gap=min(gap1, gap2), gap_side1=gap1, gap_side2=gap2,
                boundary_point=bp, resolution=image1.resolution,
                diagnostics=tuple(diagnostics), candidates=counts)
    return SpliceSearchResult(found=False, resolution=image1.resolution,
                              diagnostics=tuple(diagnostics), candidates=counts)


def _build_seed(spliced: SplicedManifold, pt: PillowcasePoint,
                side2_angles: tuple[float, float],
                rec1: ImagePoint, rec2: ImagePoint) -> Representation:
    """Concatenate boundary-aligned witnesses into a joint starting point."""
    p1 = spliced.model1.presentation
    p2 = spliced.model2.presentation
    aligned1 = align_boundary_to_i_axis(rec1.witness, p1, (pt.alpha, pt.beta))
    aligned2 = align_boundary_to_i_axis(rec2.witness, p2, side2_angles)
    return Representation(aligned1.images + aligned2.images)


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class CertificateReport:
    """Sampled-image checks against the slope-p exclusion lines.

    avoid_zero_line: no image point on p*alpha + beta = 0 mod 2pi away from
    beta = 0 (witnesses listed when it fails).  pi_line_connected: the
    intersection with p*alpha + beta = pi mod 2pi forms a single chain at
    the sampling scale.  contains_half_pi: (pi/2, 0) belongs to the image
    (checked for p = 2).  All statements are at the recorded resolution.
    """

    p: int
    resolution: int
    tolerance: float
    avoid_zero_line: bool
    zero_line_witnesses: tuple[PillowcasePoint, ...]
    pi_line_connected: bool
    pi_line_points: tuple[PillowcasePoint, ...]
    pi_line_gap: float
    contains_half_pi: bool | None


def _points_on_line(img: PillowcaseImage, ca: float, cb: float, target: float,
                    tol: float):
    """Image points on the line ca*alpha + cb*beta = target mod 2pi.

    Includes witness points and arc vertices within tol of the line, plus
    interpolated crossings of arc segments (the sampled curve stands in for
    the continuum between witnesses): the points, then per arc its
    vertices and its crossings.  Points and vertices are tested in one
    array pass each (_line_offsets), and points are built for the hits only.
    """
    near = _line_offsets(img._point_arrays[0], ca, cb, target) < tol
    pts = [img.points[i].point for i in np.flatnonzero(near).tolist()]
    for arc in img.arcs:
        verts = arc._vertex_array
        pts += itertools.starmap(PillowcasePoint,
                                 verts[_line_offsets(verts, ca, cb, target) < tol].tolist())
        pts += line_crossings(arc, ca, cb, target)
    return distinct_points(pts)


def slope_line_certificates(img: PillowcaseImage, p: int) -> CertificateReport:
    """Check a sampled image against the slope-p line constraints.

    A point is on a line when it is within max(1e-6, half a grid step) of it.
    """
    tol = max(1e-6, 0.5 * img.grid_step)
    witnesses_kept = [pt for pt in _points_on_line(img, p, 1.0, 0.0, tol)
                      if line_offset(pt, 0.0, 1.0, 0.0) > tol]
    on_pi = _points_on_line(img, p, 1.0, math.pi, tol)
    connected, max_gap = _connected_at_scale(on_pi, 3.0 * img.grid_step)
    half_pi = None
    if p == 2:
        target = canonicalize(math.pi / 2, 0.0)
        half_pi = any(pillowcase_distance(pt, target) < max(tol, img.grid_step)
                      for pt in on_pi)
    return CertificateReport(
        p=p,
        resolution=img.resolution,
        tolerance=tol,
        avoid_zero_line=not witnesses_kept,
        zero_line_witnesses=tuple(witnesses_kept),
        pi_line_connected=connected,
        pi_line_points=tuple(on_pi),
        pi_line_gap=max_gap,
        contains_half_pi=half_pi,
    )


def _connected_at_scale(points, scale: float) -> tuple[bool, float]:
    """Single-chain test: points joined at distance <= scale are connected.

    Otherwise the gap is the least distance from the first point's component.
    """
    if len(points) <= 1:
        return True, 0.0
    component = distance_components(points, math.nextafter(scale, math.inf))[0]
    remaining = set(range(len(points))) - set(component)
    if not remaining:
        return True, 0.0
    xy = np.array([p.as_tuple() for p in points])
    return False, float(_distance_rows(xy[component], xy[sorted(remaining)]).min())


@dataclass(frozen=True)
class AvoidingCurveReport:
    """Checks for a closed curve to qualify as slope-p avoiding.

    The curve must be essential, stay off the corners (0,0) and (pi,0),
    meet both horizontal lines beta = 0 and beta = pi, and touch the lines
    p*alpha + beta = 0 mod pi only at points (k pi/p, 0) with 0 < k < p.
    When a partner curve is supplied, transversality of curve versus
    sigma_p(partner) is checked at the shared points (2k pi/p, 0).
    """

    p: int
    essential: int
    avoids_corners: bool
    meets_beta_zero: bool
    meets_beta_pi: bool
    touch_points: tuple[PillowcasePoint, ...]
    disallowed_touches: tuple[PillowcasePoint, ...]
    passes: bool
    shared_transversal: tuple[tuple[PillowcasePoint, bool], ...] = ()


def p_avoiding_certificate(curve: PillowcasePolyline, p: int,
                           partner: PillowcasePolyline | None = None) -> AvoidingCurveReport:
    """Certify (or refute) that a closed curve is slope-p avoiding, at tolerance 1e-6."""
    tol = 1e-6
    if not curve.closed:
        raise ValueError("certificate needs a closed curve")
    if p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime >= 3")
    ess = essential_class(curve)
    corners = (canonicalize(0.0, 0.0), canonicalize(math.pi, 0.0))
    avoids = not any(curve.within(c, tol) for c in corners)
    meets0 = _meets_line(curve, 0.0, 1.0, 0.0, tol)
    meets_pi = _meets_line(curve, 0.0, 1.0, math.pi, tol)
    touches = _line_touch_points(curve, p)
    allowed, disallowed = [], []
    for pt in touches:
        if line_offset(pt, 0.0, 1.0, 0.0) < tol and _is_allowed_touch(pt, p, tol):
            allowed.append(pt)
        else:
            disallowed.append(pt)
    shared, crossings = [], None
    if partner is not None:
        below = math.nextafter(tol, 0.0)  # d < tol is d <= below
        for k in range(1, (p - 1) // 2 + 1):
            a_k = canonicalize(2 * k * math.pi / p, 0.0)
            if curve.within(a_k, below) and partner.within(a_k, below):
                if crossings is None:
                    image = partner.transformed(((-1, 0), (p, 1)))  # sigma_p, on exact lifts
                    crossings = polyline_intersections(curve, image)
                trans = any(t and pillowcase_distance(pt, a_k) < 10 * tol
                            for (pt, t) in crossings)
                shared.append((a_k, trans))
    passes = (ess != 0 and avoids and meets0 and meets_pi and not disallowed)
    return AvoidingCurveReport(
        p=p, essential=ess, avoids_corners=avoids,
        meets_beta_zero=meets0, meets_beta_pi=meets_pi,
        touch_points=tuple(allowed), disallowed_touches=tuple(disallowed),
        passes=passes, shared_transversal=tuple(shared))


def _meets_line(curve: PillowcasePolyline, ca, cb, target, tol) -> bool:
    """Whether a vertex lies within tol of the line, or a segment crosses it."""
    if (_line_offsets(curve._vertex_array, ca, cb, target) < tol).any():
        return True
    return bool(line_crossings(curve, ca, cb, target))


def _line_touch_points(curve: PillowcasePolyline, p: int):
    """Points of the curve on the lines p*alpha + beta = 0 mod pi."""
    return distinct_points(line_crossings(curve, p, 1, period=math.pi))


def _is_allowed_touch(pt: PillowcasePoint, p: int, tol: float) -> bool:
    for k in range(1, p):
        if pillowcase_distance(pt, canonicalize(k * math.pi / p, 0.0)) < 10 * tol:
            return True
    return False
