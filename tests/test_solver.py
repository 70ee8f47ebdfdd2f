import functools
import hashlib
import itertools
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from pillowcase import geometry, gluer, homology, solver
from pillowcase.families import (builtin_model, klein_bottle_model,
                                 torus_knot_model, unknot_model)
from pillowcase.geometry import (GluingMatrix, LineForm, PillowcasePoint,
                                 PillowcasePolyline, TWO_PI,
                                 apply_integer_matrix, canonicalize,
                                 detailed_intersections, distance_components,
                                 distinct_indices, distinct_points, essential_class,
                                 line_crossings, line_offset,
                                 pillowcase_distance, polyline,
                                 polyline_intersections, tau)
from pillowcase.gluer import splice
from pillowcase.homology import (ModelInvalidError, abelianization, rational_longitude,
                                 smith_normal_form)
from pillowcase.presentations import (GroupPresentation, KnotExteriorModel,
                                      concat, pow_word)
from pillowcase.solver import (ImagePoint, PillowcaseImage, SolverConfig,
                               corner_diagnostics, extract_essential_curve,
                               find_surgery_representation, lift_to_cut_open,
                               sample_pillowcase_image, _components,
                               _distinct_solutions, _eval_batch, _lm_minimize,
                               _chain_points, _line_forms, _line_polyline,
                               _project_endpoint_cuts, _LetterTables, _qstep,
                               _rep_from_params, _relator_residuals, _solve_rows,
                               _word_product, _boundary_points, _gaps, _Workspace)
from pillowcase.su2 import (NonCommutingPeripheralsError, Representation,
                            UnitQuaternion, boundary_angles, evaluate_word,
                            irreducibility_gap, relator_residual)

PI = math.pi
CFG = SolverConfig()


@pytest.fixture(scope="module")
def trefoil_image():
    return sample_pillowcase_image(torus_knot_model(2, 3), 120, CFG)


@pytest.fixture(scope="module")
def klein_image():
    return sample_pillowcase_image(klein_bottle_model(), 60, CFG)


def _sweep(pres, alphas, keys, config):
    """(solution, irreducibility gap) pairs at each meridian angle alphas[i], per node.

    The cold solve of solver._cold_solutions: config.restarts random
    restarts per node, drawn from default_rng([config.seed, keys[i]]), then
    the accept and dedup pass.  Each node's solutions are sorted by
    decreasing gap, then by their conjugation invariants.  The image sweep
    solves only its discovery nodes cold and tracks the rest; run over
    every node, this is the all-node cold reference that tracking is
    tested against.
    """
    return [solver._by_gap(node) for node in solver._cold_solutions(pres, alphas, keys, config)]


def _solve(pres, alpha):
    """The cold solutions at one meridian angle, keyed by round(alpha * 1e9)."""
    return [rep for rep, _ in _sweep(pres, [alpha], [round(alpha * 1e9)], CFG)[0]]


def _lines(model):
    """The polylines of the model's reducible lines."""
    return [line for _, line in _line_forms(model)]


def _near_a_form(pt, forms):
    """The sweep's on-line filter: pt within 1e-6 of a form of _line_forms."""
    return any(form.contains(pt) for form, _ in forms)


class TestSolveAtAngle:
    def test_trefoil_pi_over_3(self):
        tre = torus_knot_model(2, 3)
        sols = _solve(tre.presentation, PI / 3)
        assert sols
        irr = [s for s in sols if irreducibility_gap(s) > 1e-3]
        assert irr
        pt = boundary_angles(irr[0], tre.presentation)
        # on the irreducible branch 6a + b = pi, beta is pi here
        assert pillowcase_distance(pt, canonicalize(PI / 3, PI)) < 1e-7
        assert relator_residual(irr[0], tre.presentation) < CFG.tol

    def test_trefoil_below_branch(self):
        tre = torus_knot_model(2, 3)
        sols = _solve(tre.presentation, PI / 12)
        assert sols
        for s in sols:
            assert irreducibility_gap(s) < 1e-6
            pt = boundary_angles(s, tre.presentation)
            assert line_offset(pt, 0, 1, 0) < 1e-7

    def test_meridian_filling_kills_everything(self):
        tre = torus_knot_model(2, 3)
        for s in _solve(tre.presentation, 0.0):
            assert all(q.dist_to_one() < 1e-6 for q in s.images)

    def test_unknot(self):
        unk = unknot_model()
        sols = _solve(unk.presentation, 1.1)
        assert len(sols) == 1
        pt = boundary_angles(sols[0], unk.presentation)
        assert pillowcase_distance(pt, canonicalize(1.1, 0.0)) < 1e-9


class TestReducibleLines:
    def test_trefoil_line(self):
        lines = _lines(torus_knot_model(2, 3))
        assert len(lines) == 1
        for v in lines[0].vertices:
            assert line_offset(v, 0, 1, 0) < 1e-12

    def test_klein_lines(self):
        lines = _lines(klein_bottle_model())
        offsets = set()
        for line in lines:
            vals = {round(line_offset(v, 0, 1, 0), 6) for v in line.vertices}
            assert len(vals) == 1
            offsets.add(vals.pop())
        assert offsets == {0.0, round(PI, 6)}

    def test_point_image_has_no_lines(self):
        # meridian and longitude both torsion: direction (a, b) = (0, 0)
        pres = GroupPresentation(generator_count=2, relators=((1, 1),),
                                 meridian=(1,), longitude=(1,))
        assert _lines(KnotExteriorModel(name="points", presentation=pres)) == []

    @pytest.mark.parametrize("name", ["trefoil", "trefoil-neg", "klein", "unknot",
                                      "torus:2,5", "torus:3,4"])
    def test_builtin_lines_match_the_probe_dedup(self, name):
        model = builtin_model(name)
        assert repr(_lines(model)) == repr(_probe_dedup_lines(model))

    def test_torsion_lines_are_one_point_set_each(self):
        # <x, y | y^3>, meridian x, longitude y: H1 = Z + Z/3, and the lines
        # beta = 2pi/3 and beta = 4pi/3 are one set under the involution
        pres = GroupPresentation(generator_count=2, relators=((2, 2, 2),),
                                 meridian=(1,), longitude=(2,))
        model = KnotExteriorModel(name="z3", presentation=pres)
        old = _probe_dedup_lines(model)
        assert len(old) == 3 and _point_set_groups(old) == [[0], [1, 2]]
        assert repr(_lines(model)) == repr(old[:2])
        assert [form for form, _ in _line_forms(model)] == \
            [LineForm(0, -1, Fraction(0)), LineForm(0, -1, Fraction(1, 3))]

    def test_random_presentations_one_line_per_point_set(self):
        # the exact key keeps the first line of every point set, in the
        # order of the torsion characters, where the probe key kept some
        # point sets more than once (traversed from another start or the
        # other way round)
        rng = random.Random(5)
        seen = merged = 0
        for _ in range(200):
            n = rng.randint(1, 3)
            pres = GroupPresentation(
                generator_count=n, relators=tuple(_power_word(rng, n, 3) for _ in range(n - 1)),
                meridian=_power_word(rng, n, 2), longitude=_power_word(rng, n, 2))
            model = KnotExteriorModel(name="random", presentation=pres)
            try:
                old = _probe_dedup_lines(model)
            except ValueError:
                continue
            groups = _point_set_groups(old)
            assert repr(_lines(model)) == repr([old[grp[0]] for grp in groups])
            seen += len(old) > 1
            merged += len(groups) < len(old)
        assert seen >= 40 and merged >= 30

    def test_fallback_reads_the_longitude_exponent_sums(self):
        # without one free H1 coordinate, beta = 0 is the line of a longitude
        # whose exponent sums vanish, not of every longitude zero in H1
        def x_squared(longitude):
            return KnotExteriorModel(name="x^2", presentation=GroupPresentation(
                generator_count=1, relators=((1, 1),), meridian=(), longitude=longitude))

        assert [form for form, _ in _line_forms(x_squared(()))] == \
            [LineForm(0, -1, Fraction(0))]
        with pytest.raises(ModelInvalidError):
            _line_forms(x_squared((1, 1)))

    def test_forms_and_lifts_are_pinned(self):
        # the reprs of the forms and each polyline's lift bytes and closed
        # flag, as _line_forms has always given them
        digest = hashlib.sha256()
        for model in _pinned_line_models():
            digest.update(b"model")
            for form, line in _line_forms(model):
                digest.update(repr(form).encode())
                digest.update(np.array(line.lifted_vertices(), dtype=float).tobytes())
                digest.update(b"closed" if line.closed else b"open")
        assert digest.hexdigest() == \
            "04d1681c9c7c95e9bb92abe3f7affc7c0bc897451ffe602de29b886cf5c891a1"

    def test_lines_are_the_rational_longitude(self):
        # wherever both are defined, every line is x*alpha + y*beta = 2pi*j/order
        # for the rational longitude ((x, y), order), once for each 0 <= j <= order/2
        rng = random.Random(11)
        models = _pinned_line_models()
        for _ in range(400):
            n = rng.randint(1, 3)
            models.append(KnotExteriorModel(name="random", presentation=GroupPresentation(
                generator_count=n,
                relators=tuple(_power_word(rng, n, 3) for _ in range(rng.randint(0, n))),
                meridian=_power_word(rng, n, 2), longitude=_power_word(rng, n, 2))))
        checked = torsion = 0
        for model in models:
            try:
                forms = [form for form, _ in _line_forms(model)]
                (x, y), order = rational_longitude(model)
            except ModelInvalidError:
                continue
            assert all((form.ca, form.cb) in ((x, y), (-x, -y)) for form in forms), model
            assert sorted(form.offset for form in forms) == \
                [Fraction(j, order) for j in range(order // 2 + 1)], model
            checked += 1
            torsion += order > 1
        assert checked >= 200 and torsion >= 25


def _z3_model():
    """<x, y | [x, y], y^3>, meridian x, longitude y: H1 = Z + Z/3, the longitude of order 3."""
    return KnotExteriorModel(name="z3", presentation=GroupPresentation(
        generator_count=2, relators=((1, 2, -1, -2), (2, 2, 2)), meridian=(1,), longitude=(2,)))


def _pinned_line_models():
    """The built-in models, T(p, q) for 2 <= |p| <= 7 and 2 <= q <= 8, the slanted and Z/3 models."""
    torus = [torus_knot_model(s * p, q) for p in range(2, 8) for s in (1, -1)
             for q in range(2, 9) if math.gcd(p, q) == 1]
    return ([builtin_model(n) for n in ("trefoil", "trefoil-neg", "klein", "unknot")]
            + torus + _slanted_models() + [_z3_model()])


def _power_word(rng, n, runs):
    """A random word of 1 to runs letter powers, each of exponent 1 to 4."""
    word = ()
    for _ in range(rng.randint(1, runs)):
        word += (rng.choice([1, -1]) * rng.randint(1, n),) * rng.randint(1, 4)
    return word


def _probe_dedup_lines(model):
    """Reference: the reducible lines deduplicated on four probe points
    rounded to 9 digits, which keeps a point set twice when its two lines
    start at different points or run opposite ways."""
    pres = model.presentation
    g = pres.generator_count
    ab = abelianization(pres)
    E = [[ab.matrix.entries[i][j] for i in range(g)] for j in range(ab.matrix.cols)] or [[0] * g]
    D, _, V = smith_normal_form(E)
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    torsion_idx = [i for i, d in enumerate(diag) if d >= 2]
    free_idx = [i for i in range(g) if i >= len(diag) or diag[i] == 0]
    mu_psi = [sum(ab.meridian_class[i] * V[i][j] for i in range(g)) for j in range(g)]
    lam_psi = [sum(ab.longitude_class[i] * V[i][j] for i in range(g)) for j in range(g)]
    if len(free_idx) != 1:
        if all(v == 0 for v in ab.longitude_class):
            return [_line_polyline(1, 0, 0.0, 0.0)]
        raise ValueError("model does not have a single free H1 coordinate")
    a, b = mu_psi[free_idx[0]], lam_psi[free_idx[0]]
    if a == 0 and b == 0:
        return []
    lines, seen = [], set()
    for combo in itertools.product(*[range(diag[i]) for i in torsion_idx]):
        c_mu = sum(mu_psi[torsion_idx[t]] * (TWO_PI * k / diag[torsion_idx[t]])
                   for t, k in enumerate(combo))
        c_lam = sum(lam_psi[torsion_idx[t]] * (TWO_PI * k / diag[torsion_idx[t]])
                    for t, k in enumerate(combo))
        key = tuple((round(x, 9), round(y, 9)) for x, y in (
            canonicalize(a * t + c_mu, b * t + c_lam).as_tuple() for t in (0.0, 1.0, 2.0, 3.0)))
        if key not in seen:
            seen.add(key)
            lines.append(_line_polyline(a, b, c_mu, c_lam))
    return lines


def _point_set_groups(lines):
    """Indices of lines grouped by point set, groups in order of their first line.

    The lines of one model share a direction, so two of them are one set
    iff a few vertices of the one lie within 1e-9 of the other.
    """
    groups = []
    for k, line in enumerate(lines):
        probes = line.vertices[::max(1, len(line) // 3)]
        for grp in groups:
            if all(lines[grp[0]].min_distance_to(v) < 1e-9 for v in probes):
                grp.append(k)
                break
        else:
            groups.append([k])
    return groups


def _sampled_line_vertices(a, b, c_mu, c_lam):
    """A line's vertices as canonical samples, consecutive repeats dropped."""
    ts = np.linspace(0.0, TWO_PI, 96 * max(abs(a), abs(b), 1), endpoint=False)
    samples = [canonicalize(a * t + c_mu, b * t + c_lam) for t in ts]
    kept = [samples[0]]
    for pt in samples[1:]:
        if pillowcase_distance(kept[-1], pt) > 1e-12:
            kept.append(pt)
    return tuple(kept)


def _wrapping_curves(rng, k):
    """Random walks over several periods and across the folds, open and closed."""
    out = []
    for i in range(k):
        n = int(rng.integers(3, 40))
        steps = rng.normal(size=(n, 2)) * rng.choice([0.05, 0.5, 1.5], size=(n, 1))
        pts = rng.uniform(-2 * PI, 2 * PI, size=2) + np.cumsum(steps, axis=0)
        out.append(polyline([tuple(p) for p in pts], closed=bool(i % 2)))
    return out


def _random_gluings(rng, k):
    """k gluing matrices (determinant -1) with entries in [-40, 40]."""
    m = rng.integers(-40, 41, size=(200_000, 4))
    m = m[m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2] == -1][:k]
    assert len(m) == k
    return [GluingMatrix(*map(int, row)) for row in m]


class TestExactLifts:
    def test_transform_acts_on_lifts(self):
        rng = np.random.default_rng(61)
        curves = tuple(_wrapping_curves(rng, 24)) + tuple(_lines(builtin_model("klein")))
        img = PillowcaseImage(model=unknot_model(), resolution=8, grid_step=0.8 / 8,
                              points=(), arcs=curves)
        gluings = [GluingMatrix.swap(), GluingMatrix.skew(3),
                   GluingMatrix(-6, 1, 37, -6)] + _random_gluings(rng, 30)
        for g in gluings:
            (a, b), (p, c) = g.rows()
            norm = math.hypot(a, b, p, c)
            for src, out in zip(curves, img.transform_arcs(g), strict=True):
                assert out.closed == src.closed
                assert out.segment_count() == src.segment_count()
                assert repr(out.lifted_vertices()) == repr(
                    [(a * x + b * y, p * x + c * y) for x, y in src.lifted_vertices()])
                for (s1, s2), (t1, t2) in zip(src.lifted_segments(), out.lifted_segments()):
                    vx, vy = s2[0] - s1[0], s2[1] - s1[1]
                    err = math.hypot(t2[0] - t1[0] - (a * vx + b * vy),
                                     t2[1] - t1[1] - (p * vx + c * vy))
                    assert err <= 1e-9 * (1.0 + norm * math.hypot(vx, vy))
                for v, w in zip(src.vertices, out.vertices):
                    assert pillowcase_distance(w, apply_integer_matrix(g.rows(), v)) < 1e-9

    @pytest.mark.parametrize("name,counts", [
        ("trefoil", [96]), ("trefoil-neg", [96]), ("klein", [192, 192]), ("unknot", [96])])
    def test_reducible_lines_on_exact_lifts(self, name, counts):
        lines = _lines(builtin_model(name))
        assert [len(line) for line in lines] == counts
        for line in lines:
            lifts = line.lifted_vertices()
            (x0, y0), (x1, y1) = lifts[0], lifts[-1]
            a, b = round((x1 - x0) / TWO_PI), round((y1 - y0) / TWO_PI)
            ts = np.linspace(0.0, TWO_PI, 96 * max(abs(a), abs(b), 1) + 1).tolist()
            assert line.closed and len(lifts) == len(ts)
            assert repr(lifts) == repr([(a * t + x0, b * t + y0) for t in ts])
            assert repr(line.vertices) == repr(_sampled_line_vertices(a, b, x0, y0))


def _slanted_models():
    """Models whose reducible lines are not horizontal, with and without torsion."""
    specs = [(1, (), (1,), (1, 1)), (1, (), (1, 1), (1, 1, 1)),
             (2, ((2, 2),), (1, 1, 2), (1, 1, 1, 1)), (2, ((2, 2, 2),), (1, 1, 2), (-1, 2, 2))]
    return [KnotExteriorModel(name="slanted", presentation=GroupPresentation(
        generator_count=n, relators=rels, meridian=mu, longitude=lam))
        for n, rels, mu, lam in specs]


class TestOnLineFilter:
    """The linear-form on-line test against the polyline distance it replaced."""

    @staticmethod
    def _near_a_polyline(pt, lines):
        return any(line.min_distance_to(pt) < 1e-6 for line in lines)

    def test_witness_verdicts(self, trefoil_image, klein_image):
        neg_image = sample_pillowcase_image(torus_knot_model(-2, 3), 60, CFG)
        for img in (trefoil_image, neg_image, klein_image):
            forms = _line_forms(img.model)
            lines = [line for _, line in forms]
            verdicts = [_near_a_form(r.point, forms) for r in img.points]
            assert verdicts == [self._near_a_polyline(r.point, lines) for r in img.points]
            assert any(verdicts) and not all(verdicts)

    def test_verdicts_at_the_threshold(self):
        # points offset perpendicular to a line by 1e-6 (1 -+ 1e-6), both sides
        models = [builtin_model(n) for n in ("trefoil", "trefoil-neg", "klein", "unknot")]
        for model in models + _slanted_models():
            forms = _line_forms(model)
            lines = [line for _, line in forms]
            for form, line in forms:
                ca, cb = form.ca, form.cb
                nx, ny = ca / math.hypot(ca, cb), cb / math.hypot(ca, cb)
                for x, y in line.lifted_vertices()[::3]:
                    for d in (1e-6 * (1 - 1e-6), -1e-6 * (1 - 1e-6),
                              1e-6 * (1 + 1e-6), -1e-6 * (1 + 1e-6)):
                        pt = canonicalize(x + d * nx, y + d * ny)
                        near = abs(d) < 1e-6
                        assert _near_a_form(pt, forms) == near, (model, pt, d)
                        assert self._near_a_polyline(pt, lines) == near, (model, pt, d)

    def test_sweep_reads_the_exact_forms(self, monkeypatch):
        # one Smith elimination per sweep, and no polyline distance scan
        calls = []
        eliminate = homology._smith_eliminate
        monkeypatch.setattr(homology, "_smith_eliminate",
                            lambda *a, **k: calls.append(1) or eliminate(*a, **k))

        def refuse(*_):
            raise AssertionError("min_distance_to called")
        monkeypatch.setattr(PillowcasePolyline, "min_distance_to", refuse)
        img = sample_pillowcase_image(klein_bottle_model(), 20, CFG)
        assert calls == [1] and len(img.arcs) > 2


class TestSweep:
    def test_trefoil_irreducibles_on_line(self, trefoil_image):
        img = trefoil_image
        irr = img.irreducible_points()
        assert len(irr) > 50
        for rec in irr:
            assert line_offset(rec.point, 6, 1, PI) < 1e-6
            assert PI / 6 - 0.02 < rec.point.alpha < 5 * PI / 6 + 0.02

    def test_nonzero_beta_implies_irreducible(self, trefoil_image):
        for rec in trefoil_image.points:
            if line_offset(rec.point, 0, 1, 0) > 1e-6:
                assert rec.gap > 0

    def test_image_tau_invariant(self, trefoil_image):
        img = trefoil_image
        pts = [rec.point for rec in img.irreducible_points()]
        for pt in pts:
            image = tau(pt)
            assert min(pillowcase_distance(image, q) for q in pts) < 2 * img.grid_step

    def test_central_character_shifts_by_tau(self, trefoil_image):
        tre = torus_knot_model(2, 3)
        n = tre.presentation.generator_count
        # the character sends a generator g to (-1)^{[g]} with [u]=3, [v]=2
        signs = [(-1) ** 3, (-1) ** 2]
        rec = trefoil_image.irreducible_points()[5]
        twisted = Representation(tuple(
            UnitQuaternion(s * q.w, s * q.x, s * q.y, s * q.z)
            for s, q in zip(signs, rec.witness.images)))
        assert relator_residual(twisted, tre.presentation) < 1e-8
        pt = boundary_angles(twisted, tre.presentation)
        assert pillowcase_distance(pt, tau(rec.point)) < 1e-7

    def test_klein_irreducibles_on_edge(self, klein_image):
        irr = klein_image.irreducible_points()
        assert irr
        for rec in irr:
            assert abs(rec.point.alpha - PI) < 1e-6

    def test_klein_contains_central_points(self, klein_image):
        pts = [rec.point for rec in klein_image.points]
        for target in (canonicalize(0.0, 0.0), canonicalize(0.0, PI)):
            assert min(pillowcase_distance(target, q) for q in pts) < 1e-6

    def test_unknot_image(self):
        img = sample_pillowcase_image(unknot_model(), 40, CFG)
        assert len(img.arcs) == 1
        for rec in img.points:
            assert line_offset(rec.point, 0, 1, 0) < 1e-9

    def test_witness_residuals(self, trefoil_image):
        tre = torus_knot_model(2, 3)
        for rec in trefoil_image.points[::7]:
            assert relator_residual(rec.witness, tre.presentation) < CFG.tol

    def test_torus_2_5_finds_both_branches(self):
        # two irreducible families (v-angle pi/5 and 3pi/5) share the
        # pillowcase line 10a + b = pi; the restarts must reach both basins
        model = torus_knot_model(2, 5)
        img = sample_pillowcase_image(model, 60, CFG)
        irr = img.irreducible_points()
        assert irr
        for rec in irr:
            assert line_offset(rec.point, 10, 1, PI) < 1e-6
        mid = [r for r in irr if abs(r.point.alpha - PI / 2) < 0.05]
        traces = {round(r.witness.images[1].w, 2) for r in mid}
        assert round(math.cos(PI / 5), 2) in traces
        assert round(math.cos(3 * PI / 5), 2) in traces


class TestLift:
    def test_trefoil_lifts(self, trefoil_image):
        assert lift_to_cut_open(trefoil_image).ok

    def test_klein_fails_with_witnesses(self, klein_image):
        res = lift_to_cut_open(klein_image)
        assert not res.ok
        assert any(abs(v.point.alpha - PI) < 1e-6 and v.point.beta > 1e-3
                   for v in res.violations)

    def test_line_alone_lifts(self):
        img = sample_pillowcase_image(unknot_model(), 30, CFG)
        assert lift_to_cut_open(img).ok


class TestEssentialCurve:
    def test_trefoil(self, trefoil_image):
        curve = extract_essential_curve(trefoil_image)
        assert curve is not None
        assert abs(essential_class(curve)) == 1
        # passes through (pi/2, 0) where the branch crosses beta = 0
        assert curve.min_distance_to(canonicalize(PI / 2, 0.0)) < 1e-3

    def test_unknot_none(self):
        img = sample_pillowcase_image(unknot_model(), 30, CFG)
        assert extract_essential_curve(img) is None

    def test_synthetic_loop(self):
        loop = polyline([(PI / 2, 0.0), (PI / 2, 1.5), (PI / 2, 3.0),
                         (PI / 2, 4.5)], closed=True)
        img = PillowcaseImage(model=unknot_model(), resolution=8,
                              grid_step=0.8 / 8, points=(), arcs=(loop,))
        found = extract_essential_curve(img)
        assert found is not None and abs(essential_class(found)) == 1

    def test_candidates_are_pinned(self, monkeypatch):
        # every curve extract_essential_curve hands to essential_class (its
        # repr, lift bytes, and class or exception type), and the curve it
        # returns, as they have always been
        images = [(key, _cached_image(*key)) for key in itertools.product(
            ("trefoil", "trefoil-neg", "klein", "torus:2,5", "torus:3,4"), (60, 100), (0, 1))]
        digest = hashlib.sha256()

        def recording_class(curve):
            digest.update(repr(curve).encode())
            digest.update(np.array(curve.lifted_vertices(), dtype=float).tobytes())
            try:
                cls = essential_class(curve)
            except Exception as exc:
                digest.update(type(exc).__name__.encode())
                raise
            digest.update(repr(cls).encode())
            return cls

        monkeypatch.setattr(solver, "essential_class", recording_class)
        for key, img in images:
            digest.update(repr(key).encode())
            digest.update(repr(extract_essential_curve(img)).encode())
        assert digest.hexdigest() == \
            "29fd9715763687a2f5667ca9cbe2ae9dfdf1e57c243719e2c82ea03813dc92b5"


@functools.lru_cache(maxsize=None)
def _cached_image(name, resolution, seed):
    return sample_pillowcase_image(builtin_model(name), resolution,
                                   SolverConfig(resolution=resolution, seed=seed))


_NODES = {0: (0.5, 1.0), 1: (1.0, 1.0), 2: (1.5, 1.2), 3: (2.0, 1.5), 4: (0.6, 2.0),
          5: (1.2, 2.6), 6: (2.1, 2.4), 7: (2.5, 4.0), 8: (2.8, 4.6)}


def _edge(u, v, *via, start=None, end=None):
    """A graph edge (u, v, piece): the piece runs from node u through via to node v."""
    return (u, v, polyline([start or _NODES[u], *via, end or _NODES[v]]))


def _cycle_walk(n_nodes, edges):
    """The closed polylines of extract_essential_curve's cycle walk, in order."""
    return list(solver._cycle_polylines(n_nodes, edges))


class TestCycleWalk:
    """The fundamental cycles of hand-built graphs, pinned to the closed
    polylines they have always given.

    Each case is (node count, edges, vertices of each closed polyline); the
    floats are the repr of the canonical vertices, so a match is bit for bit.
    """

    CASES = {
        # a self-loop is its piece, closed, as it is: the repeated end vertex
        # stays, and so does a loop of two vertices
        "self_loops": (1, [_edge(0, 0, (0.8, 1.5), (0.3, 1.4)),
                           _edge(0, 0, end=(0.5 + 5e-8, 1.0))], [
            [(0.5, 1.0), (0.8, 1.5), (0.3, 1.4), (0.5, 1.0)],
            [(0.5, 1.0), (0.50000005, 1.0)]]),
        # edge 0 is the forest; each other edge is walked from its u, the
        # stored (1, 0) included, and the closing repeat of the start is dropped
        "parallel": (2, [_edge(0, 1, (0.75, 0.8)), _edge(1, 0, (0.75, 1.3)),
                         _edge(0, 1, (0.75, 1.6))], [
            [(1.0, 1.0), (0.75, 1.3), (0.5, 1.0), (0.75, 0.8)],
            [(0.5, 1.0), (0.75, 1.6), (1.0, 1.0), (0.75, 0.8)]]),
        # two trees, rooted at 0 and 7; forest edges stored child first are
        # walked reversed; ends 3e-7 apart join at one vertex, 2e-6 apart at two
        "deep_forest": (9, [_edge(0, 1), _edge(2, 1, (1.2, 0.9)), _edge(2, 3),
                            _edge(0, 4, (0.4, 1.5)), _edge(5, 4),
                            _edge(3, 5, (1.7, 2.2), end=(1.2 + 3e-7, 2.6)), _edge(5, 6),
                            _edge(6, 3, (2.3, 2.0), start=(2.1 + 2e-6, 2.4)),
                            _edge(7, 8, (2.7, 4.2)), _edge(8, 7, (2.6, 4.5))], [
            [(2.0, 1.5), (1.7, 2.2), (1.2000003, 2.6), (0.6, 2.0), (0.4, 1.5), (0.5, 1.0),
             (1.0, 1.0), (1.2, 0.9), (1.5, 1.2)],
            [(2.100002, 2.4), (2.3, 2.0), (2.0, 1.5), (1.5, 1.2), (1.2, 0.9), (1.0, 1.0),
             (0.5, 1.0), (0.4, 1.5), (0.6, 2.0), (1.2, 2.6), (2.1, 2.4)],
            [(2.8, 4.6), (2.6, 4.5), (2.5, 4.0), (2.7, 4.2)]]),
        # two straight edges between the same nodes walk to (0, 1, 0); with the
        # closing repeat dropped two vertices are left, and the walk gives nothing
        "below_three": (2, [_edge(0, 1), _edge(0, 1)], []),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_cycles(self, name):
        n_nodes, edges, expected = self.CASES[name]
        want = [PillowcasePolyline(tuple(PillowcasePoint(*v) for v in cyc), closed=True)
                for cyc in expected]
        assert repr(_cycle_walk(n_nodes, edges)) == repr(want)


_OPEN = [(0.3, 0.4), (1.1, 0.9), (2.0, 1.5), (2.6, 2.4)]
_NEAR = [(0.3, 0.4), (1.1, 0.9), (1.1 + 4e-13, 0.9), (2.0, 1.5)]
_DRIFT = [(0.3, 0.4), (1.1, 0.9), (1.1 + 7e-13, 0.9), (1.1 + 1.4e-12, 0.9), (2.0, 1.5)]


class TestSplitPolyline:
    """_split_polyline and _drop_repeats, pinned to the pieces they have always given.

    Each case is (curve, cuts, vertices of each piece); the floats are the
    repr of the pieces' canonical vertices, so a match is bit for bit.
    """

    CASES = {
        # (0, 1.0) and (1, 0.0) are one cut at vertex 1
        "vertex_and_mid": (polyline(_OPEN), [(1, 0.0), (0, 1.0), (2, 0.5)], [
            [(0.3, 0.4), (1.1, 0.9)],
            [(1.1, 0.9), (2.0, 1.5), (2.3, 1.95)],
            [(2.3, 1.95), (2.6, 2.4)]]),
        # 5e-10 apart is one cut, 2e-9 apart two; 5e-10 from a vertex snaps to it
        "cuts_within_1e-9": (polyline(_OPEN), [(0, 0.4), (0, 0.4 + 5e-10), (1, 0.3),
                                               (1, 0.3 + 2e-9), (0, 1 - 5e-10)], [
            [(0.3, 0.4), (0.6200000000000001, 0.6000000000000001)],
            [(0.6200000000000001, 0.6000000000000001), (1.1, 0.9)],
            [(1.1, 0.9), (1.37, 1.08)],
            [(1.37, 1.08), (1.3700000018, 1.0800000012)],
            [(1.3700000018, 1.0800000012), (2.0, 1.5), (2.6, 2.4)]]),
        # t is clamped to [0, 1], and the parameter to [0, segments]
        "clamped": (polyline(_OPEN), [(1, -0.5), (1, 1.7), (3, 0.5), (-1, 0.5)], [
            [(0.3, 0.4), (1.1, 0.9)],
            [(1.1, 0.9), (2.0, 1.5)],
            [(2.0, 1.5), (2.6, 2.4)]]),
        # segment 3 closes the curve; the last piece ends on the first vertex's lift
        "closed": (polyline(_OPEN, closed=True), [(0, 0.5), (3, 0.25)], [
            [(0.3, 0.4), (0.7, 0.65)],
            [(0.7, 0.65), (1.1, 0.9), (2.0, 1.5), (2.6, 2.4), (2.025, 1.9)],
            [(2.025, 1.9), (0.2999999999999998, 0.3999999999999999)]]),
        # stations within 1e-12 of the last one kept are dropped, and the piece
        # [1, 1.5] keeps one vertex, so it is no piece
        "near_stations": (polyline(_NEAR), [(1, 0.5), (2, 0.5)], [
            [(0.3, 0.4), (1.1, 0.9)],
            [(1.1000000000002, 0.9), (1.5500000000002, 1.2)],
            [(1.5500000000002, 1.2), (2.0, 1.5)]]),
        # 7e-13 steps: the second is dropped, the third is 1.4e-12 from the first
        "drift": (polyline(_DRIFT), [(0, 0.5)], [
            [(0.3, 0.4), (0.7, 0.65)],
            [(0.7, 0.65), (1.1, 0.9), (1.1000000000014, 0.9), (2.0, 1.5)]]),
        # the piece between vertices 1 and 2, 4e-13 apart, is left with one vertex
        "short_piece": (polyline(_NEAR), [(1, 0.0), (2, 0.0)], [
            [(0.3, 0.4), (1.1, 0.9)],
            [(1.1000000000004, 0.9), (2.0, 1.5)]]),
        # long from_lifts segments: stations wrap and fold when canonicalized
        "wrapping": (PillowcasePolyline.from_lifts([(0.5, 0.5), (0.5 + 3 * TWO_PI - 0.2, 0.7),
                                                    (-2.0, 7.0)]),
                     [(0, 0.5), (0, 0.25), (1, 0.75)], [
            [(0.5, 0.5), (1.1207963267948964, 5.733185307179586)],
            [(1.1207963267948964, 5.733185307179586), (2.7415926535897928, 5.683185307179587)],
            [(2.7415926535897928, 5.683185307179587), (0.3000000000000007, 0.7),
             (2.9957963267948955, 0.8581853071795864)],
            [(2.9957963267948955, 0.8581853071795864), (2.0, 5.5663706143591725)]]),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_pieces(self, name):
        curve, cuts, expected = self.CASES[name]
        want = [PillowcasePolyline(tuple(PillowcasePoint(*v) for v in piece))
                for piece in expected]
        assert repr(solver._split_polyline(curve, cuts)) == repr(want)

    def test_drop_repeats_compares_with_the_last_point_kept(self):
        pts = [canonicalize(1.0, 2.0), canonicalize(1.0 + 7e-13, 2.0),
               canonicalize(1.0 + 1.4e-12, 2.0), canonicalize(1.5, 2.0), canonicalize(1.5, 2.0),
               canonicalize(-1.5, -2.0 + TWO_PI), canonicalize(0.0, 2.0),
               canonicalize(0.0, TWO_PI - 2.0), canonicalize(0.0, 2.0 + 9e-13)]
        xy = np.array([p.as_tuple() for p in pts])
        kept = [pts[i] for i in solver._drop_repeats(xy, geometry._step_distances(xy))]
        assert repr(kept) == repr([PillowcasePoint(1.0, 2.0), PillowcasePoint(1.0000000000014, 2.0),
                                   PillowcasePoint(1.5, 2.0), PillowcasePoint(0.0, 2.0)])


def _surgery_reference(img, p, q, config):
    """find_surgery_representation scanning lazily, one raw crossing at a time, repeats too."""
    pres = img.model.presentation
    filled = pres.with_relator(concat(pow_word(pres.meridian, p), pow_word(pres.longitude, q)))
    for pt in [pt for arc in img.arcs for pt in line_crossings(arc, p, q)]:
        witness = img.nearest_witnesses([pt], solver.IRREDUCIBLE_GAP)[0]
        if witness is None:
            continue
        refined = solver.refine_representation(filled, witness.witness, config)
        if refined is None:
            continue
        gap = irreducibility_gap(refined)
        res = relator_residual(refined, filled)
        if res < config.tol and gap > solver.IRREDUCIBLE_GAP:
            return refined, boundary_angles(refined, pres)
    return None


class TestSurgery:
    def test_trefoil_1_1(self, trefoil_image):
        res = find_surgery_representation(trefoil_image, 1, 1, CFG)
        assert res is not None
        rep, pt = res
        tre = torus_knot_model(2, 3)
        from pillowcase.presentations import concat, pow_word
        filled = tre.presentation.with_relator(
            concat(pow_word(tre.presentation.meridian, 1),
                   pow_word(tre.presentation.longitude, 1)))
        assert relator_residual(rep, filled) < 1e-8
        assert min(abs(pt.alpha - PI / 5), abs(pt.alpha - 3 * PI / 5)) < 1e-6
        assert irreducibility_gap(rep) > 0.1

    def test_trefoil_1_0_none(self, trefoil_image):
        assert find_surgery_representation(trefoil_image, 1, 0, CFG) is None

    def test_slope_0_1_hits_beta_zero(self, trefoil_image):
        res = find_surgery_representation(trefoil_image, 0, 1, CFG)
        assert res is not None
        rep, pt = res
        assert line_offset(pt, 0, 1, 0) < 1e-6

    def test_invalid_slope(self, trefoil_image):
        with pytest.raises(ValueError):
            find_surgery_representation(trefoil_image, 2, 4, CFG)

    @pytest.mark.parametrize("name, p, q", [("trefoil", 1, 1), ("trefoil", 1, 0),
                                            ("trefoil", 0, 1), ("klein", 0, 1)])
    def test_repeated_crossings_scanned_once(self, request, monkeypatch, name, p, q):
        # the distinct crossings, in crossing order, get their witnesses from
        # one nearest_points call; the answer is the lazy scan's
        img = request.getfixturevalue(f"{name}_image")
        expected = _surgery_reference(img, p, q, CFG)
        calls = []
        scan = PillowcaseImage.nearest_points

        def counting(img, pts, min_gap=-math.inf):
            calls.append((list(pts), min_gap))
            return scan(img, pts, min_gap)

        monkeypatch.setattr(PillowcaseImage, "nearest_points", counting)
        assert repr(find_surgery_representation(img, p, q, CFG)) == repr(expected)
        raw = [pt for arc in img.arcs for pt in line_crossings(arc, p, q)]
        distinct = list(dict.fromkeys(raw))
        assert calls == [(distinct, solver.IRREDUCIBLE_GAP)]

    def test_filling_line_crossings_are_line_crossings(self, klein_image):
        # offset 0 gives one target sign and target 0.0: the scan's hits
        images = [sample_pillowcase_image(torus_knot_model(2, 3), 60, CFG),
                  sample_pillowcase_image(torus_knot_model(-2, 3), 60, CFG), klein_image]
        slopes = [(1, 1), (1, 0), (0, 1), (1, -1), (2, 1), (1, 2), (3, -2), (37, -6)]
        hits = 0
        for img in images:
            for p, q in slopes:
                form = LineForm(p, q, Fraction(0))
                for arc in img.arcs:
                    got = form.crossings(arc)
                    assert repr(got) == repr(line_crossings(arc, p, q))
                    hits += len(got)
        assert hits > 1000

    def test_nearest_point(self):
        rep = Representation((UnitQuaternion(1.0, 0.0, 0.0, 0.0),))
        recs = [ImagePoint(canonicalize(1.0, 1.0 + d), rep, gap)
                for d, gap in ((0.25, 0.5), (0.125, 0.0), (-0.125, 0.2), (0.125, 0.2))]
        img = PillowcaseImage(model=unknot_model(), resolution=8, grid_step=0.8 / 8,
                              points=tuple(recs), arcs=())
        pt = canonicalize(1.0, 1.0)
        # the first of equally near points wins; gap <= min_gap is skipped
        [(rec, d)] = img.nearest_points([pt])
        assert rec is recs[1] and d == pillowcase_distance(recs[1].point, pt)
        assert img.nearest_points([pt], min_gap=0.0)[0][0] is recs[2]
        assert img.nearest_points([pt], min_gap=0.2)[0][0] is recs[0]
        assert img.nearest_points([pt], min_gap=0.5) == [(None, math.inf)]
        # a batch answers each of its points as it would alone, ties and gates kept
        batch = [pt, recs[3].point, canonicalize(1.0, 0.5), pt]
        for min_gap in (-math.inf, 0.0, 0.2, 0.5):
            got = img.nearest_points(batch, min_gap)
            want = [img.nearest_points([q], min_gap)[0] for q in batch]
            assert [d for _, d in got] == [d for _, d in want]
            assert all(a is b for (a, _), (b, _) in zip(got, want))
            assert img.nearest_points([], min_gap) == []
        assert img.nearest_points(batch)[1][0] is recs[1]

    def test_nearest_witness_gate(self):
        # the witness sits exactly 0.5 from the query: within 2t at t = 0.25,
        # and outside it at the next float below
        rep = Representation((UnitQuaternion(1.0, 0.0, 0.0, 0.0),))
        rec = ImagePoint(canonicalize(1.0, 1.0), rep, 0.2)
        pt = canonicalize(1.0, 1.5)
        assert pillowcase_distance(rec.point, pt) == 0.5

        def image(t):
            # chain_threshold is 8 grid steps, and t / 8 is exact
            return PillowcaseImage(model=unknot_model(), resolution=8, grid_step=t / 8,
                                   points=(rec,), arcs=())

        assert image(0.25).nearest_witnesses([pt]) == [rec]
        assert image(0.25).nearest_witnesses([pt], min_gap=0.1) == [rec]
        assert image(0.25).nearest_witnesses([pt], min_gap=0.2) == [None]
        assert image(math.nextafter(0.25, 0.0)).nearest_witnesses([pt]) == [None]
        assert image(0.25).nearest_witnesses([canonicalize(1.0, 1.0)]) == [rec]
        assert image(0.25).chain_threshold == 0.25
        empty = PillowcaseImage(model=unknot_model(), resolution=8, grid_step=0.25 / 8,
                                points=(), arcs=())
        assert empty.nearest_witnesses([pt]) == [None]
        # a batch gates each of its points as it would alone
        batch = [pt, canonicalize(1.0, 1.0), pt]
        assert image(0.25).nearest_witnesses(batch) == [rec, rec, rec]
        assert image(math.nextafter(0.25, 0.0)).nearest_witnesses(batch) == [None, rec, None]
        assert image(0.25).nearest_witnesses(batch, min_gap=0.2) == [None, None, None]
        assert image(0.25).nearest_witnesses([]) == []
        assert empty.nearest_witnesses(batch) == [None] * 3


class TestDiagnosticsAndDeterminism:
    def test_corner_diagnostics_trefoil(self, trefoil_image):
        assert corner_diagnostics(trefoil_image) == []

    def test_sweep_deterministic(self):
        tre = torus_knot_model(2, 3)
        img1 = sample_pillowcase_image(tre, 25, CFG)
        img2 = sample_pillowcase_image(tre, 25, CFG)
        assert [r.point for r in img1.points] == [r.point for r in img2.points]

    def test_config_io(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"tol": 1e-9, "restarts": 5, "seed": 3}')
        cfg = SolverConfig.from_json(str(path))
        assert cfg.tol == 1e-9 and cfg.restarts == 5 and cfg.seed == 3
        with pytest.raises(ValueError):
            SolverConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("resolution", [0, 1])
    def test_explicit_resolution_is_not_replaced_by_config(self, resolution):
        with pytest.raises(ValueError, match="resolution must be >= 2"):
            sample_pillowcase_image(unknot_model(), resolution, SolverConfig(resolution=7))
        img = sample_pillowcase_image(unknot_model(), None, SolverConfig(resolution=7))
        assert img.resolution == 7


def _witness_bytes(reps):
    return np.array([[(q.w, q.x, q.y, q.z) for q in rep.images]
                     for rep in reps]).tobytes()


class TestSweepEngine:
    @pytest.mark.parametrize("model", [torus_knot_model(2, 3), klein_bottle_model()],
                             ids=["trefoil", "klein"])
    def test_batched_sweep_matches_per_node(self, model):
        # 25 nodes x 20 restarts = 500 rows: the 256-row window refills in
        # mid-node, and the dedup pass runs on groups of 12, 12 and 1 nodes
        img = sample_pillowcase_image(model, 25, CFG)
        grid = np.linspace(0.0, PI, 25)
        per_node = [rep for i in range(25) for rep, _ in
                    _sweep(model.presentation, [float(grid[i])], [i], CFG)[0]]
        assert len(img.points) == len(per_node) > 0
        assert _witness_bytes(r.witness for r in img.points) == _witness_bytes(per_node)

    @pytest.mark.parametrize("model", [torus_knot_model(2, 3), klein_bottle_model()],
                             ids=["trefoil", "klein"])
    def test_gap_computed_once_per_solution(self, model, monkeypatch):
        calls = []

        def counting(rep):
            calls.append(rep)
            return irreducibility_gap(rep)

        monkeypatch.setattr(solver, "irreducibility_gap", counting)
        img = sample_pillowcase_image(model, 25, CFG)
        # the accept pass reads every gap from one batched _gaps call per
        # block, so the sweep makes no scalar irreducibility_gap call
        assert calls == [] and len(img.points) > 0
        assert [r.gap for r in img.points] == [irreducibility_gap(r.witness)
                                               for r in img.points]

    def test_singular_row_falls_back_alone(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 8, 8))
        A = M @ M.transpose(0, 2, 1) + np.eye(8)
        A[2, 0, :] = 0.0
        A[2, :, 0] = 0.0
        b = rng.standard_normal((5, 8))
        x = _solve_rows(A, b)
        regular = [0, 1, 3, 4]
        expected = np.linalg.solve(A[regular], b[regular][..., None])[..., 0]
        assert x[regular].tobytes() == expected.tobytes()
        assert x[2].tobytes() == (np.linalg.pinv(A[2]) @ b[2]).tobytes()


_TRACKED_MODELS = {"trefoil": torus_knot_model(2, 3), "trefoil-neg": torus_knot_model(-2, 3),
                   "klein": klein_bottle_model()}


def _points_by_node(img):
    """Image points grouped by the grid node of their meridian angle."""
    by_node = {}
    for rec in img.points:
        by_node.setdefault(round(rec.point.alpha / img.grid_step), []).append(rec)
    return by_node


class TestDiscoveryAndTracking:
    def test_zero_generators(self):
        pres = GroupPresentation(0, (), (), ())
        rep = Representation(())
        assert _sweep(pres, [0.0, PI], [0, 1], CFG) == [
            [(rep, irreducibility_gap(rep))], []]
        model = KnotExteriorModel(name="point", presentation=pres)
        img = sample_pillowcase_image(model, 200, CFG)
        assert [r.witness for r in img.points] == [rep]
        assert img.sweep.discovery_rows == img.sweep.tracks_started == 0

    @pytest.mark.parametrize("resolution", [2, 3, 25, 48, 49, 50, 73, 100, 200, 1000])
    def test_discovery_nodes(self, resolution):
        nodes = solver._discovery_nodes(resolution)
        assert nodes[0] == 0 and nodes[-1] == resolution - 1
        gaps = np.diff(nodes)
        assert (gaps >= 1).all()
        # at most pi/24 apart (or one grid step, where that is wider), with
        # one stride between all but the last two
        assert gaps.max() == 1 or 24 * gaps.max() <= resolution - 1
        assert len(set(gaps[:-1].tolist())) <= 1
        assert (len(nodes) == resolution) == (resolution <= 48)

    @pytest.mark.parametrize("model", [torus_knot_model(2, 3), klein_bottle_model()],
                             ids=["trefoil", "klein"])
    def test_stride_one_grid_is_the_cold_sweep(self, model):
        img = sample_pillowcase_image(model, 48, CFG)
        grid = np.linspace(0.0, PI, 48)
        cold = _sweep(model.presentation, [float(a) for a in grid], range(48), CFG)
        assert _witness_bytes(r.witness for r in img.points) == _witness_bytes(
            rep for sols in cold for rep, _ in sols)
        assert img.sweep == solver.SweepStats(discovery_nodes=48, discovery_rows=960)

    @pytest.mark.parametrize("model", [torus_knot_model(2, 3), klein_bottle_model()],
                             ids=["trefoil", "klein"])
    def test_discovery_witnesses_are_the_cold_ones(self, model):
        img = sample_pillowcase_image(model, 100, CFG)
        by_node = _points_by_node(img)
        nodes = solver._discovery_nodes(100)
        grid = np.linspace(0.0, PI, 100)
        cold = _sweep(model.presentation, [float(grid[i]) for i in nodes], nodes, CFG)
        for i, sols in zip(nodes, cold):
            kept = {_witness_bytes([r.witness]) for r in by_node.get(i, [])}
            assert {_witness_bytes([rep]) for rep, _ in sols} <= kept

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", list(_TRACKED_MODELS))
    def test_tracked_image_loses_no_cold_witness(self, name, seed):
        # every witness of the all-node cold sweep has a tracked witness at
        # its node whose beta is within 1e-9 of its own; alpha is the node's
        # (the LM pins a witness's alpha only to within tol: one klein
        # seed-2 cold witness sits 2.1e-9 off its node)
        model, config = _TRACKED_MODELS[name], SolverConfig(seed=seed)
        img = sample_pillowcase_image(model, 200, config)
        grid = np.linspace(0.0, PI, 200)
        cold = _sweep(model.presentation, [float(a) for a in grid], range(200), config)
        by_node = _points_by_node(img)
        for i, sols in enumerate(cold):
            tracked = [canonicalize(float(grid[i]), r.point.beta) for r in by_node.get(i, [])]
            for rep, _ in sols:
                pt = canonicalize(float(grid[i]), boundary_angles(rep, model.presentation).beta)
                assert min((pillowcase_distance(pt, q) for q in tracked),
                           default=math.inf) < 1e-9, (i, pt)
        assert len(img.points) >= sum(map(len, cold))

    def test_tracks_carry_on_through_discovery_nodes(self):
        # one restart per discovery node finds one solution there at most;
        # tracks that pass the other discovery nodes fill in the rest
        model = torus_knot_model(2, 3)
        img = sample_pillowcase_image(model, 200, SolverConfig(restarts=1))
        full = sample_pillowcase_image(model, 200, CFG)
        assert img.sweep.discovery_rows == 26
        nodes = set(solver._discovery_nodes(200))
        at_discovery = sum(len(v) for i, v in _points_by_node(img).items() if i in nodes)
        assert at_discovery > 26
        assert len(img.points) == len(full.points)
        assert max(pillowcase_distance(r.point, q.point)
                   for r, q in zip(img.points, full.points)) < 1e-9

    @pytest.mark.parametrize("name", list(_TRACKED_MODELS))
    def test_sweep_counts(self, name):
        model = _TRACKED_MODELS[name]
        img = sample_pillowcase_image(model, 200, CFG)
        s = img.sweep
        assert (s.discovery_nodes, s.discovery_rows) == (26, 520)
        nodes = solver._discovery_nodes(200)
        by_node = _points_by_node(img)
        # tracks leave each discovery witness towards each neighbouring gap
        # (the end nodes have one, the others two), and the tracked
        # witnesses are the points beyond the discovery witnesses
        grid = np.linspace(0.0, PI, 200)
        cold = _sweep(model.presentation, [float(grid[i]) for i in nodes], nodes, CFG)
        sides = [1] + [2] * (len(nodes) - 2) + [1]
        assert s.tracks_started == sum(k * len(sols) for k, sols in zip(sides, cold))
        assert s.tracked_witnesses == len(img.points) - sum(map(len, cold))
        assert s.track_stops_failed + s.track_stops_matched + s.track_stops_grid_end \
            == s.tracks_started
        assert s.track_rows == s.tracked_witnesses + s.track_stops_failed \
            + s.track_stops_matched
        assert all(by_node.get(i) for i in range(200))
        assert sample_pillowcase_image(model, 200, CFG).sweep == s

    @pytest.mark.parametrize("name, resolution, seed, digest", [
        ("trefoil", 200, 0, "9d1f4d2174a838f71be80b5dfa285b467e22794649cc917d2d0a57819d49822a"),
        ("klein", 100, 3, "c2dfda1da2d223e7a6b8b0feae69fda88eff48050c36ad832d30ccd00aca798f"),
        ("torus:2,5", 100, 3,
         "7242a16e3c30603ee60d06546cb89b66d12257077993421c6586ed2da2a33c5b"),
    ])
    def test_points_and_counts_are_pinned(self, name, resolution, seed, digest):
        # every witness, point and gap, and the SweepStats, as they have always been
        img = sample_pillowcase_image(builtin_model(name), resolution,
                                      SolverConfig(resolution=resolution, seed=seed))
        assert hashlib.sha256(repr((img.points, img.sweep)).encode()).hexdigest() == digest

    def test_accept_pass_matches_kept_solutions(self):
        model = torus_knot_model(2, 3)
        params, max_res = _lm_block(model, np.linspace(0.0, PI, 12), CFG)
        node_of = np.repeat(np.arange(12), CFG.restarts)
        kept = [[] for _ in range(12)]
        first = _distinct_solutions(model.presentation, params, max_res, CFG, node_of, kept)
        counts = [len(node) for node in kept]
        assert (first == solver._ACCEPTED).sum() == sum(counts) > 0
        assert ((first == solver._FAILED) == ~(max_res < CFG.tol)).all()
        # the same rows again only match what the first pass kept
        again = _distinct_solutions(model.presentation, params, max_res, CFG, node_of, kept)
        assert [len(node) for node in kept] == counts
        assert ((again == solver._MATCHED) == (first != solver._FAILED)).all()


# axis units whose zero components carry both signs
_SIGNED_UNITS = np.array([(1.0, -0.0, 0.0, -0.0), (-0.0, 1.0, -0.0, 0.0),
                          (0.0, -0.0, -1.0, 0.0), (-0.0, 0.0, 0.0, -1.0)])


def _random_stacks(rng, B, n):
    """(B, n, 4) normal draws with about a third replaced by signed-zero units."""
    params = rng.standard_normal((B, n, 4))
    pick = rng.random((B, n)) < 0.35
    params[pick] = _SIGNED_UNITS[rng.integers(0, 4, int(pick.sum()))]
    return params


def _reprs(values):
    return [repr(float(v)) for v in values]


def _components_of(q):
    return (q.w, q.x, q.y, q.z)


def _qmul(a, b):
    """The component formula of UnitQuaternion.__mul__ on (w, x, y, z) floats or rows.

    The reference for the table step: it takes arrays of rows, so batches
    round exactly as the scalar product does.
    """
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def _row_reprs(rows):
    """repr of every value of a (4, B) array, row by row."""
    return [_reprs(row) for row in np.asarray(rows).tolist()]


class TestQuaternionKernel:
    def test_qmul_matches_scalar_product(self):
        rng = np.random.default_rng(1)
        a, b = _random_stacks(rng, 500, 2).transpose(1, 2, 0)
        batched = _qmul(tuple(a), tuple(b))
        for i in range(500):
            qa = UnitQuaternion(*a[:, i].tolist())
            qb = UnitQuaternion(*b[:, i].tolist())
            expected = _reprs(_components_of(qa * qb))
            assert _reprs(c[i] for c in batched) == expected
            assert _reprs(_qmul(_components_of(qa), _components_of(qb))) == expected

    @pytest.mark.parametrize("B", [1, 16, 256, 2048])
    def test_table_step_matches_products(self, B):
        # every letter, forward and inverse, against the reference formula on
        # the whole batch and against UnitQuaternion.__mul__ row by row
        rng = np.random.default_rng(B + 7)
        comps = _components(_random_stacks(rng, B, 3))
        a = comps[0]
        tables = _LetterTables(comps)
        for k in (1, -1, 2, -2, 3, -3):
            g = comps[abs(k) - 1]
            g = g if k > 0 else np.stack([g[0], -g[1], -g[2], -g[3]])
            got = _qstep(a, tables[k], tables.terms, np.empty((4, B)))
            assert _row_reprs(got) == _row_reprs(_qmul(tuple(a), tuple(g)))
            for b in range(B):
                q = UnitQuaternion(*a[:, b].tolist()) * UnitQuaternion(*g[:, b].tolist())
                assert _reprs(got[:, b]) == _reprs(_components_of(q))

    def test_all_negative_zero_terms_keep_their_sign(self):
        # a * g has w = -0.0 - 0.0 - 0.0 - 0.0, a sum of four -0.0 terms,
        # for g = (1, 1, 1, 1), reached as letter 1 and as letter -2; a
        # reduction that starts from +0.0 would return +0.0
        a = np.array([[-0.0, -0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        comps = np.array([[[1.0, 2.0]] * 4, [[1.0, 2.0]] + [[-1.0, -2.0]] * 3])
        tables = _LetterTables(comps)
        one = UnitQuaternion(1.0, 1.0, 1.0, 1.0)
        expected = _reprs(_components_of(UnitQuaternion(-0.0, 0.0, 0.0, 0.0) * one))
        assert expected[0] == "-0.0"
        for k in (1, -2):
            got = _qstep(a, tables[k], tables.terms, np.empty((4, 2)))
            assert _reprs(got[:, 0]) == expected

    def test_step_in_place(self):
        rng = np.random.default_rng(3)
        comps = _components(_random_stacks(rng, 16, 2))
        tables = _LetterTables(comps)
        a = comps[1].copy()
        expected = _qstep(a, tables[-1], tables.terms, np.empty((4, 16)))
        assert _row_reprs(_qstep(a, tables[-1], tables.terms, a)) == _row_reprs(expected)

    def test_empty_word_is_one(self):
        tables = _LetterTables(_components(np.zeros((5, 2, 4))))
        assert _row_reprs(_word_product(tables, ())) == \
            [["1.0"] * 5, ["0.0"] * 5, ["0.0"] * 5, ["0.0"] * 5]

    @pytest.mark.parametrize("B", [1, 16, 256, 2048])
    def test_eval_batch_matches_evaluate_word(self, B):
        rng = np.random.default_rng(B)
        params = _random_stacks(rng, B, 3)
        reps = [Representation(tuple(UnitQuaternion(*q) for q in row))
                for row in params.tolist()]
        tables = _LetterTables(_components(params))
        zero_signs = set()
        for word in [(), (1,), (-2,), (1, 1, -2, -2, -2), (3, -1, 2, -3, -3, 1, -2)]:
            got = _eval_batch(tables, word, np.empty((B, 4)))
            for b in range(B):
                assert _reprs(got[b]) == _reprs(_components_of(evaluate_word(reps[b], word)))
            zero_signs |= {math.copysign(1.0, v) for v in got[got == 0.0]}
        if B > 16:
            assert zero_signs == {1.0, -1.0}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("B", [1, 16, 256, 2048])
    def test_renorm_matches_from_components(self, B, n):
        # every generator of every row, signed zeros included
        params = _random_stacks(np.random.default_rng([B, n]), B, n)
        got = solver._renorm(params)
        assert got.shape == params.shape
        expected = [[_components_of(UnitQuaternion.from_components(*q)) for q in row]
                    for row in params.tolist()]
        assert _reprs(got.ravel()) == _reprs(np.array(expected).ravel())
        if B > 16:
            signs = {math.copysign(1.0, v) for v in got[got == 0.0]}
            assert signs == {1.0, -1.0}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("B", [1, 16, 256, 2048])
    def test_eval_batch_into_residual_columns(self, B, n):
        # each word's (B, 4) block of a wider residual matrix, as _residuals
        # writes it, against evaluate_word row by row
        params = _random_stacks(np.random.default_rng([B, n, 1]), B, n)
        reps = [Representation(tuple(UnitQuaternion(*q) for q in row))
                for row in params.tolist()]
        letters = [k for g in range(1, n + 1) for k in (g, -g)]
        words = [(), (1,), tuple(letters), tuple(reversed(letters * 2))]
        tables = _LetterTables(_components(params))
        out = np.full((B, 4 * len(words)), np.nan)
        for k, word in enumerate(words):
            block = out[:, 4 * k:4 * k + 4]
            assert _eval_batch(tables, word, block) is block
        expected = [[c for word in words for c in _components_of(evaluate_word(rep, word))]
                    for rep in reps]
        assert _reprs(out.ravel()) == _reprs(np.array(expected).ravel())


def _invariant_signature_reference(rep, pres):
    vals = [q.w for q in rep.images]
    n = len(rep.images)
    for i in range(n):
        for j in range(i + 1, n):
            vals.append((rep.images[i] * rep.images[j]).w)
    vals.append(evaluate_word(rep, pres.meridian).w)
    vals.append(abs(evaluate_word(rep, pres.meridian).x))
    return tuple(vals)


def _distinct_solutions_reference(pres, params, max_res, config):
    """The scalar accept/dedup/sort of one node's rows."""
    accepted = []
    for b in range(params.shape[0]):
        if max_res[b] >= config.tol:
            continue
        rep = _rep_from_params(params[b])
        if relator_residual(rep, pres) >= config.tol:
            continue
        sig = _invariant_signature_reference(rep, pres)
        if any(all(abs(u - v) < solver._SIGNATURE_TOL for u, v in zip(sig, other))
               for other, _ in accepted):
            continue
        accepted.append((sig, rep))
    reps = [rep for _, rep in accepted]
    reps.sort(key=lambda r: (-irreducibility_gap(r), _invariant_signature_reference(r, pres)))
    return [(rep, irreducibility_gap(rep)) for rep in reps]


def _sweep_rows(pres, alphas, keys, config):
    """The words, targets and starting params of _sweep's node x restart rows."""
    params0 = np.concatenate([
        np.random.default_rng([config.seed, key & 0x7FFFFFFF]).standard_normal(
            (config.restarts, pres.generator_count, 4)) for key in keys])
    targets = np.repeat([[1.0, 0.0, 0.0, 0.0] * len(pres.relators)
                         + [math.cos(a), math.sin(a), 0.0, 0.0] for a in alphas],
                        config.restarts, axis=0)
    return list(pres.relators) + [pres.meridian], targets, params0


def _lm_block(model, alphas, config):
    """The LM-solved restarts of one sweep block, node i at meridian angle alphas[i]."""
    words, targets, params0 = _sweep_rows(model.presentation, alphas,
                                          range(len(alphas)), config)
    return _lm_minimize(words, targets, params0, config.tol)


def _node_solutions(pres, params, max_res, config, nodes):
    """_distinct_solutions on nodes equal groups of rows, as _sweep returns them."""
    kept = [[] for _ in range(nodes)]
    _distinct_solutions(pres, params, max_res, config,
                        np.repeat(np.arange(nodes), len(params) // nodes), kept)
    return [solver._by_gap(node) for node in kept]


def _matches_reference(pres, params, max_res, nodes):
    per = len(params) // nodes
    expected = [_distinct_solutions_reference(pres, params[k * per:(k + 1) * per],
                                              max_res[k * per:(k + 1) * per], CFG)
                for k in range(nodes)]
    got = _node_solutions(pres, params, max_res, CFG, nodes)
    assert repr(got) == repr(expected)
    return got


def _assert_residuals_bitwise(pres, params):
    reps = [_rep_from_params(row) for row in params]
    units = _components(np.array([[_components_of(q) for q in rep.images] for rep in reps]))
    expected = [relator_residual(rep, pres) for rep in reps]
    assert _relator_residuals(units, pres.relators).tolist() == expected


class TestAcceptPass:
    @pytest.mark.parametrize("model", [torus_knot_model(2, 3), klein_bottle_model()],
                             ids=["trefoil", "klein"])
    def test_real_block_matches_scalar_pass(self, model):
        params, max_res = _lm_block(model, np.linspace(0.0, PI, 12), CFG)
        got = _matches_reference(model.presentation, params, max_res, 12)
        # rows were accepted, and some of them dropped as duplicates
        assert 0 < sum(map(len, got)) < int((max_res < CFG.tol).sum())

    @pytest.mark.parametrize("pres", [
        torus_knot_model(2, 3).presentation, klein_bottle_model().presentation,
        splice(torus_knot_model(2, 3), torus_knot_model(-2, 3),
               GluingMatrix.swap()).amalgamated], ids=["trefoil", "klein", "splice"])
    def test_relator_residuals_bitwise(self, pres):
        rng = np.random.default_rng(3)
        _assert_residuals_bitwise(pres, rng.standard_normal((1000, pres.generator_count, 4)))

    def test_relator_residual_squares_like_scalar(self):
        # odd 27-bit components on a real part of 1: half of their squares
        # are rounding ties, where x * x and the scalar ** part ways
        rng = np.random.default_rng(4)
        params = np.zeros((1000, 1, 4))
        params[:, 0, 0] = 1.0
        params[:, 0, 1:3] = (rng.integers(2**26, 2**27, (1000, 2)) | 1) * 2.0**-56
        _assert_residuals_bitwise(unknot_model().presentation.with_relator((1,)), params)

    def test_constructed_rows(self):
        model = torus_knot_model(2, 3)
        pres = model.presentation
        params, max_res = _lm_block(model, [PI / 3, PI / 12], CFG)
        good = [b for b in range(len(params)) if max_res[b] < CFG.tol]
        irreducible = [b for b in good
                       if irreducibility_gap(_rep_from_params(params[b])) > 0.1]
        reducible = [b for b in good if b not in irreducible]
        base = params[irreducible[0]]
        # u -> -u keeps the relator u^2 v^-3 and the gap, bit for bit, but
        # changes the signature
        flipped = base.copy()
        flipped[0] *= -1.0
        near = base + 1e-10 * np.random.default_rng(7).standard_normal(base.shape)
        junk = np.random.default_rng(8).standard_normal(base.shape)
        other = params[reducible[0]]
        rows = [base, base, near, flipped, junk,     # node 0
                flipped, junk, other, base, other]   # node 1
        res = [0.0, 0.0, 0.0, 0.0, 0.0,
               0.0, 0.0, CFG.tol, 0.0, 0.5 * CFG.tol]
        assert irreducibility_gap(_rep_from_params(flipped)) == \
            irreducibility_gap(_rep_from_params(base))
        # only the relator re-check can reject the junk rows
        assert relator_residual(_rep_from_params(junk), pres) >= CFG.tol
        got = _matches_reference(pres, np.array(rows), np.array(res), 2)
        assert [len(node) for node in got] == [2, 3]


def _units_of(reps, n):
    """(n, 4, B) component rows of the representations' generator images."""
    return _components(np.array([[_components_of(q) for q in rep.images] for rep in reps],
                                dtype=float).reshape(len(reps), n, 4))


def _point_bytes(points):
    return [struct.pack("<2d", p.alpha, p.beta) for p in points]


def _float_bytes(values):
    return [struct.pack("<d", v) for v in values]


class TestBatchedDiagnostics:
    """_boundary_points and _gaps against su2.boundary_angles and irreducibility_gap."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("model,resolution", [
        (builtin_model("trefoil"), 200), (builtin_model("trefoil-neg"), 200),
        (builtin_model("klein"), 200), (builtin_model("unknot"), 200),
        (torus_knot_model(2, 5), 100), (torus_knot_model(3, 4), 100)],
        ids=["trefoil", "trefoil-neg", "klein", "unknot", "T(2,5)", "T(3,4)"])
    def test_image_points_bitwise(self, model, resolution, seed):
        pres = model.presentation
        img = sample_pillowcase_image(model, resolution, SolverConfig(seed=seed))
        reps = [r.witness for r in img.points]
        assert len(reps) > 0
        expected = [boundary_angles(rep, pres) for rep in reps]
        assert _point_bytes(_boundary_points(reps, pres)) == _point_bytes(expected)
        assert _point_bytes(r.point for r in img.points) == _point_bytes(expected)
        gaps = [irreducibility_gap(rep) for rep in reps]
        assert _float_bytes(_gaps(_units_of(reps, pres.generator_count)).tolist()) == \
            _float_bytes(gaps)
        assert _float_bytes(r.gap for r in img.points) == _float_bytes(gaps)

    @pytest.mark.parametrize("model", [builtin_model("unknot"), builtin_model("klein")],
                             ids=["unknot", "klein"])
    def test_central_holonomies_read_exact_angles(self, model):
        pres = model.presentation
        reps = [r.witness for r in sample_pillowcase_image(model, 60, CFG).points]
        points = _boundary_points(reps, pres)
        central = 0
        for rep, pt in zip(reps, points):
            for word, angle in ((pres.meridian, pt.alpha), (pres.longitude, pt.beta)):
                if evaluate_word(rep, word).is_central():
                    central += 1
                    assert angle in (0.0, PI)
        assert central > 0
        # both holonomies central, with zero components of both signs
        one = UnitQuaternion(1.0, -0.0, 0.0, -0.0)
        minus = UnitQuaternion(-1.0, 0.0, -0.0, 0.0)
        reps = [Representation((q,) * pres.generator_count) for q in (one, minus)]
        assert _point_bytes(_boundary_points(reps, pres)) == \
            _point_bytes(boundary_angles(rep, pres) for rep in reps)

    def test_nan_commutators_skipped_as_by_max(self):
        # max(gap, nan) keeps gap, so a NaN generator leaves the other pairs'
        # gap; np.maximum would return NaN
        rng = np.random.default_rng(6)
        params = rng.standard_normal((4, 3, 4))
        params[0, 0, 1] = params[1, 2, 3] = params[2, 1, 0] = np.nan
        reps = [_rep_from_params(row) for row in params]
        expected = [irreducibility_gap(rep) for rep in reps]
        assert not any(math.isnan(g) for g in expected)
        assert _float_bytes(_gaps(_units_of(reps, 3)).tolist()) == _float_bytes(expected)

    def test_empty_batch(self):
        pres = torus_knot_model(2, 3).presentation
        assert _boundary_points([], pres) == []
        assert _gaps(np.empty((2, 4, 0))).shape == (0,)

    def test_zero_generator_presentation(self):
        pres = GroupPresentation(0, (), (), ())
        reps = [Representation(())] * 3
        assert _boundary_points(reps, pres) == [boundary_angles(rep, pres) for rep in reps]
        assert _float_bytes(_gaps(_units_of(reps, 0)).tolist()) == \
            _float_bytes(irreducibility_gap(rep) for rep in reps)

    def test_non_commuting_peripherals_raise_the_scalar_message(self):
        # the free group on the meridian and the longitude: rows 0 and 1 put
        # both on the i axis, so the first offending row is row 2
        pres = GroupPresentation(2, (), (1,), (2,))
        rng = np.random.default_rng(5)
        on_axis = [[(math.cos(t), math.sin(t), 0.0, 0.0) for t in rng.uniform(-3, 3, 2)]
                   for _ in range(2)]
        params = np.concatenate([np.array(on_axis), rng.standard_normal((6, 2, 4))])
        reps = [_rep_from_params(row) for row in params]
        assert _boundary_points(reps[:2], pres) == [boundary_angles(r, pres) for r in reps[:2]]
        with pytest.raises(NonCommutingPeripheralsError) as scalar:
            for rep in reps:
                boundary_angles(rep, pres)
        with pytest.raises(NonCommutingPeripheralsError) as batched:
            _boundary_points(reps, pres)
        assert str(batched.value) == str(scalar.value)
        # the message names row 2's defect, not a later row's
        with pytest.raises(NonCommutingPeripheralsError) as later:
            boundary_angles(reps[3], pres)
        assert str(later.value) != str(scalar.value)


# ---------------------------------------------------------------------------
# the point-distance kernel behind nearest_points, _chain_points and
# _project_endpoint_cuts, against the scalar scans it replaced

def _nearest_point_reference(img, pt, min_gap=-math.inf):
    """The old scalar scan behind PillowcaseImage.nearest_points, for one point."""
    best, best_d = None, math.inf
    for rec in img.points:
        if rec.gap <= min_gap:
            continue
        d = pillowcase_distance(rec.point, pt)
        if d < best_d:
            best, best_d = rec, d
    return best, best_d


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


def _project_endpoint_cuts_reference(curves, node_tol):
    """The old scalar scan of _project_endpoint_cuts, with sqrt for hypot."""
    cuts = {i: [] for i in range(len(curves))}
    endpoints = []
    for i, c in enumerate(curves):
        if not c.closed:
            endpoints.append(c.vertices[0])
            endpoints.append(c.vertices[-1])
    for j, c in enumerate(curves):
        segs = c.lifted_segments()
        for pt in endpoints:
            best = None
            for si, ((x1, y1), (x2, y2)) in enumerate(segs):
                for (px, py) in _reps_near(pt, 0.5 * (x1 + x2), 0.5 * (y1 + y2)):
                    dx, dy = x2 - x1, y2 - y1
                    L2 = dx * dx + dy * dy
                    if L2 == 0:
                        continue
                    t = ((px - x1) * dx + (py - y1) * dy) / L2
                    t = min(max(t, 0.0), 1.0)
                    ex, ey = px - (x1 + t * dx), py - (y1 + t * dy)
                    d = math.sqrt(ex * ex + ey * ey)
                    if d < node_tol and (best is None or d < best[0]):
                        best = (d, si, t)
            if best is not None:
                cuts[j].append((best[1], best[2]))
    return cuts


def _project_endpoint_cuts_full_scan(curves, node_tol):
    """_project_endpoint_cuts as it scanned every segment, before its radius."""
    cuts = {i: [] for i in range(len(curves))}
    endpoints = [v for c in curves if not c.closed for v in (c.vertices[0], c.vertices[-1])]
    for j, c in enumerate(curves):
        step = np.diff(c._lift_array, axis=0)
        degenerate = step[:, 0] * step[:, 0] + step[:, 1] * step[:, 1] == 0
        for pt in endpoints:
            d, t = c._scan(pt, slice(None))
            d[degenerate] = math.inf
            si, li = np.unravel_index(np.argmin(d), d.shape)
            if d[si, li] < node_tol:
                cuts[j].append((int(si), float(t[si, li])))
    return cuts


def _chain_points_reference(records, threshold):
    """The old scalar adjacency and greedy walk of _chain_points."""
    pts = [r.point for r in records]
    n = len(pts)
    if n == 0:
        return [], []
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if pillowcase_distance(pts[i], pts[j]) < threshold:
                adj[i].append(j)
                adj[j].append(i)
    seen = [False] * n
    arcs = []
    isolated = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        if len(comp) == 1:
            isolated.append(records[comp[0]])
            continue

        def walk(start, pool):
            order = [start]
            left = set(pool) - {start}
            while left:
                last = order[-1]
                nxt = min(left, key=lambda j: (pillowcase_distance(pts[last], pts[j]), j))
                if pillowcase_distance(pts[last], pts[nxt]) > 3 * threshold:
                    break
                order.append(nxt)
                left.remove(nxt)
            return order, left

        probe, _ = walk(min(comp), comp)
        order, remaining = walk(probe[-1], comp)
        for leftover in sorted(remaining):
            isolated.append(records[leftover])
        closed = (len(order) > 3 and
                  pillowcase_distance(pts[order[0]], pts[order[-1]]) < threshold)
        arcs.append(PillowcasePolyline(
            tuple(pts[i] for i in order), closed=closed))
    return arcs, isolated


_ONE = Representation((UnitQuaternion(1.0, 0.0, 0.0, 0.0),))

# equal distances from (1, 2) in exact arithmetic: dyadic offsets mirrored
# through it
_CENTRE = (1.0, 2.0)
_MIRRORED = [canonicalize(_CENTRE[0] + sx * u, _CENTRE[1] + sy * v)
             for u, v in ((0.25, 0.5), (0.5, 0.25), (0.125, 0.125))
             for sx in (1.0, -1.0) for sy in (1.0, -1.0)]


def _wrap_points():
    """Points on and near the edges alpha in {0, pi} and the seam beta = 0 ~ 2pi."""
    pts = [canonicalize(a, b) for a in (0.0, 1e-9, 0.5, PI - 1e-9, PI)
           for b in (0.0, 1e-9, 3e-9, PI, TWO_PI - 3e-9, TWO_PI - 1e-9)]
    # non-canonical pairs just below 2pi: the scans take any finite angles
    return pts + [PillowcasePoint(0.0, TWO_PI - 1e-9), PillowcasePoint(PI, TWO_PI - 1e-9)]


def _cloud(rng, n):
    """Random points with exact duplicates, mirrored ties and edge points, shuffled."""
    pts = [canonicalize(*rng.uniform(-2 * PI, 2 * PI, size=2)) for _ in range(n)]
    pts += [pts[i] for i in rng.integers(0, n, size=n // 8).tolist()]
    pts += [tau(p) for p in pts[:n // 8]] + _MIRRORED + _MIRRORED[:4] + _wrap_points()
    return [pts[i] for i in rng.permutation(len(pts)).tolist()]


def _image_of(points, gaps):
    return PillowcaseImage(
        model=unknot_model(), resolution=8, grid_step=0.8 / 8,
        points=tuple(ImagePoint(p, _ONE, g) for p, g in zip(points, gaps)), arcs=())


def _picked(img, result):
    """(index by identity, repr of distance) of a nearest_points entry."""
    rec, d = result
    return (next((i for i, r in enumerate(img.points) if r is rec), None), repr(d))


def _queries(rng, cloud):
    return (cloud[::5] + _wrap_points() + [canonicalize(*_CENTRE), canonicalize(PI / 2, PI)]
            + [canonicalize(*rng.uniform(-2 * PI, 2 * PI, size=2)) for _ in range(60)])


def _records(points):
    return [ImagePoint(p, _ONE, float(i)) for i, p in enumerate(points)]


def _open_curves(rng, k):
    """Open random walks, some with zero-length segments."""
    out = []
    for _ in range(k):
        steps = rng.normal(size=(14, 2)) * rng.choice([0.05, 0.5, 2.0], size=(14, 1))
        steps[rng.integers(0, 14)] = 0.0
        pts = rng.uniform(-PI, PI, size=2) + np.vstack([[0.0, 0.0], np.cumsum(steps, 0)])
        out.append(polyline([tuple(p) for p in pts]))
    return out


def _touching_curves(rng, curves):
    """Curves starting on a vertex, a segment interior or a wrapped point of others."""
    out = []
    for c in curves:
        lifts = np.array(c.lifted_vertices())
        i = int(rng.integers(1, len(lifts) - 1))
        on_seg = lifts[i] + rng.uniform() * (lifts[i + 1] - lifts[i])
        for start in (lifts[i], on_seg, on_seg + TWO_PI * np.array([1.0, -2.0]),
                      -on_seg):
            out.append(polyline([tuple(start), tuple(start + rng.normal(size=2))]))
    return out


class TestPointKernelScans:
    def test_nearest_point_matches_scalar_scan(self, monkeypatch):
        rng = np.random.default_rng(31)
        cloud = _cloud(rng, 120)
        gaps = rng.choice([0.0, 0.1, 0.2, 0.5, math.nan], size=len(cloud)).tolist()
        img = _image_of(cloud, gaps)
        queries = _queries(rng, cloud)
        ties = 0
        for min_gap in (-math.inf, 0.0, 0.1, 0.2, 0.5, 1.0):
            expected = [_picked(img, _nearest_point_reference(img, pt, min_gap))
                        for pt in queries]
            for pt, want in zip(queries, expected):
                # gaps exactly at min_gap are skipped; a nan gap is never <= min_gap
                assert _picked(img, img.nearest_points([pt], min_gap)[0]) == want
                ties += sum(repr(pillowcase_distance(r.point, pt)) == want[1]
                            for r in img.points if not r.gap <= min_gap) > 1
            # the batch in one block of rows, and in blocks of one row
            assert [_picked(img, r) for r in img.nearest_points(queries, min_gap)] == expected
            with monkeypatch.context() as m:
                m.setattr(geometry, "_PAIR_BLOCK", 1)
                assert [_picked(img, r) for r in img.nearest_points(queries, min_gap)] == \
                    expected
        assert ties > 0

    def test_nearest_point_empty_image(self):
        img = _image_of([], [])
        assert img.nearest_points([canonicalize(0.0, PI)]) == [(None, math.inf)]
        assert img.nearest_points([canonicalize(0.0, PI)], min_gap=0.0) == [(None, math.inf)]
        marked = [canonicalize(0.0, PI), canonicalize(PI, PI)]
        assert img.nearest_points(marked) == [(None, math.inf)] * 2
        assert img.nearest_points([]) == []
        # an image whose every point is gated out answers like an empty one
        gated = _image_of([canonicalize(0.0, PI), canonicalize(1.0, 1.0)], [0.0, 0.1])
        assert gated.nearest_points(marked, min_gap=0.1) == [(None, math.inf)] * 2

    def test_chain_points_matches_scalar_chaining(self):
        rng = np.random.default_rng(33)
        cloud = _cloud(rng, 100)
        records = _records(cloud)
        for threshold in (0.05, 0.3, 0.9, 2.5):
            assert repr(_chain_points(records, threshold)) == \
                repr(_chain_points_reference(records, threshold))

    def test_chain_threshold_one_ulp_either_side(self):
        rng = np.random.default_rng(34)
        cloud = _cloud(rng, 40)
        pairs = [(cloud[i], cloud[j])
                 for i, j in rng.integers(0, len(cloud), size=(8, 2)).tolist()]
        for a, b in pairs + [(_MIRRORED[0], _MIRRORED[3])]:
            s = pillowcase_distance(a, b)
            if s == 0.0:
                continue
            # the pair alone, next to a neighbour of b, and inside the cloud
            c = canonicalize(b.alpha + 1e-3, b.beta)
            for threshold in (math.nextafter(s, 0.0), s, math.nextafter(s, math.inf)):
                for pts in ([a, b], [b, a], [a, b, c], [c, a, b]):
                    records = _records(pts)
                    assert repr(_chain_points(records, threshold)) == \
                        repr(_chain_points_reference(records, threshold))
            # points closer than the threshold are joined, at it they are not
            assert len(_chain_points(_records([a, b]), s)[0]) == 0
            assert len(_chain_points(_records([a, b]), math.nextafter(s, math.inf))[0]) == 1
            records = _records(cloud + [a, b])
            assert repr(_chain_points(records, s)) == \
                repr(_chain_points_reference(records, s))

    def test_chain_closes_below_threshold(self):
        # eleven points 30 degrees apart on a circle; the open ends are 60
        # degrees apart, and the chain closes only when that is below threshold
        pts = [canonicalize(1.5 + 0.3 * math.cos(a), 1.5 + 0.3 * math.sin(a))
               for a in np.radians(np.arange(0, 301, 30)).tolist()]
        s = pillowcase_distance(pts[0], pts[-1])
        records = _records(pts)
        for threshold, closed in ((s, False), (math.nextafter(s, math.inf), True)):
            arcs, isolated = _chain_points(records, threshold)
            assert [(len(a), a.closed) for a in arcs] == [(11, closed)] and not isolated
            assert repr((arcs, isolated)) == repr(_chain_points_reference(records, threshold))

    def test_chain_points_empty_and_single(self):
        assert _chain_points([], 0.5) == ([], [])
        records = _records([canonicalize(0.0, PI)])
        assert repr(_chain_points(records, 0.5)) == repr(([], records))

    def test_project_endpoint_cuts_matches_scalar_scan(self):
        rng = np.random.default_rng(35)
        curves = _open_curves(rng, 6)
        curves += _touching_curves(rng, curves[:3])
        curves.append(polyline([(0.2, 0.3), (0.2, 2.0), (1.5, 2.0)], closed=True))
        for node_tol in (1e-7, 0.3, 1.5):
            assert repr(_project_endpoint_cuts(curves, node_tol)) == \
                repr(_project_endpoint_cuts_reference(curves, node_tol))

    def test_project_endpoint_cuts_at_node_tol(self):
        # node_tol at an endpoint's distance to a curve, and one ulp either side
        rng = np.random.default_rng(36)
        for c in _open_curves(rng, 4):
            for _ in range(25):
                pt = canonicalize(*rng.uniform(-PI, PI, size=2))
                s = c.min_distance_to(pt)
                pair = [c, polyline([pt, canonicalize(pt.alpha + 0.5, pt.beta + 2.0)])]
                got = []
                for node_tol in (math.nextafter(s, 0.0), s, math.nextafter(s, math.inf)):
                    got.append(_project_endpoint_cuts(pair, node_tol))
                    assert repr(got[-1]) == \
                        repr(_project_endpoint_cuts_reference(pair, node_tol))
                # the endpoint cuts the curve only above its distance
                assert len(got[2][0]) == len(got[1][0]) + 1

    @pytest.mark.parametrize("name", ["trefoil", "trefoil-neg", "klein"])
    def test_project_endpoint_cuts_radius_on_image_arcs(self, name):
        # the radius skips only segments that cannot cut: the same cuts as
        # the scan of every segment, on the arcs and on their Motegi images
        img = sample_pillowcase_image(builtin_model(name), 60, CFG)
        arcs = list(img.arcs)
        mapped = [arc.transformed(GluingMatrix(-6, 1, 37, -6).rows()) for arc in arcs]
        node_tol = max(img.chain_threshold, 1e-7)
        cut = 0
        for curves in (arcs, mapped, arcs + mapped):
            for tol in (node_tol, 0.25 * node_tol, 0.3, 1.5):
                got = _project_endpoint_cuts(curves, tol)
                assert repr(got) == repr(_project_endpoint_cuts_full_scan(curves, tol))
                cut += sum(map(len, got.values()))
        assert cut
        # node_tol at each endpoint's exact distance to each arc, and one ulp above
        ends = [v for c in arcs if not c.closed for v in (c.vertices[0], c.vertices[-1])]
        for c in arcs:
            for pt in ends:
                s = c.min_distance_to(pt)
                for tol in (s, math.nextafter(s, math.inf)):
                    pair = [c, polyline([pt, canonicalize(pt.alpha + 0.5, pt.beta + 2.0)])]
                    assert repr(_project_endpoint_cuts(pair, tol)) == \
                        repr(_project_endpoint_cuts_full_scan(pair, tol))

    @pytest.mark.parametrize("model", [torus_knot_model(2, 3), klein_bottle_model()],
                             ids=["trefoil", "klein"])
    def test_real_images(self, model):
        img = sample_pillowcase_image(model, 25, CFG)
        queries = [r.point for r in img.points]
        queries += [v for arc in img.arcs for v in arc.vertices[::7]]
        for min_gap in (-math.inf, solver.IRREDUCIBLE_GAP):
            assert [_picked(img, r) for r in img.nearest_points(queries, min_gap)] == \
                [_picked(img, _nearest_point_reference(img, pt, min_gap)) for pt in queries]
        records = list(img.points)
        for threshold in (img.chain_threshold, 0.25 * img.chain_threshold):
            assert repr(_chain_points(records, threshold)) == \
                repr(_chain_points_reference(records, threshold))
        curves = list(img.arcs)
        assert repr(_project_endpoint_cuts(curves, img.chain_threshold)) == \
            repr(_project_endpoint_cuts_reference(curves, img.chain_threshold))

def _corner_diagnostics_reference(img, eps):
    """The old scalar loop of corner_diagnostics."""
    corners = (canonicalize(0.0, 0.0), canonicalize(PI, 0.0))
    return [rec for rec in img.points if not rec.gap <= 1e-4
            and any(pillowcase_distance(rec.point, c) < eps for c in corners)]


class TestCornerDiagnostics:
    @staticmethod
    def _corner_cloud(rng):
        """Points around both corners at distances near 0.05, edge points and a cloud."""
        pts = [canonicalize(c + r * math.cos(t), r * math.sin(t))
               for c in (0.0, PI) for r in (0.01, 0.049, 0.05, 0.051, 0.3)
               for t in rng.uniform(-PI, PI, size=3).tolist()]
        return pts + _wrap_points() + _cloud(rng, 30)

    def _assert_matches(self, img, eps, monkeypatch):
        monkeypatch.setattr(solver, "_CORNER_RADIUS", eps)
        got = corner_diagnostics(img)
        expected = _corner_diagnostics_reference(img, eps)
        assert [id(r) for r in got] == [id(r) for r in expected]
        return len(got)

    def test_at_eps_and_one_ulp_either_side(self, monkeypatch):
        rng = np.random.default_rng(41)
        pts = self._corner_cloud(rng)
        img = _image_of(pts, rng.choice([0.0, 1e-4, 0.2], size=len(pts)).tolist())
        found = 0
        for p in pts[:40]:
            for c in (canonicalize(0.0, 0.0), canonicalize(PI, 0.0)):
                s = pillowcase_distance(p, c)
                for eps in (math.nextafter(s, 0.0), s, math.nextafter(s, math.inf)):
                    found += self._assert_matches(img, eps, monkeypatch)
        monkeypatch.undo()
        assert solver._CORNER_RADIUS == 0.05
        assert [id(r) for r in corner_diagnostics(img)] == \
            [id(r) for r in _corner_diagnostics_reference(img, 0.05)]
        assert found

# ---------------------------------------------------------------------------
# the pairwise proximity passes (distance_components and the keyed
# first-occurrence dedup) against the loops they replaced

def _union_find_reference(points, radius):
    """The old union-find endpoint merge of extract_essential_curve, as components."""
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if pillowcase_distance(points[i], points[j]) < radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _connected_at_scale_reference(points, scale):
    """The old growth loop of gluer._connected_at_scale."""
    if len(points) <= 1:
        return True, 0.0
    remaining = list(range(len(points)))
    component = {remaining.pop(0)}
    grew = True
    while grew and remaining:
        grew = False
        for idx in list(remaining):
            if any(pillowcase_distance(points[idx], points[c]) <= scale
                   for c in component):
                component.add(idx)
                remaining.remove(idx)
                grew = True
    if not remaining:
        return True, 0.0
    gap = min(pillowcase_distance(points[i], points[c])
              for i in remaining for c in component)
    return False, gap


def _distinct_points_reference(points, tol):
    """The old first-occurrence loop of distinct_points."""
    kept = []
    for pt in points:
        if not any(pillowcase_distance(pt, q) < tol for q in kept):
            kept.append(pt)
    return kept


def _polyline_intersections_reference(c1, c2):
    """The old dedup loop of polyline_intersections."""
    out = []
    for (pt, trans, *_rest) in detailed_intersections(c1, c2):
        if not any(pillowcase_distance(pt, q) <= 1e-7 and trans == qtrans
                   for (q, qtrans) in out):
            out.append((pt, trans))
    return out


def _attained_radii(rng, points, k):
    """k nonzero pair distances of the points, each with one ulp either side."""
    ds = sorted({pillowcase_distance(p, q) for i, p in enumerate(points)
                 for q in points[:i]} - {0.0})
    picks = rng.choice(ds, size=min(k, len(ds)), replace=False).tolist()
    return [r for s in picks for r in (math.nextafter(s, 0.0), s, math.nextafter(s, math.inf))]


def _proximity_clouds(rng):
    centre = canonicalize(*_CENTRE)
    return [[centre] + _MIRRORED, _MIRRORED + _MIRRORED[:4] + [centre],
            _wrap_points(), _cloud(rng, 50)]


def _distinct(points, tol):
    """distinct_points at any tol: the first occurrences distinct_indices keeps."""
    return [points[i] for i in distinct_indices(points, tol)]


def _proximity_answers(points, radius):
    """repr of every proximity pass at one radius, and of its old loop."""
    got = (distance_components(points, radius), gluer._connected_at_scale(points, radius),
           _distinct(points, radius))
    expected = (_union_find_reference(points, radius),
                _connected_at_scale_reference(points, radius),
                _distinct_points_reference(points, radius))
    return repr(got), repr(expected)


class TestProximityPasses:
    def test_clouds_at_attained_radii(self):
        rng = np.random.default_rng(41)
        flips = 0
        for cloud in _proximity_clouds(rng):
            radii = _attained_radii(rng, cloud, 8) + [1e-7, 1e-6, 0.3, 1.5, 10.0]
            for radius in radii:
                got, expected = _proximity_answers(cloud, radius)
                assert got == expected
            # one ulp moves a verdict, so <= and < are told apart
            flips += sum(_proximity_answers(cloud, a)[1] != _proximity_answers(cloud, b)[1]
                         for a, b in zip(radii[0:24:3], radii[1:24:3]))
        assert flips > 0

    def test_empty_and_single(self):
        pt = canonicalize(0.5, PI)
        assert distance_components([], 1.0) == []
        assert distance_components([pt], 1.0) == [[0]]
        assert distinct_indices([pt, pt], 0.0) == [0, 1]
        assert distinct_points([pt, pt]) == [pt]
        assert gluer._connected_at_scale([pt], 0.0) == (True, 0.0)

    @pytest.mark.parametrize("model", [torus_knot_model(2, 3), klein_bottle_model()],
                             ids=["trefoil", "klein"])
    def test_real_images(self, model, monkeypatch):
        rng = np.random.default_rng(43)
        img = sample_pillowcase_image(model, 25, CFG)
        # the endpoint merge and the pi-line connectivity, on their own inputs
        merges, scans = [], []
        connected_at_scale = gluer._connected_at_scale
        monkeypatch.setattr(solver, "distance_components",
                            lambda pts, r: merges.append((pts, r)) or distance_components(pts, r))
        monkeypatch.setattr(gluer, "_connected_at_scale",
                            lambda pts, sc: scans.append((pts, sc)) or connected_at_scale(pts, sc))
        extract_essential_curve(img)
        for p in (3, 5, 7):
            gluer.slope_line_certificates(img, p)
        monkeypatch.undo()
        assert merges and scans
        for points, radius in merges + scans:
            for r in [radius] + _attained_radii(rng, points, 3):
                got, expected = _proximity_answers(points, r)
                assert got == expected
        # the dedups of intersection hits, and distinct_points on image points
        swapped = img.transform_arcs(GluingMatrix.swap())
        hits = 0
        for a1 in img.arcs:
            for a2 in [a for a in img.arcs if a is not a1] + list(swapped):
                got = polyline_intersections(a1, a2)
                assert repr(got) == repr(_polyline_intersections_reference(a1, a2))
                hits += len(got)
        assert hits
        pts = [r.point for r in img.points] + [v for arc in img.arcs for v in arc.vertices]
        assert repr(distinct_points(pts)) == repr(_distinct_points_reference(pts, 1e-6))
        assert repr(_distinct(pts, img.grid_step)) == \
            repr(_distinct_points_reference(pts, img.grid_step))

# ---------------------------------------------------------------------------
# the LM sweep engine against the fixed-block loop it replaced

def _ambient_jacobian(words, targets, params, F):
    """(None, J): the 4n-coordinate probes of the LM before it stepped in tangent space.

    Column 4i + q of the (m, 4n, B) J moves component q of generator i by 1e-7.
    """
    b, n, _ = params.shape
    npar = 4 * n
    diag = np.arange(npar)
    pert = np.repeat(params.reshape(1, b, npar), npar, axis=0)
    pert[diag, :, diag] += 1e-7
    Fp = solver._residuals(pert.reshape(npar * b, n, 4), words, np.tile(targets, (npar, 1)))
    J = np.ascontiguousarray(((Fp.reshape(npar, b, -1) - F) / 1e-7).transpose(2, 0, 1))
    return None, J


def _ambient_step(params, basis, delta):
    """The 4n-coordinate step: renorm(params + delta), delta flat per row."""
    return solver._renorm((params.reshape(len(params), -1) + delta).reshape(params.shape))


def _tangent_jacobian(words, targets, params, F):
    """(basis, J): the tangent probes of rows params whose residuals are F, on their own.

    J is the (m, 3n, B) forward-difference Jacobian along
    _tangent_basis(params): column 3i + c probes params with generator i
    moved to g + _FD_STEP * (g * e_c), every probe in one residual
    evaluation against tiled targets.
    """
    b, n, _ = params.shape
    npar = 3 * n
    basis = solver._tangent_basis(params)
    moved = (params[:, :, None] + solver._FD_STEP * basis).transpose(1, 2, 0, 3)
    pert = np.empty((n, 3, b, n, 4))
    pert[...] = params
    for i in range(n):
        pert[i, :, :, i] = moved[i]
    Fp = solver._residuals(pert.reshape(npar * b, n, 4), words, np.tile(targets, (npar, 1)))
    J = ((Fp.reshape(npar, b, -1) - F) / solver._FD_STEP).transpose(2, 0, 1)
    return basis, np.ascontiguousarray(J)


TANGENT = (_tangent_jacobian, solver._tangent_step)
AMBIENT = (_ambient_jacobian, _ambient_step)


def _lm_minimize_reference(words, targets, params0, tol, on_step=None, coords=TANGENT):
    """The fixed-block LM loop: every row of the batch steps until the slowest is done.

    It probes the normal equations on every step and runs rejected polish
    steps to the end.  coords is the (jacobian, step) pair: TANGENT, the
    helpers of _lm_minimize, or AMBIENT, the 4n-coordinate LM it replaced.
    on_step(idx, conv, better, params, F, cost, polish_left) sees the state
    after each step.
    """
    jacobian, step = coords
    params = solver._renorm(params0.copy())
    B = len(params)
    lam = np.full(B, 1e-3)

    def cost_of(p, t):
        F = solver._residuals(p, words, t)
        return F, np.einsum("bm,bm->b", F, F)

    F, cost = cost_of(params, targets)
    target2 = (0.25 * tol) ** 2
    polish_left = np.full(B, solver._POLISH_STEPS, dtype=int)
    for _ in range(solver._MAX_ITER + solver._POLISH_STEPS):
        converged = cost <= target2
        dead = lam > 1e9
        done = (converged & (polish_left <= 0)) | (dead & ~converged)
        idx = np.nonzero(~done)[0]
        if not len(idx):
            break
        T = targets[idx]
        Fs = F[idx]
        basis, J = jacobian(words, T, params[idx], Fs)
        A, JTF = solver._normal_equations(J, Fs)
        diag = np.arange(J.shape[1])
        del J
        conv = converged[idx]
        A[:, diag, diag] += np.where(conv, 1e-12, lam[idx])[:, None]
        trial = step(params[idx], basis, -solver._solve_rows(A, JTF))
        Ft, cost_t = cost_of(trial, T)
        better = cost_t < cost[idx]
        take = idx[better]
        params[take] = trial[better]
        F[take] = Ft[better]
        cost[take] = cost_t[better]
        polish_left[idx[conv]] -= 1
        up = idx[~conv & better]
        lam[up] = np.maximum(lam[up] * 0.35, 1e-12)
        lam[idx[~conv & ~better]] *= 8.0
        if on_step is not None:
            on_step(idx, conv, better, params, F, cost, polish_left)
    seg = F.reshape(B, len(words), 1, 4)
    max_res = np.sqrt(seg @ seg.transpose(0, 1, 3, 2)).max(axis=(1, 2, 3), initial=0.0)
    return params, max_res


def _sweep_reference(pres, alphas, keys, config, coords=TANGENT):
    """The old _sweep: one reference LM call per block of whole nodes."""
    per_block = max(1, solver._BLOCK_ROWS // config.restarts)
    out = []
    for start in range(0, len(alphas), per_block):
        block = range(start, min(start + per_block, len(alphas)))
        words, targets, params0 = _sweep_rows(
            pres, [alphas[i] for i in block], [keys[i] for i in block], config)
        params, max_res = _lm_minimize_reference(words, targets, params0, config.tol,
                                                 coords=coords)
        out.extend(_node_solutions(pres, params, max_res, config, len(block)))
    return out


def _refine_reference(pres, seed_rep, config):
    """The old refine_representation, on the reference LM."""
    words = list(pres.relators)
    targets = np.array([[1.0, 0.0, 0.0, 0.0] * len(words)])
    params0 = np.array([[[q.w, q.x, q.y, q.z] for q in seed_rep.images]])
    params, max_res = _lm_minimize_reference(words, targets, params0, config.tol)
    return _rep_from_params(params[0]) if max_res[0] < config.tol else None


def _assert_same_lm(words, targets, params0):
    params, max_res = _lm_minimize(words, targets, params0, CFG.tol)
    ref_params, ref_max_res = _lm_minimize_reference(words, targets, params0, CFG.tol)
    assert params.tobytes() == ref_params.tobytes()
    assert max_res.tobytes() == ref_max_res.tobytes()
    return params, max_res


_SWEEP_MODELS = [torus_knot_model(2, 3), torus_knot_model(-2, 3), klein_bottle_model()]


class TestWindowedLM:
    @pytest.mark.parametrize("restarts, nodes", [(20, 25), (7, 60)])
    @pytest.mark.parametrize("model", _SWEEP_MODELS, ids=["trefoil", "trefoil-neg", "klein"])
    def test_sweep_matches_block_loop(self, model, restarts, nodes):
        # 500 or 420 rows: the 256-row window refills in mid-node and out of
        # step with the dedup groups of 12 or 36 nodes, which are the
        # reference's blocks
        config = SolverConfig(restarts=restarts)
        pres = model.presentation
        alphas = [float(a) for a in np.linspace(0.0, PI, nodes)]
        got = _sweep(pres, alphas, range(nodes), config)
        assert repr(got) == repr(_sweep_reference(pres, alphas, range(nodes), config))
        assert sum(map(len, got)) > 0
        # the rows of all nodes in one call, against the reference per block
        per_block = solver._BLOCK_ROWS // restarts
        words, targets, params0 = _sweep_rows(pres, alphas, range(nodes), config)
        params, max_res = _lm_minimize(words, targets, params0, config.tol)
        for start in range(0, len(params0), per_block * restarts):
            rows = slice(start, start + per_block * restarts)
            ref = _lm_minimize_reference(words, targets[rows], params0[rows], config.tol)
            assert params[rows].tobytes() == ref[0].tobytes()
            assert max_res[rows].tobytes() == ref[1].tobytes()

    def test_one_node_sweep(self):
        pres = torus_knot_model(2, 3).presentation
        key = [int(round(PI / 3 * 1e9))]
        got = _sweep(pres, [PI / 3], key, CFG)
        assert repr(got) == repr(_sweep_reference(pres, [PI / 3], key, CFG))
        assert got[0]

    @pytest.mark.parametrize("rows", [1, solver._BLOCK_ROWS, solver._BLOCK_ROWS + 1])
    def test_lm_minimize_rows(self, rows):
        pres = torus_knot_model(2, 3).presentation
        alphas = np.random.default_rng(rows).uniform(0.0, PI, rows)
        words, targets, params0 = _sweep_rows(pres, alphas, range(rows),
                                              SolverConfig(restarts=1))
        _, max_res = _assert_same_lm(words, targets, params0)
        assert (max_res < CFG.tol).any()

    def test_rows_finished_on_entry(self):
        # rows that start converged polish like the reference's
        pres = torus_knot_model(2, 3).presentation
        words, targets, params0 = _sweep_rows(pres, [PI / 3, PI / 2], [1, 2], CFG)
        params, max_res = _lm_minimize(words, targets, params0, CFG.tol)
        # solved rows at even places, their random starts at odd ones
        start = np.where(((max_res < CFG.tol) & (np.arange(len(params)) % 2 == 0))
                         [:, None, None], params, params0)
        F = solver._residuals(solver._renorm(start), words, targets)
        converged = np.einsum("bm,bm->b", F, F) <= (0.25 * CFG.tol) ** 2
        assert converged.any() and not converged.all()
        _assert_same_lm(words, targets, start)

    def test_refine_from_swap_splice_seeds(self, monkeypatch):
        cfg = SolverConfig(resolution=40, seed=1)
        seeds = [(pres, seed) for pres, seed, _ in
                 _refine_seeds(monkeypatch, gluer, lambda: _swap_splice_search(cfg))]
        assert len(seeds) >= 3
        results = [solver.refine_representation(pres, seed, cfg) for pres, seed in seeds]
        assert repr(results) == repr([_refine_reference(pres, seed, cfg)
                                      for pres, seed in seeds])

    def test_refine_from_swap_splice_seeds_is_pinned(self, monkeypatch):
        # the reference above shares _renorm and _residuals with the solver,
        # so this pins the refined representations themselves
        cfg = SolverConfig(resolution=40, seed=1)
        seeds = [(pres, seed) for pres, seed, _ in
                 _refine_seeds(monkeypatch, gluer, lambda: _swap_splice_search(cfg))]
        results = [solver.refine_representation(pres, seed, cfg) for pres, seed in seeds]
        assert len(results) == 8 and None not in results
        assert hashlib.sha256(repr(results).encode()).hexdigest() == \
            "053cdeb1a0f83afd793c9644714b2c75a9d71566fed5743ca55bba6288448b89"

    def test_rejected_polish_step_is_repeated(self):
        # once the reference rejects a converged row's polish step, every
        # later step of that row leaves its params, F and cost as they were
        pres = torus_knot_model(2, 3).presentation
        alphas = [float(a) for a in np.linspace(0.0, PI, 12)]
        words, targets, params0 = _sweep_rows(pres, alphas, range(12), CFG)
        frozen = {}
        repeated = set()

        def on_step(idx, conv, better, params, F, cost, polish_left):
            for row in idx[conv & ~better].tolist():
                state = (params[row].tobytes(), F[row].tobytes(), cost[row].tobytes())
                if row in frozen:
                    assert state == frozen[row]
                    repeated.add(row)
                else:
                    frozen[row] = state

        _lm_minimize_reference(words, targets, params0, CFG.tol, on_step)
        assert len(repeated) > 10

    def test_fewer_solves_and_residual_rows(self, monkeypatch):
        pres = torus_knot_model(2, 3).presentation
        alphas = [float(a) for a in np.linspace(0.0, PI, 25)]
        with monkeypatch.context() as patch:
            new = _counting(patch, "_solve_rows", "_residuals")
            _sweep(pres, alphas, range(25), CFG)
        counts = _counting(monkeypatch, "_solve_rows", "_residuals")
        _sweep_reference(pres, alphas, range(25), CFG)
        assert new["_solve_rows"][0] < counts["_solve_rows"][0]
        assert new["_residuals"][1] < counts["_residuals"][1]

    @pytest.mark.parametrize("system", ["swap-splice", "trefoil"])
    def test_one_residual_evaluation_per_step(self, monkeypatch, system):
        # one evaluation per entry chunk of _BLOCK_ROWS rows, then one per
        # step (one _solve_rows call each): the trials and their probes
        if system == "swap-splice":
            cfg = SolverConfig(resolution=40, seed=1)
            pres, seed, _ = _refine_seeds(monkeypatch, gluer,
                                          lambda: _swap_splice_search(cfg))[0]
            run = lambda: solver.refine_representation(pres, seed, cfg)
            rows = 1
        else:
            rows = solver._BLOCK_ROWS + 1
            alphas = np.random.default_rng(rows).uniform(0.0, PI, rows)
            words, targets, params0 = _sweep_rows(torus_knot_model(2, 3).presentation,
                                                  alphas, range(rows),
                                                  SolverConfig(restarts=1))
            run = lambda: _lm_minimize(words, targets, params0, CFG.tol)
        counts = _counting(monkeypatch, "_residuals", "_solve_rows")
        run()
        steps = counts["_solve_rows"][0]
        assert steps > 1
        entry_chunks = -(-rows // solver._BLOCK_ROWS)
        assert counts["_residuals"][0] == steps + entry_chunks

    def test_refine_from_surgery_seeds(self, monkeypatch):
        # the filling relator's path: find_surgery_representation refines
        # on the model's presentation with the filling relator appended
        img = sample_pillowcase_image(torus_knot_model(2, 3), 60, CFG)
        seeds = [(pres, seed) for pres, seed, _ in _refine_seeds(monkeypatch, solver, lambda: [
            find_surgery_representation(img, p, q, CFG) for p, q in ((1, 1), (1, 0), (0, 1))])]
        relators = len(img.model.presentation.relators)
        assert len(seeds) >= 3 and all(len(pres.relators) == relators + 1 for pres, _ in seeds)
        results = [solver.refine_representation(pres, seed, CFG) for pres, seed in seeds]
        assert any(r is not None for r in results)
        assert repr(results) == repr([_refine_reference(pres, seed, CFG)
                                      for pres, seed in seeds])


def _counting(monkeypatch, *names):
    """(calls, rows of the first argument) of each named solver function, as it runs."""
    counts = dict.fromkeys(names, (0, 0))

    def wrap(name):
        inner = getattr(solver, name)

        def wrapped(*args):
            calls, rows = counts[name]
            counts[name] = (calls + 1, rows + len(args[0]))
            return inner(*args)
        return wrapped

    for name in names:
        monkeypatch.setattr(solver, name, wrap(name))
    return counts


def _refine_seeds(monkeypatch, module, run):
    """(pres, seed_rep, config) of each module.refine_representation call of run().

    Each call returns None, so a search or scan goes on to every candidate.
    """
    seeds = []

    def record(pres, seed_rep, config=None):
        seeds.append((pres, seed_rep, config))

    with monkeypatch.context() as patch:
        patch.setattr(module, "refine_representation", record)
        run()
    return seeds


def _swap_splice_search(config):
    tre = torus_knot_model(2, 3)
    return gluer.search_nonabelian_rep(splice(tre, tre, GluingMatrix.swap()), config)


# ---------------------------------------------------------------------------
# tangent-space LM steps

def _seeded_units(seed, B, n):
    params = np.random.default_rng(seed).standard_normal((B, n, 4))
    return params / np.linalg.norm(params, axis=2, keepdims=True)


def _jacobian_systems():
    """(name, words, targets, params) for the sweep and refine systems, on seeded rows."""
    out = []
    for name, model in (("trefoil", torus_knot_model(2, 3)), ("klein", klein_bottle_model())):
        pres = model.presentation
        alphas = np.random.default_rng(5).uniform(0.0, PI, 16)
        words, targets, _ = _sweep_rows(pres, alphas, range(16), SolverConfig(restarts=1))
        out.append((name, words, targets, _seeded_units(6, 16, pres.generator_count)))
    tre = torus_knot_model(2, 3)
    pres = splice(tre, tre, GluingMatrix.swap()).amalgamated
    words = list(pres.relators)
    targets = np.tile([1.0, 0.0, 0.0, 0.0] * len(words), (16, 1))
    out.append(("swap-splice", words, targets, _seeded_units(7, 16, pres.generator_count)))
    return out


class TestTangentHelper:
    def test_basis_is_right_multiplication_by_i_j_k(self):
        params = _random_stacks(np.random.default_rng(11), 64, 3)
        basis = solver._tangent_basis(params)
        assert basis.shape == (64, 3, 3, 4)
        units = [UnitQuaternion(0.0, 1.0, 0.0, 0.0), UnitQuaternion(0.0, 0.0, 1.0, 0.0),
                 UnitQuaternion(0.0, 0.0, 0.0, 1.0)]
        for b in range(64):
            for i in range(3):
                g = UnitQuaternion(*params[b, i].tolist())
                for c, e in enumerate(units):
                    assert basis[b, i, c].tolist() == list(_components_of(g * e))

    def test_basis_is_orthonormal_and_tangent(self):
        params = _seeded_units(12, 200, 4)
        basis = solver._tangent_basis(params)
        gram = np.einsum("bncq,bndq->bncd", basis, basis)
        assert np.abs(gram - np.eye(3)).max() < 1e-15
        assert np.abs(np.einsum("bncq,bnq->bnc", basis, params)).max() < 1e-15

    @pytest.mark.parametrize("system", _jacobian_systems(), ids=lambda s: s[0])
    def test_jacobian_is_ambient_jacobian_times_basis(self, system):
        _, words, targets, params = system
        B, n, _ = params.shape
        F, basis, Fp = solver._probed_residuals(words, targets, params,
                                                  solver._Workspace())
        J = solver._jacobian(F, Fp)
        assert J.shape == (F.shape[1], 3 * n, B)
        _, J4 = _ambient_jacobian(words, targets, params, F)
        J, J4 = J.transpose(2, 0, 1), J4.transpose(2, 0, 1)
        # column 3i + c is the derivative along basis[i, c]: the ambient
        # columns 4i..4i+3 dotted with that direction.  The two forward
        # differences differ by their truncation errors, fd/2 times second
        # derivatives that grow with the square of the word length: the
        # trefoil's 5-letter words differ by 7.2e-7, the swap splice's
        # 16-letter words by 2.9e-6
        expected = np.einsum("bmnq,bncq->bmnc", J4.reshape(B, -1, n, 4), basis)
        longest = max(map(len, words))
        bound = max(1e-6, solver._FD_STEP * longest ** 2 / 4)
        assert np.abs(J - expected.reshape(B, -1, 3 * n)).max() < bound

    @pytest.mark.parametrize("system", _jacobian_systems(), ids=lambda s: s[0])
    def test_probes_match_the_reference_probe(self, system):
        # the rows and their probes in one evaluation, bit for bit the
        # residuals, basis and Jacobian of the rows, then their probes alone
        _, words, targets, params = system
        F, basis, Fp = solver._probed_residuals(words, targets, params,
                                                  solver._Workspace())
        F_ref = solver._residuals(params, words, targets)
        basis_ref, J_ref = _tangent_jacobian(words, targets, params, F_ref)
        assert F.tobytes() == F_ref.tobytes()
        assert basis.tobytes() == basis_ref.tobytes()
        assert solver._jacobian(F, Fp).tobytes() == J_ref.tobytes()

    @pytest.mark.parametrize("system", _jacobian_systems(), ids=lambda s: s[0])
    def test_targets_broadcast_over_row_blocks(self, system):
        _, words, targets, params = system
        blocks = 1 + 3 * params.shape[1]
        stack = np.concatenate([params] * blocks)
        stack[len(params):] += 1e-3 * _seeded_units(8, len(stack) - len(params),
                                                    params.shape[1])
        got = solver._residuals(stack, words, targets)
        tiled = np.tile(targets, (blocks, 1))
        assert got.tobytes() == solver._residuals(stack, words, tiled).tobytes()
        # the word values, evaluated one by one and joined, minus tiled targets
        tables = _LetterTables(stack.transpose(1, 2, 0))
        joined = np.concatenate([_eval_batch(tables, w, np.empty((tables.rows, 4)))
                                 for w in words], axis=1)
        assert got.tobytes() == (joined - tiled).tobytes()

    def test_step_moves_along_the_basis(self):
        params = _seeded_units(13, 32, 2)
        basis = solver._tangent_basis(params)
        delta = np.random.default_rng(14).standard_normal((32, 6)) * 1e-3
        moved = params + np.einsum("bnc,bncq->bnq", delta.reshape(32, 2, 3), basis)
        expected = moved / np.linalg.norm(moved, axis=2, keepdims=True)
        got = solver._tangent_step(params, basis, delta)
        assert np.abs(got - expected).max() < 1e-15
        assert np.abs(np.linalg.norm(got, axis=2) - 1.0).max() < 1e-15

    @pytest.mark.parametrize("B", [1, 2, 255, 1536])
    @pytest.mark.parametrize("m, p", [(8, 6), (24, 12)])
    def test_normal_equations_sum_in_order(self, B, m, p):
        # each row's sums run over m in order, whatever the batch size
        rng = np.random.default_rng(B + m)
        J = rng.standard_normal((m, p, B)) * 10.0 ** rng.integers(-3, 3, (m, p, B))
        F = rng.standard_normal((B, m)) * 10.0 ** rng.integers(-3, 3, (B, m))
        JTJ, JTF = solver._normal_equations(J, F)
        expected_jtj = J[0, :, None] * J[0, None, :]
        expected_jtf = J[0] * F[:, 0]
        for k in range(1, m):
            expected_jtj = expected_jtj + J[k, :, None] * J[k, None, :]
            expected_jtf = expected_jtf + J[k] * F[:, k]
        assert JTJ.tobytes() == np.ascontiguousarray(expected_jtj.transpose(2, 0, 1)).tobytes()
        assert JTF.tobytes() == np.ascontiguousarray(expected_jtf.T).tobytes()


def _witness_points(pres, node):
    return [boundary_angles(rep, pres) for rep, _ in node]


# the trefoil's irreducible arc meets the reducible line beta = 0 at
# alpha = pi/6 and 5pi/6, where e^{2i alpha} is a root of its Alexander
# polynomial; the 25-node grid puts nodes 4 and 20 on them
_ARC_ENDS = (PI / 6, 5 * PI / 6)


class TestWorkspace:
    @pytest.mark.parametrize("system", ["trefoil", "swap-splice"])
    def test_residuals_reuse_one_workspace(self, system):
        # batches that shrink and grow again read only their own prefixes:
        # every batch's bytes are those of a fresh evaluation
        tre = torus_knot_model(2, 3)
        pres = tre.presentation if system == "trefoil" else \
            splice(tre, tre, GluingMatrix.swap()).amalgamated
        workspace = _Workspace()
        for i, rows in enumerate([1792, 7, 1, 574, 1792]):
            params = _seeded_units(20 + i, rows, pres.generator_count)
            if system == "trefoil":
                alphas = np.random.default_rng(i).uniform(0.0, PI, rows)
                words, targets, _ = _sweep_rows(pres, alphas, range(rows),
                                                SolverConfig(restarts=1))
            else:
                words = list(pres.relators)
                targets = np.tile([1.0, 0.0, 0.0, 0.0] * len(words), (rows, 1))
            got = solver._residuals(params, words, targets, workspace)
            assert got.tobytes() == solver._residuals(params, words, targets).tobytes()

    def test_lm_call_allocates_a_buffer_only_when_it_grows(self, monkeypatch):
        # the 520 discovery rows of a trefoil r=200 sweep in one LM call
        requests, allocations = [], []
        take, allocate = _Workspace.take, _Workspace._allocate

        def counted_take(workspace, key, shape):
            requests.append((id(workspace), key, math.prod(shape)))
            return take(workspace, key, shape)

        def counted_allocate(size):
            allocations.append(size)
            return allocate(size)

        monkeypatch.setattr(_Workspace, "take", counted_take)
        monkeypatch.setattr(_Workspace, "_allocate", staticmethod(counted_allocate))
        nodes = solver._discovery_nodes(200)
        grid = np.linspace(0.0, PI, 200)
        words, targets, params0 = _sweep_rows(torus_knot_model(2, 3).presentation,
                                              [float(grid[i]) for i in nodes], nodes,
                                              SolverConfig())
        assert len(params0) == 520
        _lm_minimize(words, targets, params0, CFG.tol)
        assert len({ws for ws, _, _ in requests}) == 1
        largest, grown = {}, []
        for _, key, size in requests:
            if size > largest.get(key, 0):
                largest[key] = size
                grown.append(size)
        assert allocations == grown
        assert len(allocations) < len(requests) // 10

    def test_sweeps_repeat_across_models(self):
        trefoil, klein = torus_knot_model(2, 3), klein_bottle_model()
        first = repr(sample_pillowcase_image(trefoil, 60, CFG))
        sample_pillowcase_image(klein, 60, CFG)
        assert repr(sample_pillowcase_image(trefoil, 60, CFG)) == first


class TestTangentOutputPolicy:
    """Tangent-space LM against the 4n-coordinate LM it replaced, on whole sweeps."""

    @pytest.mark.parametrize("nodes", [25, 60])
    @pytest.mark.parametrize("model", _SWEEP_MODELS[:2], ids=["trefoil", "trefoil-neg"])
    def test_trefoil_witnesses_unchanged(self, model, nodes):
        pres = model.presentation
        alphas = [float(a) for a in np.linspace(0.0, PI, nodes)]
        got = _sweep(pres, alphas, range(nodes), CFG)
        old = _sweep_reference(pres, alphas, range(nodes), CFG, coords=AMBIENT)
        assert [len(node) for node in got] == [len(node) for node in old]
        for alpha, new_node, old_node in zip(alphas, got, old):
            # at an arc end the variety is singular: a witness there is only
            # determined to the solver tolerance, and it moves by up to 1.1e-9
            bound = 1e-8 if min(abs(alpha - a) for a in _ARC_ENDS) < 1e-12 else 1e-12
            for p, q in zip(_witness_points(pres, new_node), _witness_points(pres, old_node)):
                assert pillowcase_distance(p, q) < bound
        assert sum(map(len, got)) > 0

    @pytest.mark.parametrize("nodes", [25, 60])
    def test_klein_witnesses_unchanged_off_alpha_pi(self, nodes):
        pres = klein_bottle_model().presentation
        alphas = [float(a) for a in np.linspace(0.0, PI, nodes)]
        got = _sweep(pres, alphas, range(nodes), CFG)
        old = _sweep_reference(pres, alphas, range(nodes), CFG, coords=AMBIENT)
        assert [len(node) for node in got] == [len(node) for node in old]
        for alpha, new_node, old_node in zip(alphas, got, old):
            new_pts = _witness_points(pres, new_node)
            if alpha == PI:
                # the alpha = pi family: its witnesses may slide along beta
                assert len(new_pts) == 20
                assert all(abs(p.alpha - PI) < 1e-6 for p in new_pts)
                continue
            # equal as sets: near-equal gaps may sort the other way round
            unmatched = _witness_points(pres, old_node)
            for p in new_pts:
                k = min(range(len(unmatched)),
                        key=lambda j: pillowcase_distance(p, unmatched[j]))
                assert pillowcase_distance(p, unmatched.pop(k)) < 1e-12
