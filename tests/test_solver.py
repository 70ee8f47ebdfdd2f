import math

import numpy as np
import pytest

from pillowcase import solver
from pillowcase.families import (klein_bottle_model, torus_knot_model,
                                 unknot_model)
from pillowcase.geometry import (GluingMatrix, canonicalize, essential_class,
                                 line_crossings, line_offset,
                                 pillowcase_distance, polyline, tau)
from pillowcase.gluer import splice
from pillowcase.presentations import concat, pow_word
from pillowcase.solver import (PillowcaseImage, SolverConfig,
                               corner_diagnostics, extract_essential_curve,
                               find_surgery_representation, lift_to_cut_open,
                               reducible_lines, sample_pillowcase_image,
                               solve_at_meridian_angle, _components,
                               _distinct_solutions, _eval_batch, _lm_minimize,
                               _qmul, _rep_from_params, _relator_residuals,
                               _solve_rows)
from pillowcase.su2 import (Representation, UnitQuaternion, boundary_angles,
                            evaluate_word, irreducibility_gap, relator_residual)

PI = math.pi
CFG = SolverConfig()


@pytest.fixture(scope="module")
def trefoil_image():
    return sample_pillowcase_image(torus_knot_model(2, 3), 120, CFG)


@pytest.fixture(scope="module")
def klein_image():
    return sample_pillowcase_image(klein_bottle_model(), 60, CFG)


class TestSolveAtAngle:
    def test_trefoil_pi_over_3(self):
        tre = torus_knot_model(2, 3)
        sols = solve_at_meridian_angle(tre.presentation, PI / 3, CFG)
        assert sols
        irr = [s for s in sols if irreducibility_gap(s) > 1e-3]
        assert irr
        pt = boundary_angles(irr[0], tre.presentation)
        # on the irreducible branch 6a + b = pi, beta is pi here
        assert pillowcase_distance(pt, canonicalize(PI / 3, PI)) < 1e-7
        assert relator_residual(irr[0], tre.presentation) < CFG.tol

    def test_trefoil_below_branch(self):
        tre = torus_knot_model(2, 3)
        sols = solve_at_meridian_angle(tre.presentation, PI / 12, CFG)
        assert sols
        for s in sols:
            assert irreducibility_gap(s) < 1e-6
            pt = boundary_angles(s, tre.presentation)
            assert line_offset(pt, 0, 1, 0) < 1e-7

    def test_meridian_filling_kills_everything(self):
        tre = torus_knot_model(2, 3)
        for s in solve_at_meridian_angle(tre.presentation, 0.0, CFG):
            assert all(q.dist_to_one() < 1e-6 for q in s.images)

    def test_unknot(self):
        unk = unknot_model()
        sols = solve_at_meridian_angle(unk.presentation, 1.1, CFG)
        assert len(sols) == 1
        pt = boundary_angles(sols[0], unk.presentation)
        assert pillowcase_distance(pt, canonicalize(1.1, 0.0)) < 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            solve_at_meridian_angle(unknot_model().presentation, -0.5, CFG)


class TestReducibleLines:
    def test_trefoil_line(self):
        lines = reducible_lines(torus_knot_model(2, 3))
        assert len(lines) == 1
        for v in lines[0].vertices:
            assert line_offset(v, 0, 1, 0) < 1e-12

    def test_klein_lines(self):
        lines = reducible_lines(klein_bottle_model())
        offsets = set()
        for line in lines:
            vals = {round(line_offset(v, 0, 1, 0), 6) for v in line.vertices}
            assert len(vals) == 1
            offsets.add(vals.pop())
        assert offsets == {0.0, round(PI, 6)}


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
                              grid_step=0.4, chain_threshold=0.8,
                              points=(), arcs=(loop,))
        found = extract_essential_curve(img)
        assert found is not None and abs(essential_class(found)) == 1


def _surgery_reference(img, p, q, config):
    """find_surgery_representation scanning every raw crossing, repeats too."""
    pres = img.model.presentation
    filling = concat(pow_word(pres.meridian, p), pow_word(pres.longitude, q))
    for pt in [pt for arc in img.arcs for pt in line_crossings(arc, p, q)]:
        witness = solver._nearest_witness(img, pt, config)
        if witness is None:
            continue
        refined = solver.refine_representation(pres, witness.witness, config,
                                               extra_relators=(filling,))
        if refined is None:
            continue
        gap = irreducibility_gap(refined)
        res = relator_residual(refined, pres.with_relator(filling))
        if res < config.tol and gap > config.irreducible_gap:
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
        img = request.getfixturevalue(f"{name}_image")
        scanned = []
        scan = solver._nearest_witness

        def counting(img, pt, config):
            scanned.append(pt)
            return scan(img, pt, config)

        monkeypatch.setattr(solver, "_nearest_witness", counting)
        expected = _surgery_reference(img, p, q, CFG)
        reference_scans = len(scanned)
        scanned.clear()
        assert repr(find_surgery_representation(img, p, q, CFG)) == repr(expected)
        raw = [pt for arc in img.arcs for pt in line_crossings(arc, p, q)]
        distinct = list(dict.fromkeys(raw))
        assert scanned == distinct[:len(scanned)]
        assert len(scanned) <= reference_scans
        if expected is None:
            assert reference_scans == len(raw) and len(scanned) == len(distinct)

    def test_nearest_point(self):
        from pillowcase.solver import ImagePoint
        rep = Representation((UnitQuaternion(1.0, 0.0, 0.0, 0.0),))
        recs = [ImagePoint(canonicalize(1.0, 1.0 + d), rep, gap)
                for d, gap in ((0.25, 0.5), (0.125, 0.0), (-0.125, 0.2), (0.125, 0.2))]
        img = PillowcaseImage(model=unknot_model(), resolution=8, grid_step=0.4,
                              chain_threshold=0.8, points=tuple(recs), arcs=())
        pt = canonicalize(1.0, 1.0)
        # the first of equally near points wins; gap <= min_gap is skipped
        rec, d = img.nearest_point(pt)
        assert rec is recs[1] and d == pillowcase_distance(recs[1].point, pt)
        assert img.nearest_point(pt, min_gap=0.0)[0] is recs[2]
        assert img.nearest_point(pt, min_gap=0.2)[0] is recs[0]
        assert img.nearest_point(pt, min_gap=0.5) == (None, math.inf)


class TestDiagnosticsAndDeterminism:
    def test_corner_diagnostics_trefoil(self, trefoil_image):
        assert corner_diagnostics(trefoil_image, eps=0.01) == []

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


def _witness_bytes(reps):
    return np.array([[(q.w, q.x, q.y, q.z) for q in rep.images]
                     for rep in reps]).tobytes()


class TestSweepEngine:
    @pytest.mark.parametrize("model", [torus_knot_model(2, 3), klein_bottle_model()],
                             ids=["trefoil", "klein"])
    def test_batched_sweep_matches_per_node(self, model):
        # 25 nodes x 20 restarts = 500 rows: two full blocks and a short one
        img = sample_pillowcase_image(model, 25, CFG)
        grid = np.linspace(0.0, PI, 25)
        per_node = [rep for i in range(25) for rep in solve_at_meridian_angle(
            model.presentation, float(grid[i]), CFG, _seed_extra=i)]
        assert len(img.points) == len(per_node) > 0
        assert _witness_bytes(r.witness for r in img.points) == _witness_bytes(per_node)

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

    @pytest.mark.parametrize("B", [1, 2048])
    def test_eval_batch_matches_evaluate_word(self, B):
        rng = np.random.default_rng(B)
        params = _random_stacks(rng, B, 3)
        reps = [Representation(tuple(UnitQuaternion(*q) for q in row))
                for row in params.tolist()]
        comps = _components(params)
        zero_signs = set()
        for word in [(), (1,), (-2,), (1, 1, -2, -2, -2), (3, -1, 2, -3, -3, 1, -2)]:
            got = _eval_batch(comps, word)
            for b in range(B):
                assert _reprs(got[b]) == _reprs(_components_of(evaluate_word(reps[b], word)))
            zero_signs |= {math.copysign(1.0, v) for v in got[got == 0.0]}
        if B > 1:
            assert zero_signs == {1.0, -1.0}


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
        if any(all(abs(u - v) < config.dedup_tol for u, v in zip(sig, other))
               for other, _ in accepted):
            continue
        accepted.append((sig, rep))
    reps = [rep for _, rep in accepted]
    reps.sort(key=lambda r: (-irreducibility_gap(r), _invariant_signature_reference(r, pres)))
    return reps


def _lm_block(model, alphas, config):
    """The LM-solved restarts of one sweep block, node i at meridian angle alphas[i]."""
    pres = model.presentation
    params0 = np.concatenate([
        np.random.default_rng([config.seed, i]).standard_normal(
            (config.restarts, pres.generator_count, 4)) for i in range(len(alphas))])
    targets = np.repeat([[1.0, 0.0, 0.0, 0.0] * len(pres.relators)
                         + [math.cos(a), math.sin(a), 0.0, 0.0] for a in alphas],
                        config.restarts, axis=0)
    return _lm_minimize(list(pres.relators) + [pres.meridian], targets, params0,
                        config.tol, config.max_iter, config.polish_steps)


def _matches_reference(pres, params, max_res, nodes):
    per = len(params) // nodes
    expected = [_distinct_solutions_reference(pres, params[k * per:(k + 1) * per],
                                              max_res[k * per:(k + 1) * per], CFG)
                for k in range(nodes)]
    got = _distinct_solutions(pres, params, max_res, CFG, nodes)
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
