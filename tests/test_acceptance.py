"""Acceptance suite: one test per criterion, with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion together with its runtime.
"""

import math
import time

import numpy as np

from pillowcase.families import (klein_bottle_model, klein_filling_analysis,
                                 torus_knot_model)
from pillowcase.geometry import (GluingMatrix, P_POINT, Q_POINT, TWO_PI,
                                 canonicalize, essential_class, line_offset,
                                 pillowcase_distance, sigma, sigma_p, tau)
from pillowcase.gluer import search_nonabelian_rep, splice
from pillowcase.homology import (AbelianGroup, enumerate_standard_tuples,
                                 filling_homology, glue_homology,
                                 invariant_factors, replay_standard_form,
                                 seifert_h1, smith_normal_form,
                                 standard_form_reduce)
from pillowcase.presentations import concat, pow_word
from pillowcase.solver import (SolverConfig, extract_essential_curve,
                               find_surgery_representation)
from pillowcase.su2 import irreducibility_gap, relator_residual

from images import image
from oracles import minor_gcd_invariants

PI = math.pi
CFG = SolverConfig()


def report(number, name, started):
    print(f"\nACCEPTANCE {number} ({name}): PASS ({time.monotonic() - started:.1f}s)")


def test_criterion_1_involution_algebra():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    pts = [canonicalize(a, b) for a, b in
           zip(rng.uniform(0, PI, 10_000), rng.uniform(0, TWO_PI, 10_000))]
    for pt in pts:
        assert pillowcase_distance(sigma(sigma(pt)), pt) <= 1e-12
        assert pillowcase_distance(tau(tau(pt)), pt) <= 1e-12
        for p in (3, 5, 7):
            assert pillowcase_distance(sigma_p(p, sigma_p(p, pt)), pt) <= 1e-12
        assert pillowcase_distance(sigma(tau(pt)), tau(sigma(pt))) <= 1e-12
    for p in (3, 5, 7):
        assert sigma_p(p, P_POINT) == P_POINT
        assert sigma_p(p, Q_POINT).as_tuple() == (PI, 0.0)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(1, "involution algebra", started)


def test_criterion_2_klein_bottle_model():
    started = time.monotonic()
    model = klein_bottle_model()
    img = image(model, 100)
    irr = img.irreducible_points()
    assert irr, "sweep found no irreducible witnesses"
    for rec in irr:
        assert abs(rec.point.alpha - PI) <= 1e-6
    for p in range(1, 11):
        analysis = klein_filling_analysis(p, 1)
        snf_order = filling_homology(model, (p, 1)).order()
        assert analysis.order == snf_order == 4 * p
    for slope in ((1, 2), (2, 3), (1, 3)):
        analysis = klein_filling_analysis(*slope)
        assert analysis.kind == "nonabelian"
        assert analysis.residual < 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(2, "Klein-bottle model", started)


def test_criterion_3_trefoil_image():
    img = image(torus_knot_model(2, 3), 200)
    started = time.monotonic()
    irr = img.irreducible_points()
    assert irr
    on_line = sum(1 for rec in irr if line_offset(rec.point, 6, 1, PI) <= 1e-6)
    assert on_line >= 0.95 * len(irr), \
        f"only {on_line}/{len(irr)} witnesses on the branch"
    for rec in irr:
        assert PI / 6 - 0.02 < rec.point.alpha < 5 * PI / 6 + 0.02
    curve = extract_essential_curve(img)
    assert curve is not None
    assert abs(essential_class(curve)) == 1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"
    report(3, "trefoil image", started)


def _swap_branch_oracle():
    """Residue-branch intersections of 6a+b=pi with its coordinate swap.

    Adding the congruences gives a+b = 2piK/7, subtracting gives
    a-b = 2piL/5 with K+1 = L mod 2; both sides must land on the open
    branch alpha in (pi/6, 5pi/6).
    """
    out = []
    for K in range(1, 7):
        for L in range(-2, 3):
            if (K - 1 + L) % 2 != 0:
                continue
            pt = canonicalize(PI * K / 7 + PI * L / 5, PI * K / 7 - PI * L / 5)
            swapped = canonicalize(pt.beta, pt.alpha)
            if PI / 6 < pt.alpha < 5 * PI / 6 and \
                    PI / 6 < swapped.alpha < 5 * PI / 6:
                out.append(pt)
    assert any(pillowcase_distance(pt, canonicalize(3 * PI / 7, 3 * PI / 7)) < 1e-12
               for pt in out)
    assert any(pillowcase_distance(pt, canonicalize(5 * PI / 7, 5 * PI / 7)) < 1e-12
               for pt in out)
    return out


def test_criterion_4_trefoil_splice():
    tre = torus_knot_model(2, 3)
    img = image(tre, 200)
    started = time.monotonic()
    spliced = splice(tre, tre, GluingMatrix.swap())
    result = search_nonabelian_rep(spliced, CFG, image1=img, image2=img)
    assert result.found
    assert result.residual < 1e-8
    assert result.gap_side1 > 0.1 and result.gap_side2 > 0.1
    branches = _swap_branch_oracle()
    assert min(pillowcase_distance(result.boundary_point, b)
               for b in branches) < 1e-3
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    report(4, "trefoil splice (swap gluing)", started)


def test_criterion_5_motegi_splice():
    started = time.monotonic()
    tre = torus_knot_model(2, 3)
    neg = torus_knot_model(-2, 3)
    gluing = GluingMatrix(a=-6, b=1, p=37, c=-6)
    assert glue_homology(tre, neg, gluing) == AbelianGroup(torsion=(37,), rank=0)
    config = SolverConfig(resolution=400)
    spliced = splice(tre, neg, gluing)
    result = search_nonabelian_rep(spliced, config, image1=image(tre, 400),
                                   image2=image(neg, 400))
    assert not result.found
    # evidence is recorded with the resolution it was gathered at
    assert result.resolution == 400
    report(5, "Motegi splice: H1 = Z/37, no representation found "
              f"(evidence at resolution {result.resolution})", started)


def _random_gluing_tuple(rng, p):
    seeds = [(-1, 0, 1)] if p == 2 else enumerate_standard_tuples(p)
    a, b, c = seeds[rng.integers(len(seeds))]
    for _ in range(int(rng.integers(1, 6))):
        if rng.random() < 0.5:
            q = int(rng.integers(-9, 10))
            a, b, c = a, b + q * a, c + q * p
        else:
            n = int(rng.integers(-9, 10))
            a, b, c = a + n * p, b + n * c, c
    if rng.random() < 0.5:
        a, b, c = -a, b, -c
    return a, b, c


def test_criterion_6_standard_form():
    started = time.monotonic()
    rng = np.random.default_rng(103)
    primes = (2, 3, 5, 7, 11)
    for i in range(1000):
        p = primes[i % len(primes)]
        a, b, c = _random_gluing_tuple(rng, p)
        assert a * c - b * p == -1
        res = standard_form_reduce(a, b, c, p, allow_reversal=True)
        assert res.a * res.c - res.b * p == -1
        assert 0 <= res.b < res.c <= p / 2
        assert replay_standard_form(res) == (a, b, c)
        if p in (2, 3):
            assert res.as_tuple() == (-1, 0, 1)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert len(enumerate_standard_tuples(p)) == (p - 1) // 2
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(6, "standard form", started)


def test_criterion_7_homology_suite():
    started = time.monotonic()
    rng = np.random.default_rng(107)
    for _ in range(500):
        M = rng.integers(-9, 10, size=(5, 5)).tolist()
        D, U, V = smith_normal_form(M)
        assert np.array_equal(
            np.array(D, dtype=object),
            np.array(U, dtype=object) @ np.array(M, dtype=object)
            @ np.array(V, dtype=object))
        assert invariant_factors(M) == minor_gcd_invariants(M)
    checked = 0
    while checked < 200:
        data = [(int(rng.integers(2, 9)), int(rng.integers(-9, 10)))
                for _ in range(3)]
        res = seifert_h1(data)
        if res.order_formula != 0:
            assert res.group.order() == res.order_formula
            checked += 1
    for _ in range(50):
        betas = rng.integers(-9, 10, size=3)
        res = seifert_h1([(2, int(betas[0])), (4, int(betas[1])),
                          (4, int(betas[2]))])
        if res.order_formula != 0:
            assert any(d % 4 == 0 for d in res.group.torsion)
    assert seifert_h1([(2, 1), (3, 1), (5, -4)]).group.is_trivial()
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report(7, "homology suite", started)


def test_criterion_8_surgery_representation():
    tre = torus_knot_model(2, 3)
    img = image(tre, 200)
    started = time.monotonic()
    found = find_surgery_representation(img, 1, 1, CFG)
    assert found is not None
    rep, pt = found
    filled = tre.presentation.with_relator(
        concat(pow_word(tre.presentation.meridian, 1),
               pow_word(tre.presentation.longitude, 1)))
    assert relator_residual(rep, filled) < 1e-8
    # oracle: on the branch 6a+b = pi, the filling relation mu*lam = 1
    # reads 5a = pi mod 2pi, giving a in {pi/5, 3pi/5} on the open branch
    assert min(abs(pt.alpha - PI / 5), abs(pt.alpha - 3 * PI / 5)) < 1e-3
    assert irreducibility_gap(rep) > 0.1
    assert find_surgery_representation(img, 1, 0, CFG) is None
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1min"
    report(8, "surgery representation", started)
