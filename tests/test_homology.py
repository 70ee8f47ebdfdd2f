import hashlib
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from pillowcase.families import (builtin_model, klein_bottle_model, torus_knot_model,
                                 unknot_model)
from pillowcase.geometry import GluingMatrix
from pillowcase.homology import (AbelianGroup, ModelInvalidError,
                                 UnsupportedGluingError, _boundary_coordinates,
                                 _divisible, _filling_relation_matrix,
                                 _glue_relation_matrix, _smith_diagonal, abelianization,
                                 classify_gluing, enumerate_standard_tuples,
                                 filling_homology, glue_homology,
                                 invariant_factors, rational_longitude,
                                 replay_standard_form, seifert_h1,
                                 smith_normal_form, standard_form_reduce)
from pillowcase.presentations import GroupPresentation

from oracles import (abelianized_filling_matrix, abelianized_glue_matrix,
                     integer_determinant, minor_gcd_invariants)


def as_np(M):
    return np.array(M, dtype=object)


def check_snf(M):
    D, U, V = smith_normal_form(M)
    assert np.array_equal(as_np(D), as_np(U) @ as_np(M) @ as_np(V))
    assert abs(integer_determinant(U)) == 1
    assert abs(integer_determinant(V)) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
        assert a >= 0 and b >= 0
    return diag


class TestSmithNormalForm:
    def test_identity(self):
        diag = check_snf([[1, 0], [0, 1]])
        assert diag == [1, 1]

    def test_diag_2_3(self):
        assert check_snf([[2, 0], [0, 3]]) == [1, 6]

    def test_lower_triangular(self):
        assert check_snf([[1, 0], [6, -35]]) == [1, 35]

    def test_random_against_minor_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(120):
            M = rng.integers(-9, 10, size=(5, 5)).tolist()
            check_snf(M)
            assert invariant_factors(M) == minor_gcd_invariants(M)

    def test_rectangular(self):
        rng = np.random.default_rng(43)
        for shape in ((2, 4), (4, 2), (3, 5)):
            M = rng.integers(-6, 7, size=shape).tolist()
            check_snf(M)


def _pin_matrices():
    """Seeded integer matrices of every shape 0x0 .. 8x8, entries -9..9.

    Of the eight drawn per shape, the last four get a zero row, and the last
    two a zero column as well.
    """
    rng = random.Random(3001)
    for n in range(9):
        for m in range(9):
            for k in range(8):
                M = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
                if k >= 4 and n:
                    M[rng.randrange(n)] = [0] * m
                if k >= 6 and m:
                    j = rng.randrange(m)
                    for row in M:
                        row[j] = 0
                yield n, M


class TestSmithFormPin:
    """The Smith forms of every reader, pinned to what they have always given."""

    def test_outputs_are_pinned(self):
        digest = hashlib.sha256()
        for n, M in _pin_matrices():
            D, U, V = smith_normal_form(M)
            diag = [row[i] for i, row in enumerate(D) if i < len(row)]
            nonzero = [d for d in diag if d]
            assert AbelianGroup.from_matrix(M, n) == AbelianGroup(
                torsion=tuple(d for d in nonzero if d > 1), rank=n - len(nonzero))
            digest.update(repr(((D, U, V), _smith_diagonal(M))).encode())
        assert digest.hexdigest() == \
            "a9f0c7f6a461ad2c6b2b96a0acfbfed40ab59a646ecf166b9cd7f902f9f1e165"


class TestEmptyMatrices:
    """Matrices with no rows or no columns read through the same Smith form."""

    def test_no_generators_is_trivial(self):
        assert AbelianGroup.from_matrix([], 0) == AbelianGroup(torsion=(), rank=0)

    def test_no_relations_is_free(self):
        assert AbelianGroup.from_matrix([[], []], 2) == AbelianGroup(torsion=(), rank=2)

    def test_invariant_factors_of_no_rows(self):
        assert invariant_factors([]) == []

    def test_divisible_without_relations(self):
        # H1 of a presentation without relators is Z^2: divisible by p iff
        # every entry is; the classes [3, -6] and [3, 4] are mu and lam
        pres = GroupPresentation(2, (), (1, 1, 1) + (-2,) * 6, (1, 1, 1) + (2,) * 4)
        diag, free_rows, mu, lam = _boundary_coordinates(pres)
        assert diag == [0, 0] and free_rows == [0, 1]
        assert _divisible(diag, mu, 3)
        assert not _divisible(diag, lam, 3)


class TestAbelianization:
    def test_klein(self):
        ab = abelianization(klein_bottle_model().presentation)
        assert ab.matrix.entries == ((0,), (2,))
        assert ab.group() == AbelianGroup(torsion=(2,), rank=1)
        assert ab.longitude_class == (0, 1)

    def test_trefoil(self):
        ab = abelianization(torus_knot_model(2, 3).presentation)
        assert ab.group() == AbelianGroup(torsion=(), rank=1)
        # longitude is nullhomologous: its class lies in the relator image
        g = ab.group()
        assert filling_homology(torus_knot_model(2, 3), (0, 1)).rank == 1

    def test_cyclic(self):
        from pillowcase.presentations import GroupPresentation
        pres = GroupPresentation(1, ((1, 1, 1),), (1,), ())
        assert abelianization(pres).group() == AbelianGroup(torsion=(3,), rank=0)


class TestRationalLongitude:
    def test_trefoil(self):
        cls, order = rational_longitude(torus_knot_model(2, 3))
        assert cls == (0, 1) and order == 1

    def test_klein(self):
        cls, order = rational_longitude(klein_bottle_model())
        assert cls == (0, 1) and order == 2

    def test_unknot(self):
        cls, order = rational_longitude(unknot_model())
        assert cls == (0, 1) and order == 1

    def test_meridian_has_infinite_order(self):
        # mu would be a rational longitude only if it died rationally
        from pillowcase.presentations import GroupPresentation, KnotExteriorModel
        # an invalid model whose boundary dies completely: relators kill both
        pres = GroupPresentation(1, ((1,),), (1,), (1,))
        model = KnotExteriorModel(name="bad", presentation=pres)
        with pytest.raises(ModelInvalidError):
            rational_longitude(model)


class TestFillingHomology:
    def test_klein_3_1(self):
        assert filling_homology(klein_bottle_model(), (3, 1)) == \
            AbelianGroup(torsion=(12,), rank=0)

    def test_trefoil_meridian(self):
        assert filling_homology(torus_knot_model(2, 3), (1, 0)).is_trivial()

    def test_trefoil_5_1(self):
        assert filling_homology(torus_knot_model(2, 3), (5, 1)) == \
            AbelianGroup(torsion=(5,), rank=0)

    def test_surgery_order_is_p(self):
        tre = torus_knot_model(2, 3)
        for p in (2, 3, 7, 11):
            assert filling_homology(tre, (p, 1)).order() == p

    def test_invalid_slope(self):
        with pytest.raises(ValueError):
            filling_homology(torus_knot_model(2, 3), (2, 4))


class TestGlueHomology:
    def test_swap_trefoils_trivial(self):
        tre = torus_knot_model(2, 3)
        assert glue_homology(tre, tre, GluingMatrix.swap()).is_trivial()

    def test_motegi_37(self):
        tre = torus_knot_model(2, 3)
        neg = torus_knot_model(-2, 3)
        g = GluingMatrix(a=-6, b=1, p=37, c=-6)
        assert glue_homology(tre, neg, g) == AbelianGroup(torsion=(37,), rank=0)

    def test_skew_2(self):
        tre = torus_knot_model(2, 3)
        assert glue_homology(tre, tre, GluingMatrix.skew(2)) == \
            AbelianGroup(torsion=(2,), rank=0)

    def test_skew_3(self):
        tre = torus_knot_model(2, 3)
        assert glue_homology(tre, tre, GluingMatrix.skew(3)) == \
            AbelianGroup(torsion=(3,), rank=0)

    def test_exchange_symmetry(self):
        tre = torus_knot_model(2, 3)
        neg = torus_knot_model(-2, 3)
        pairs = [(tre, neg, GluingMatrix(a=-6, b=1, p=37, c=-6)),
                 (tre, tre, GluingMatrix.skew(2)),
                 (klein_bottle_model(), tre, GluingMatrix.swap())]
        for m1, m2, g in pairs:
            h12 = glue_homology(m1, m2, g)
            h21 = glue_homology(m2, m1, g.inverse())
            assert h12 == h21


RELATION_MODELS = ("trefoil", "trefoil-neg", "klein", "unknot", "torus:2,5", "torus:3,4")


class TestRelationMatrices:
    """The relation matrices built from exponent vectors equal the abelianization route."""

    def test_glue_matrix_matches_abelianization(self):
        models = [builtin_model(n) for n in RELATION_MODELS]
        gluings = [GluingMatrix(a, b, p, c)
                   for a, b, p, c in itertools.product(range(-3, 4), repeat=4)
                   if a * c - b * p == -1]
        count = 0
        for m1, m2 in itertools.product(models, repeat=2):
            for g in gluings:
                assert _glue_relation_matrix(m1, m2, g) == abelianized_glue_matrix(m1, m2, g)
                count += 1
        assert count == 4176

    def test_filling_matrix_matches_abelianization(self):
        for name in RELATION_MODELS:
            model = builtin_model(name)
            for slope in ((1, 0), (0, 1), (-5, 2), (12, 5), (3, -1), (-7, -3)):
                assert _filling_relation_matrix(model, slope) == \
                    abelianized_filling_matrix(model, slope)


class TestSeifert:
    def test_trivial_example(self):
        res = seifert_h1([(2, 1), (3, 1), (5, -4)])
        assert res.group.is_trivial() and res.order_formula == 1

    def test_2_4_4(self):
        res = seifert_h1([(2, 1), (4, 1), (4, 1)])
        assert res.order_formula == 32
        assert res.group == AbelianGroup(torsion=(2, 16), rank=0)
        assert any(d % 4 == 0 for d in res.group.torsion)

    def test_3_3_3(self):
        res = seifert_h1([(3, 1), (3, 1), (3, 1)])
        assert res.order_formula == 27
        assert res.group == AbelianGroup(torsion=(3, 9), rank=0)

    def test_positive_rank(self):
        res = seifert_h1([(2, 1), (3, 1), (6, -5)])
        assert res.order_formula == 0
        assert res.positive_rank

    def test_random_order_matches_snf(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 200:
            data = [(int(rng.integers(2, 8)), int(rng.integers(-6, 7)))
                    for _ in range(3)]
            res = seifert_h1(data)
            if res.order_formula != 0:
                assert res.group.order() == res.order_formula
                checked += 1

    def test_2_4_4_family_surjects_z4(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            betas = rng.integers(-9, 10, size=3)
            res = seifert_h1([(2, int(betas[0])), (4, int(betas[1])),
                              (4, int(betas[2]))])
            if res.order_formula == 0:
                assert res.positive_rank
            else:
                assert any(d % 4 == 0 for d in res.group.torsion)

    def test_3_3_3_even_order_multiple_of_18(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            betas = rng.integers(-9, 10, size=3)
            res = seifert_h1([(3, int(betas[0])), (3, int(betas[1])),
                              (3, int(betas[2]))])
            if res.order_formula != 0 and res.order_formula % 2 == 0:
                assert res.order_formula % 18 == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            seifert_h1([(1, 1), (3, 1), (5, 1)])
        with pytest.raises(ValueError):
            seifert_h1([(2, 1), (3, 1)])


def random_standard_input(rng, p):
    """Random (a, b, c) with a*c - b*p = -1, generated by inverse twists."""
    seeds = [(-1, 0, 1)] if p == 2 else enumerate_standard_tuples(p)
    a, b, c = seeds[rng.integers(len(seeds))]
    for _ in range(int(rng.integers(1, 6))):
        if rng.random() < 0.5:
            q = int(rng.integers(-6, 7))
            a, b, c = a, b + q * a, c + q * p
        else:
            n = int(rng.integers(-6, 7))
            a, b, c = a + n * p, b + n * c, c
    if rng.random() < 0.5:
        a, b, c = -a, b, -c  # orientation flip keeps the determinant
    assert a * c - b * p == -1
    return a, b, c


class TestStandardForm:
    def test_worked_example(self):
        res = standard_form_reduce(7, 24, 17, 5)
        assert res.as_tuple() == (2, 1, 2)
        assert res.twist_moves == ((2, 3), (1, 1))
        assert replay_standard_form(res) == (7, 24, 17)

    def test_p2_always_minus_1_0_1(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            a, b, c = random_standard_input(rng, 2)
            res = standard_form_reduce(a, b, c, 2)
            assert res.as_tuple() == (-1, 0, 1)

    def test_p3_with_reversal(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            a, b, c = random_standard_input(rng, 3)
            res = standard_form_reduce(a, b, c, 3, allow_reversal=True)
            assert res.as_tuple() == (-1, 0, 1)

    def test_p5_with_reversal(self):
        rng = np.random.default_rng(71)
        seen = set()
        for _ in range(200):
            a, b, c = random_standard_input(rng, 5)
            res = standard_form_reduce(a, b, c, 5, allow_reversal=True)
            assert res.as_tuple() in {(-1, 0, 1), (2, 1, 2)}
            seen.add(res.as_tuple())
        assert seen == {(-1, 0, 1), (2, 1, 2)}

    def test_roundtrip_and_bounds(self):
        rng = np.random.default_rng(73)
        for p in (2, 3, 5, 7, 11):
            for _ in range(60):
                a, b, c = random_standard_input(rng, p)
                for reversal in (False, True):
                    res = standard_form_reduce(a, b, c, p, allow_reversal=reversal)
                    assert res.a * res.c - res.b * p == -1
                    bound = p / 2 if reversal else p
                    assert 0 <= res.b < res.c <= bound
                    if not reversal:
                        assert res.c < p
                    assert replay_standard_form(res) == (a, b, c)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            standard_form_reduce(1, 1, 1, 4)  # p not prime
        with pytest.raises(ValueError):
            standard_form_reduce(1, 1, 1, 5)  # determinant wrong


class TestEnumerateTuples:
    def test_small_primes(self):
        assert enumerate_standard_tuples(3) == [(-1, 0, 1)]
        assert enumerate_standard_tuples(5) == [(-1, 0, 1), (2, 1, 2)]
        assert len(enumerate_standard_tuples(7)) == 3

    def test_counts_and_brute_force(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            tuples = enumerate_standard_tuples(p)
            assert len(tuples) == (p - 1) // 2
            for a, b, c in tuples:
                assert a * c - b * p == -1
                assert 0 <= b < c <= p / 2
            brute = [(a, b, c)
                     for c in range(1, p // 2 + 1)
                     for b in range(0, c)
                     for a in [-(1 - b * p) // c if (b * p - 1) % c == 0 else None]
                     if a is not None and a * c - b * p == -1]
            assert sorted(tuples) == sorted(set(brute))

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            enumerate_standard_tuples(2)


class TestClassifyGluing:
    def test_swap_is_case_1a(self):
        tre = torus_knot_model(2, 3)
        report = classify_gluing(tre, tre, GluingMatrix.swap(), p=2)
        assert report.case == "1a"
        assert report.longitude1 == ((0, 1), 1)

    def test_skew_is_case_1b(self):
        tre = torus_knot_model(2, 3)
        report = classify_gluing(tre, tre, GluingMatrix.skew(2), p=2)
        assert report.case == "1b"
        assert report.standard_form.as_tuple() == (-1, 0, 1)

    def test_klein_swap_is_case_2(self):
        tre = torus_knot_model(2, 3)
        report = classify_gluing(klein_bottle_model(), tre,
                                 GluingMatrix.swap(), p=2)
        assert report.case == "2"
        assert report.essential_side == 1
        assert report.longitude1 == ((0, 1), 2)
        assert report.evidence["dual_longitude_free_image"] == 2
        assert report.evidence["dual_longitude_divisible_by_p"]
        assert abs(report.evidence["boundary_basis_det"]) == 1

    def test_rejects_wrong_torsion(self):
        tre = torus_knot_model(2, 3)
        with pytest.raises(UnsupportedGluingError):
            classify_gluing(tre, tre, GluingMatrix.skew(2), p=3)

    def test_negative_prime_coefficient_normalized(self):
        # lam1 = -2 mu2 - lam2 reorients to the standard skew form
        tre = torus_knot_model(2, 3)
        g = GluingMatrix(a=1, b=0, p=-2, c=-1)
        assert glue_homology(tre, tre, g).torsion == (2,)
        report = classify_gluing(tre, tre, g, p=2)
        assert report.case == "1b"
        assert report.standard_form.as_tuple() == (-1, 0, 1)

    def test_rejects_nonprime(self):
        tre = torus_knot_model(2, 3)
        with pytest.raises(ValueError):
            classify_gluing(tre, tre, GluingMatrix.swap(), p=4)

    def test_case_table_is_pinned(self):
        # every gluing of two of trefoil, trefoil-neg, T(2,5) and klein with
        # entries in [-3, 3] whose H1 is nontrivial 2- or 3-torsion, as
        # classify_gluing has always placed it
        reports = [classify_gluing(m1, m2, g, p) for m1, m2, g, p in _torsion_gluings()]
        assert len(reports) == 330
        assert Counter(r.case for r in reports) == {"1b": 240, "2": 90}
        digest = hashlib.sha256("\n".join(map(repr, reports)).encode())
        assert digest.hexdigest() == \
            "150f81c42240b58db7d3b4e875a6cf49cb0acce430e0ed96dde6339a0731b9e7"


def _torsion_gluings():
    """(model1, model2, gluing, p): the pairs of four models glued with H1 = (Z/p)^r, r >= 1."""
    models = [builtin_model(n) for n in ("trefoil", "trefoil-neg", "torus:2,5", "klein")]
    gluings = [GluingMatrix(a, b, p, c) for a, b, p, c in itertools.product(range(-3, 4), repeat=4)
               if a * c - b * p == -1]
    for m1, m2 in itertools.combinations_with_replacement(models, 2):
        for g in gluings:
            h = glue_homology(m1, m2, g)
            for p in (2, 3):
                if not h.is_trivial() and h.is_p_torsion(p):
                    yield m1, m2, g, p
