import math

import pytest

from pillowcase.families import (builtin_model, klein_bottle_model,
                                 klein_filling_analysis, klein_rep,
                                 torus_knot_model, unknot_model)
from pillowcase.geometry import canonicalize, pillowcase_distance
from pillowcase.homology import (AbelianGroup, abelianization,
                                 filling_homology, rational_longitude)
from pillowcase.presentations import (KnotExteriorModel, exponent_vector)
from pillowcase.su2 import (boundary_angles, irreducibility_gap,
                            relator_residual)

PI = math.pi


class TestTorusKnotModel:
    @pytest.mark.parametrize("p,q", [(2, 3), (-2, 3), (2, 5), (3, 5), (3, -4)])
    def test_peripheral_classes(self, p, q):
        model = torus_knot_model(p, q)
        ab = abelianization(model.presentation)
        assert ab.group() == AbelianGroup(torsion=(), rank=1)
        # exponent-sum oracle for the boundary words: [u] = q, [v] = p
        n = model.presentation.generator_count
        mu = exponent_vector(model.meridian, n)
        lam = exponent_vector(model.longitude, n)
        image = lambda vec: vec[0] * q + vec[1] * p
        assert abs(image(mu)) == 1
        assert image(lam) == 0
        fiber = exponent_vector(model.fiber, n)
        assert image(fiber) == p * q * image(mu)

    def test_trefoil_meridian_words(self):
        model = torus_knot_model(2, 3)
        assert model.meridian == (1, -2)
        assert model.presentation.relators == ((1, 1, -2, -2, -2),)

    @pytest.mark.parametrize("p,q", [(2, 3), (-2, 3), (3, -4), (-5, -7)])
    def test_words_are_letter_powers(self, p, q):
        def letter_power(gen, n):
            return (gen,) * n if n >= 0 else (-gen,) * (-n)

        model = torus_knot_model(p, q)
        s = pow(q, -1, abs(p))
        r = (s * q - 1) // p
        assert model.meridian == letter_power(1, s) + letter_power(2, -r)
        assert model.presentation.relators == (letter_power(1, p) + letter_power(2, -q),)
        assert model.longitude[:abs(p)] == letter_power(1, p)

    def test_negative_fiber_word(self):
        model = torus_knot_model(-2, 3)
        # fiber word is mu^{pq} * longitude with pq = -6
        from pillowcase.presentations import concat, pow_word
        assert model.fiber == concat(pow_word(model.meridian, -6),
                                     model.longitude)
        assert model.fiber_slope == (-6, 1)

    def test_validation(self):
        for bad in ((1, 3), (2, 4), (0, 5), (2, 2)):
            with pytest.raises(ValueError):
                torus_knot_model(*bad)


class TestKleinModel:
    def test_homology(self):
        model = klein_bottle_model()
        ab = abelianization(model.presentation)
        assert ab.group() == AbelianGroup(torsion=(2,), rank=1)
        assert ab.longitude_class == (0, 1)
        assert ab.meridian_class == (2, 0)

    def test_rational_longitude_order_two(self):
        cls, order = rational_longitude(klein_bottle_model())
        assert cls == (0, 1) and order == 2

    def test_meridian_infinite_order(self):
        # filling the longitude leaves the meridian class of infinite order
        group = filling_homology(klein_bottle_model(), (0, 1))
        assert group.rank == 1


class TestKleinRep:
    def test_residual_zero(self):
        model = klein_bottle_model()
        for t in (0.0, 0.4, PI / 2, 2.2, PI):
            assert relator_residual(klein_rep(t), model.presentation) < 1e-14

    def test_gap_values(self):
        assert irreducibility_gap(klein_rep(PI / 2)) == pytest.approx(2.0)
        assert irreducibility_gap(klein_rep(0.0)) < 1e-14
        assert irreducibility_gap(klein_rep(PI)) < 1e-14

    def test_boundary(self):
        model = klein_bottle_model()
        for t in (0.3, 1.5, 2.8):
            pt = boundary_angles(klein_rep(t), model.presentation)
            assert pillowcase_distance(pt, canonicalize(PI, t)) < 1e-9


class TestKleinFilling:
    def test_cyclic_orders(self):
        assert klein_filling_analysis(3, 1).order == 12
        assert klein_filling_analysis(-5, 1).order == 20

    def test_infinite_cyclic(self):
        assert klein_filling_analysis(0, 1).kind == "infinite_cyclic"

    def test_meridian_filling(self):
        assert klein_filling_analysis(1, 0).kind == "free_product_z2_z2"

    def test_nonabelian_witnesses(self):
        for slope in ((1, 2), (2, 3), (1, 3)):
            rep = klein_filling_analysis(*slope)
            assert rep.kind == "nonabelian"
            assert rep.residual < 1e-12
            assert rep.gap > 0.5

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (1, 3), (-3, 4)])
    def test_witness_is_klein_rep(self, p, q):
        angle = math.pi / q if p % 2 == 1 else 2.0 * math.pi / q
        assert repr(klein_filling_analysis(p, q).witness) == repr(klein_rep(angle))

    def test_orders_match_snf(self):
        model = klein_bottle_model()
        for p in range(1, 11):
            report = klein_filling_analysis(p, 1)
            group = filling_homology(model, (p, 1))
            assert report.order == group.order() == 4 * p

    def test_invalid_slope(self):
        with pytest.raises(ValueError):
            klein_filling_analysis(2, 4)
        with pytest.raises(ValueError):
            klein_filling_analysis(1, -2)


class TestBuiltinsAndSerialization:
    def test_builtin_names(self):
        assert builtin_model("trefoil").name == "torus(2,3)"
        assert builtin_model("trefoil-neg").name == "torus(-2,3)"
        assert builtin_model("klein").name == "klein"
        assert builtin_model("unknot").name == "unknot"
        assert builtin_model("torus:2,5").name == "torus(2,5)"
        with pytest.raises(ValueError):
            builtin_model("figure-eight")

    def test_json_roundtrip(self):
        for name in ("trefoil", "klein", "unknot", "torus:3,5"):
            model = builtin_model(name)
            back = KnotExteriorModel.from_json(model.to_json())
            assert back == model

    def test_unknot_shape(self):
        model = unknot_model()
        assert model.presentation.generator_count == 1
        assert model.longitude == ()
