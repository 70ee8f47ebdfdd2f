"""Klein-model images against their exact description.

In pi_1 = <a, b | a b a^-1 b> a representation with b != +-1 has
a b a^-1 = b^-1, so a is perpendicular to b's axis and a^2 = -1: the
irreducible image is exactly the edge alpha = pi, 0 < beta < pi (the
meridian is a^2, the longitude b).  The reducible image is the lines
beta = 0 and beta = pi (b = +-1).
"""

import math

import pytest

from pillowcase.families import klein_bottle_model
from pillowcase.solver import IRREDUCIBLE_GAP, SolverConfig, sample_pillowcase_image

CFG = SolverConfig()


@pytest.fixture(scope="module", params=[60, 200], ids=lambda r: f"r={r}")
def klein_image(request):
    return sample_pillowcase_image(klein_bottle_model(), request.param, CFG)


def test_irreducible_witnesses_on_the_edge(klein_image):
    irreducible = klein_image.irreducible_points(IRREDUCIBLE_GAP)
    assert irreducible
    for rec in irreducible:
        assert abs(rec.point.alpha - math.pi) < 1e-12, rec.point
        assert 0 < rec.point.beta < math.pi, rec.point


def test_reducible_witnesses_on_the_lines(klein_image):
    reducible = [rec for rec in klein_image.points if not rec.gap > IRREDUCIBLE_GAP]
    assert reducible
    for rec in reducible:
        beta = rec.point.beta
        assert min(abs(beta), abs(beta - math.pi), abs(beta - 2 * math.pi)) < 1e-12, rec.point


@pytest.mark.xfail(strict=True, reason="the edge is one meridian angle, so it is sampled "
                                       "only by the random restarts of its node")
def test_edge_coverage(klein_image):
    betas = sorted(rec.point.beta for rec in klein_image.irreducible_points(IRREDUCIBLE_GAP))
    widest = max(b - a for a, b in zip([0.0] + betas, betas + [math.pi]))
    assert widest <= 3 * klein_image.grid_step, widest
