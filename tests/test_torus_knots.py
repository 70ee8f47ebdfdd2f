"""Torus-knot images against Klassen's exact description.

The irreducible SU(2) representations of the torus knot T(p, q) have their
boundary images on the lines pq*alpha + beta = 0 or pi (mod 2pi) (E. Klassen,
"Representations of knot groups in SU(2)", Trans. AMS 326, 1991); with the
sign convention of torus_knot_model, T(-2, 3) lies on -6 alpha + beta = pi.
"""

import math

import pytest

from pillowcase.families import torus_knot_model
from pillowcase.geometry import essential_class, line_offset
from pillowcase.solver import extract_essential_curve

from images import image

RESOLUTION = 100
KNOTS = [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5), (2, 9)]

# Witnesses closer than solver._CHAIN_FACTOR (8) grid steps are chained into
# arcs, but on a line of slope -pq neighbours lie about sqrt(1 + (pq)^2) grid
# steps apart, so every knot with pq >= 8 breaks into pieces and isolated points.
_BROKEN_ARCS = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: arcs chained by a distance threshold "
                        "break apart when pq >= 8")


def _knot_id(knot):
    return "T({},{})".format(*knot)


@pytest.fixture
def torus_image(request):
    """(p, q, image of T(p, q) at r=100)."""
    p, q = request.param
    return p, q, image(torus_knot_model(p, q), RESOLUTION)


def _oracle_offset(pt, p, q):
    """Distance of pq*alpha + beta from the nearer of 0 and pi, mod 2pi."""
    return min(line_offset(pt, p * q, 1, 0.0), line_offset(pt, p * q, 1, math.pi))


@pytest.mark.parametrize("torus_image", KNOTS, ids=_knot_id, indirect=True)
def test_irreducible_witnesses_on_oracle_lines(torus_image):
    p, q, img = torus_image
    witnesses = img.irreducible_points()
    assert witnesses
    worst = max(_oracle_offset(rec.point, p, q) for rec in witnesses)
    assert worst < 1e-6, worst


@pytest.mark.parametrize(
    "torus_image",
    [pytest.param(k, marks=() if k == (2, 3) else _BROKEN_ARCS) for k in KNOTS],
    ids=_knot_id, indirect=True)
def test_essential_curve_has_class_one(torus_image):
    _, _, img = torus_image
    curve = extract_essential_curve(img)
    assert curve is not None
    assert abs(essential_class(curve)) == 1
