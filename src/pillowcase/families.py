"""Built-in knot-exterior models with known peripheral structure.

Torus-knot exteriors carry the presentation <u, v | u^p = v^q> with a
meridian chosen so it generates H1, the null-homologous longitude, and the
central Seifert-fiber word.  The twisted I-bundle over the Klein bottle
comes with its closed-form representation family and a full Dehn-filling
analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .presentations import (GroupPresentation, KnotExteriorModel,
                            concat, pow_word)
from .su2 import Representation, UnitQuaternion

__all__ = [
    "torus_knot_model", "klein_bottle_model", "unknot_model", "klein_rep",
    "klein_filling_analysis", "FillingReport", "builtin_model", "MODEL_NAMES",
]


def torus_knot_model(p: int, q: int) -> KnotExteriorModel:
    """Exterior of the (p, q) torus knot.

    Presentation <u, v | u^p = v^q>.  In H1 = Z we have [u] = q and
    [v] = p, so the meridian u^s v^{-r} needs s*q - r*p = 1; we fix the
    canonical Euclidean solution with 0 <= s < |p|.  The longitude is
    u^p mu^{-pq} (null-homologous by construction) and the Seifert fiber
    is the central word mu^{pq} * longitude = u^p up to conjugation.
    """
    if abs(p) < 2 or abs(q) < 2 or math.gcd(p, q) != 1:
        raise ValueError(f"need |p|, |q| >= 2 and gcd(p, q) = 1, got ({p}, {q})")
    s = pow(q, -1, abs(p))
    r = (s * q - 1) // p
    assert s * q - r * p == 1
    meridian = concat(pow_word((1,), s), pow_word((2,), -r))
    longitude = concat(pow_word((1,), p), pow_word(meridian, -p * q))
    fiber = concat(pow_word(meridian, p * q), longitude)
    pres = GroupPresentation(
        generator_count=2,
        relators=(concat(pow_word((1,), p), pow_word((2,), -q)),),
        meridian=meridian,
        longitude=longitude,
    )
    return KnotExteriorModel(
        name=f"torus({p},{q})",
        presentation=pres,
        fiber=fiber,
        fiber_slope=(p * q, 1),
    )


def klein_bottle_model() -> KnotExteriorModel:
    """The twisted I-bundle over the Klein bottle.

    pi_1 = <a, b | a b a^-1 b> with peripheral subgroup <a^2, b>; the
    boundary curve b is the rational longitude, of order 2 in H1 = Z + Z/2.
    """
    pres = GroupPresentation(
        generator_count=2,
        relators=((1, 2, -1, 2),),
        meridian=(1, 1),
        longitude=(2,),
    )
    return KnotExteriorModel(name="klein", presentation=pres)


def unknot_model() -> KnotExteriorModel:
    """Solid torus: <x | >, meridian x, longitude trivial."""
    pres = GroupPresentation(
        generator_count=1,
        relators=(),
        meridian=(1,),
        longitude=(),
    )
    return KnotExteriorModel(name="unknot", presentation=pres)


def klein_rep(t: float) -> Representation:
    """The representation a -> j, b -> e^{it} of the Klein-bottle group.

    Satisfies the relation exactly; boundary angles are (pi, t) after
    canonicalization, and the image is non-abelian iff e^{it} != +-1.
    """
    return Representation((
        UnitQuaternion(0.0, 0.0, 1.0, 0.0),
        UnitQuaternion(math.cos(t), math.sin(t), 0.0, 0.0),
    ))


@dataclass(frozen=True)
class FillingReport:
    """Dehn-filling outcome for the Klein-bottle model.

    kind is one of "cyclic" (finite cyclic, with order), "infinite_cyclic",
    "free_product_z2_z2", or "nonabelian" (with a witness representation of
    the filled group and its residual).
    """

    slope: tuple[int, int]
    kind: str
    order: int | None = None
    witness: Representation | None = None
    residual: float | None = None
    gap: float | None = None


def klein_filling_analysis(p: int, q: int) -> FillingReport:
    """Fundamental-group analysis of the (p, q) filling of the Klein model.

    Filling mu^p lam^q for q = 1 gives the cyclic group Z/4|p| (infinite
    cyclic for p = 0); filling the meridian itself (q = 0) gives
    Z/2 * Z/2; for q >= 2 the filled group admits an explicit non-abelian
    SU(2) representation a -> j, b -> e^{i pi/q} (p odd) or e^{2 pi i/q}
    (p even), checked against both relators.
    """
    if q < 0 or math.gcd(p, q) != 1:
        raise ValueError(f"invalid slope ({p}, {q}): need q >= 0, gcd = 1")
    if q == 0:
        return FillingReport(slope=(p, q), kind="free_product_z2_z2")
    if q == 1:
        if p == 0:
            return FillingReport(slope=(p, q), kind="infinite_cyclic")
        return FillingReport(slope=(p, q), kind="cyclic", order=4 * abs(p))
    from .su2 import irreducibility_gap, relator_residual
    angle = math.pi / q if p % 2 == 1 else 2.0 * math.pi / q
    rep = klein_rep(angle)
    model = klein_bottle_model()
    filled = model.presentation.with_relator(
        concat(pow_word(model.meridian, p), pow_word(model.longitude, q)))
    res = relator_residual(rep, filled)
    gap = irreducibility_gap(rep)
    return FillingReport(slope=(p, q), kind="nonabelian",
                         witness=rep, residual=res, gap=gap)


MODEL_NAMES = ("trefoil", "trefoil-neg", "klein", "unknot")


def builtin_model(name: str) -> KnotExteriorModel:
    """Look up a model by name: trefoil, trefoil-neg, klein, unknot, torus:p,q."""
    if name == "trefoil":
        return torus_knot_model(2, 3)
    if name == "trefoil-neg":
        return torus_knot_model(-2, 3)
    if name == "klein":
        return klein_bottle_model()
    if name == "unknot":
        return unknot_model()
    if name.startswith("torus:"):
        try:
            p, q = (int(v) for v in name.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise ValueError(f"bad torus model spec {name!r}") from exc
        return torus_knot_model(p, q)
    raise ValueError(f"unknown model {name!r}")
