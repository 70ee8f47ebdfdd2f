"""SU(2) as unit quaternions: word evaluation, residuals, boundary angles.

A unit quaternion w + xi + yj + zk stands for the SU(2) matrix with
diagonal (w + xi, w - xi) and off-diagonal (y + zi, -y + zi); the element
e^{i a} is (cos a, sin a, 0, 0).  Representations assign one unit
quaternion per generator of a presentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import PillowcasePoint, canonicalize
from .presentations import GroupPresentation, Word, check_word

__all__ = [
    "UnitQuaternion", "Representation", "NonCommutingPeripheralsError",
    "evaluate_word", "relator_residual", "irreducibility_gap",
    "boundary_angles", "peripheral_point", "conjugate_representation",
    "rotation_taking_axis", "align_boundary_to_i_axis", "PERIPHERAL_TOL",
]

#: a peripheral holonomy whose imaginary norm is below this is central, and
#: a commutator defect above it means the holonomies do not commute
PERIPHERAL_TOL = 1e-7


@dataclass(frozen=True)
class UnitQuaternion:
    w: float
    x: float
    y: float
    z: float

    @classmethod
    def one(cls) -> "UnitQuaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_components(cls, w, x, y, z) -> "UnitQuaternion":
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("zero quaternion cannot be normalized")
        return cls(w / n, x / n, y / n, z / n)

    @classmethod
    def exp(cls, angle: float, axis=(1.0, 0.0, 0.0)) -> "UnitQuaternion":
        """cos(angle) + sin(angle) * (unit axis); exp(a) = e^{ia} by default."""
        ux, uy, uz = axis
        n = math.sqrt(ux * ux + uy * uy + uz * uz)
        if n == 0.0:
            raise ValueError("axis must be nonzero")
        s = math.sin(angle) / n
        return cls(math.cos(angle), s * ux, s * uy, s * uz)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def normalized(self) -> "UnitQuaternion":
        return UnitQuaternion.from_components(self.w, self.x, self.y, self.z)

    def __mul__(self, other: "UnitQuaternion") -> "UnitQuaternion":
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return UnitQuaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def inverse(self) -> "UnitQuaternion":
        return UnitQuaternion(self.w, -self.x, -self.y, -self.z)

    def __neg__(self) -> "UnitQuaternion":
        return UnitQuaternion(-self.w, -self.x, -self.y, -self.z)

    def imag(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def imag_norm(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)

    def is_central(self) -> bool:
        """Whether this lies in {+1, -1} up to PERIPHERAL_TOL."""
        return self.imag_norm() < PERIPHERAL_TOL

    def angle_about(self, axis) -> float:
        """Rotation angle t with self = cos t + sin t * axis, in (-pi, pi]."""
        s = self.x * axis[0] + self.y * axis[1] + self.z * axis[2]
        return math.atan2(s, self.w)

    def dist(self, other: "UnitQuaternion") -> float:
        return math.sqrt((self.w - other.w) ** 2 + (self.x - other.x) ** 2
                         + (self.y - other.y) ** 2 + (self.z - other.z) ** 2)

    def dist_to_one(self) -> float:
        return self.dist(UnitQuaternion.one())


@dataclass(frozen=True)
class Representation:
    """Generator images; valid when the relator residual is below tolerance."""

    images: tuple[UnitQuaternion, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))

    def __len__(self) -> int:
        return len(self.images)

    def restrict(self, start: int, stop: int) -> "Representation":
        return Representation(self.images[start:stop])


class NonCommutingPeripheralsError(ValueError):
    """Peripheral holonomies fail to commute, so boundary angles are undefined."""


def evaluate_word(rep: Representation, word: Word) -> UnitQuaternion:
    """Product of generator images along the word, renormalized; empty word -> 1."""
    word = check_word(word, len(rep.images))
    out = UnitQuaternion.one()
    for k in word:
        g = rep.images[abs(k) - 1]
        out = out * (g if k > 0 else g.inverse())
    return out.normalized()


def relator_residual(rep: Representation, pres: GroupPresentation) -> float:
    """Max over relators of |rho(r) - 1|; zero exactly for homomorphisms."""
    if len(rep.images) != pres.generator_count:
        raise ValueError("representation shape does not match presentation")
    worst = 0.0
    for r in pres.relators:
        worst = max(worst, evaluate_word(rep, r).dist_to_one())
    return worst


def irreducibility_gap(rep: Representation) -> float:
    """Max commutator defect |[rho(g), rho(h)] - 1| over generator pairs.

    Zero iff the image is abelian; pairwise commutation suffices for a
    finitely generated subgroup of SU(2).
    """
    gap = 0.0
    imgs = rep.images
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            comm = imgs[i] * imgs[j] * imgs[i].inverse() * imgs[j].inverse()
            gap = max(gap, comm.dist_to_one())
    return gap


def _common_axis(m, l, m_norm: float, l_norm: float):
    """Rotation axis of commuting holonomies m and l: m's, else l's, else i.

    m and l are (w, x, y, z) floats and m_norm, l_norm their imaginary
    norms; a holonomy whose norm is below PERIPHERAL_TOL is central.
    """
    if not m_norm < PERIPHERAL_TOL:
        return (m[1] / m_norm, m[2] / m_norm, m[3] / m_norm)
    if not l_norm < PERIPHERAL_TOL:
        return (l[1] / l_norm, l[2] / l_norm, l[3] / l_norm)
    return (1.0, 0.0, 0.0)


def peripheral_point(m, l, m_norm: float, l_norm: float, defect: float) -> PillowcasePoint:
    """Pillowcase point of commuting peripheral holonomies m and l.

    m and l are (w, x, y, z) floats, m_norm and l_norm their imaginary norms
    and defect the distance of their commutator from 1.  Both holonomies
    are rotated about _common_axis; the two angles are read with one
    consistent sign and canonicalized.  A central holonomy gets angle
    exactly 0 or pi.  Raises NonCommutingPeripheralsError when defect
    exceeds PERIPHERAL_TOL.
    """
    if defect > PERIPHERAL_TOL:
        raise NonCommutingPeripheralsError(
            f"peripheral holonomies do not commute (defect {defect:.3e})")
    axis = _common_axis(m, l, m_norm, l_norm)

    def angle(q, norm):
        w, x, y, z = q
        if norm < PERIPHERAL_TOL:
            return 0.0 if w > 0 else math.pi
        return math.atan2(x * axis[0] + y * axis[1] + z * axis[2], w)

    return canonicalize(angle(m, m_norm), angle(l, l_norm))


def boundary_angles(rep: Representation, pres: GroupPresentation) -> PillowcasePoint:
    """Pillowcase point of the peripheral pair (rho(meridian), rho(longitude)).

    The holonomies are evaluated as evaluate_word does and read by
    peripheral_point, which raises NonCommutingPeripheralsError when they
    fail to commute within PERIPHERAL_TOL.
    """
    m = evaluate_word(rep, pres.meridian)
    l = evaluate_word(rep, pres.longitude)
    comm = m * l * m.inverse() * l.inverse()
    return peripheral_point((m.w, m.x, m.y, m.z), (l.w, l.x, l.y, l.z),
                            m.imag_norm(), l.imag_norm(), comm.dist_to_one())


def conjugate_representation(rep: Representation, g: UnitQuaternion) -> Representation:
    gi = g.inverse()
    return Representation(tuple((g * q * gi).normalized() for q in rep.images))


def rotation_taking_axis(u, v) -> UnitQuaternion:
    """Unit quaternion r with r (0,u) r^-1 = (0,v) for unit 3-vectors u, v."""
    ux, uy, uz = u
    vx, vy, vz = v
    dot = ux * vx + uy * vy + uz * vz
    cx = uy * vz - uz * vy
    cy = uz * vx - ux * vz
    cz = ux * vy - uy * vx
    cn = math.sqrt(cx * cx + cy * cy + cz * cz)
    if cn < 1e-13:
        if dot > 0:
            return UnitQuaternion.one()
        # antiparallel: rotate by pi about any perpendicular direction
        px, py, pz = (-uy, ux, 0.0) if abs(uz) < 0.9 else (0.0, -uz, uy)
        pn = math.sqrt(px * px + py * py + pz * pz)
        return UnitQuaternion(0.0, px / pn, py / pn, pz / pn)
    half = 0.5 * math.atan2(cn, dot)
    s = math.sin(half) / cn
    return UnitQuaternion.from_components(math.cos(half), s * cx, s * cy, s * cz)


def align_boundary_to_i_axis(rep: Representation, pres: GroupPresentation,
                             target: tuple[float, float]) -> Representation:
    """Conjugate rep so rho(meridian), rho(longitude) become e^{i a}, e^{i b}.

    ``target = (a, b)`` is any angle pair representing the boundary point of
    rep (either sign lift); the conjugated images are exact up to the
    representation's own numerical error.
    """
    m = evaluate_word(rep, pres.meridian)
    l = evaluate_word(rep, pres.longitude)
    if m.is_central() and l.is_central():
        return rep
    axis = _common_axis((m.w, m.x, m.y, m.z), (l.w, l.x, l.y, l.z),
                        m.imag_norm(), l.imag_norm())
    a, b = target

    def mismatch(u):
        d = 0.0
        if not m.is_central():
            d += abs(math.remainder(m.angle_about(u) - a, 2 * math.pi))
        if not l.is_central():
            d += abs(math.remainder(l.angle_about(u) - b, 2 * math.pi))
        return d

    neg = (-axis[0], -axis[1], -axis[2])
    if mismatch(neg) < mismatch(axis):
        axis = neg
    return conjugate_representation(rep, rotation_taking_axis(axis, (1.0, 0.0, 0.0)))
