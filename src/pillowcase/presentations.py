"""Finitely presented groups with peripheral structure.

Words are tuples of nonzero integers: ``k`` means the k-th generator
(1-based), ``-k`` its inverse, so ``(1, 2, -1)`` reads g1 g2 g1^-1.
A knot-exterior model is a presentation together with distinguished
meridian and longitude words and optional Seifert-fiber data.  A
GluingMatrix is the integer boundary gluing that joins two such exteriors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

Word = tuple[int, ...]


def check_word(word, generator_count: int) -> Word:
    word = tuple(int(k) for k in word)
    for k in word:
        if k == 0 or abs(k) > generator_count:
            raise ValueError(f"letter {k} out of range for {generator_count} generators")
    return word


def _json_ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints; a bool, float or str entry raises ValueError."""
    values = tuple(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{what}: {v!r} is not an integer")
    return values


def invert_word(word) -> Word:
    return tuple(-k for k in reversed(word))


def pow_word(word, n: int) -> Word:
    """The word repeated n times (inverted word repeated |n| times if n < 0)."""
    if n >= 0:
        return tuple(word) * n
    return invert_word(word) * (-n)


def concat(*words) -> Word:
    out = []
    for w in words:
        out.extend(w)
    return tuple(out)


def shift_word(word, offset: int) -> Word:
    """Reindex letters by offset, for merging generator sets."""
    return tuple(k + offset if k > 0 else k - offset for k in word)


def exponent_vector(word, generator_count: int) -> tuple[int, ...]:
    """Image of the word in the free abelianization Z^n."""
    v = [0] * generator_count
    for k in word:
        v[abs(k) - 1] += 1 if k > 0 else -1
    return tuple(v)


def _is_prime(p: int) -> bool:
    """Trial-division primality test for the small integers of gluings."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class GluingMatrix:
    """Orientation-reversing torus gluing: mu1 = a mu2 + b lam2, lam1 = p mu2 + c lam2.

    The determinant a*c - b*p must be -1.
    """

    a: int
    b: int
    p: int
    c: int

    def __post_init__(self):
        for v in (self.a, self.b, self.p, self.c):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError("gluing entries must be integers")
        if self.det() != -1:
            raise ValueError(f"gluing determinant must be -1, got {self.det()}")

    def det(self) -> int:
        return self.a * self.c - self.b * self.p

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.p, self.c))

    def inverse(self) -> "GluingMatrix":
        # adj/det with det = -1
        return GluingMatrix(a=-self.c, b=self.b, p=self.p, c=-self.a)

    @classmethod
    def swap(cls) -> "GluingMatrix":
        """mu1 <-> lam2, lam1 <-> mu2 (splice gluing)."""
        return cls(0, 1, 1, 0)

    @classmethod
    def skew(cls, p: int = 2) -> "GluingMatrix":
        """mu1 ~ mu2^-1, lam1 ~ mu2^p lam2."""
        return cls(-1, 0, p, 1)


@dataclass(frozen=True)
class GroupPresentation:
    """Presentation with meridian/longitude words on the boundary torus."""

    generator_count: int
    relators: tuple[Word, ...]
    meridian: Word
    longitude: Word

    def __post_init__(self):
        if self.generator_count < 0:
            raise ValueError("generator_count must be >= 0")
        object.__setattr__(
            self, "relators",
            tuple(check_word(r, self.generator_count) for r in self.relators))
        object.__setattr__(self, "meridian", check_word(self.meridian, self.generator_count))
        object.__setattr__(self, "longitude", check_word(self.longitude, self.generator_count))

    def with_relator(self, word) -> "GroupPresentation":
        word = check_word(word, self.generator_count)
        return replace(self, relators=self.relators + (word,))


@dataclass(frozen=True)
class KnotExteriorModel:
    """A knot-exterior group with peripheral words and metadata.

    ``fiber`` is an optional peripheral word (Seifert-fibered models),
    with ``fiber_slope`` its class in the (meridian, longitude) basis of
    the boundary torus.
    """

    name: str
    presentation: GroupPresentation
    fiber: Word | None = None
    fiber_slope: tuple[int, int] | None = None

    @property
    def meridian(self) -> Word:
        return self.presentation.meridian

    @property
    def longitude(self) -> Word:
        return self.presentation.longitude

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "generators": self.presentation.generator_count,
            "relators": [list(r) for r in self.presentation.relators],
            "meridian": list(self.presentation.meridian),
            "longitude": list(self.presentation.longitude),
            "fiber": list(self.fiber) if self.fiber is not None else None,
            "fiber_slope": list(self.fiber_slope) if self.fiber_slope else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "KnotExteriorModel":
        """Model from a JSON object; malformed or mistyped values raise ValueError.

        The generator count, every word letter and the fiber-slope entries
        take ints only: a bool, float or str is refused, not coerced.
        """
        try:
            (count,) = _json_ints([data["generators"]], "generators")
            pres = GroupPresentation(
                generator_count=count,
                relators=tuple(_json_ints(r, "relator") for r in data["relators"]),
                meridian=_json_ints(data["meridian"], "meridian"),
                longitude=_json_ints(data["longitude"], "longitude"),
            )
            fiber, fiber_slope = data.get("fiber"), data.get("fiber_slope")
            if fiber is not None:
                fiber = check_word(_json_ints(fiber, "fiber"), count)
            fiber_slope = _json_ints(fiber_slope, "fiber_slope") if fiber_slope else None
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed model data: {exc}") from exc
        if fiber_slope is not None and len(fiber_slope) != 2:
            raise ValueError(f"fiber_slope needs two entries: {list(fiber_slope)}")
        return cls(name=str(data.get("name", "model")), presentation=pres,
                   fiber=fiber, fiber_slope=fiber_slope)

    @classmethod
    def from_json(cls, text: str) -> "KnotExteriorModel":
        return cls.from_dict(json.loads(text))
