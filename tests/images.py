"""The tests' one way to an image: each (model, config) is swept once per session.

image(model, resolution, config) is
sample_pillowcase_image(model, config=replace(config, resolution=resolution)),
swept on the first request for its key and shared by every later one.
Models and configs are frozen dataclasses, so equal values share an image
whichever constructor built them (builtin_model("trefoil") and
torus_knot_model(2, 3) are one key).

A shared image must not change: each one's sha256(repr(img)) is taken when
it is swept, and tests/conftest.py fails the session if changed_keys()
names any at its end.

Tests that check how a sweep runs (that it repeats, what it calls while it
runs, how it reads its arguments) call sample_pillowcase_image themselves,
since a cached image would answer them without sweeping.
"""

import hashlib
import time
from dataclasses import replace

from pillowcase.solver import SolverConfig, sample_pillowcase_image

#: (model, config) -> (image, sha256 of its repr when swept)
_IMAGES = {}
#: sweeps made, requests answered from _IMAGES, and seconds spent sweeping
STATS = {"sweeps": 0, "hits": 0, "seconds": 0.0}


def _digest(img) -> str:
    return hashlib.sha256(repr(img).encode()).hexdigest()


def image(model, resolution: int, config: SolverConfig = SolverConfig()):
    """The image of model swept under config at the given resolution, swept once."""
    key = (model, replace(config, resolution=resolution))
    entry = _IMAGES.get(key)
    if entry is None:
        started = time.perf_counter()
        img = sample_pillowcase_image(model, config=key[1])
        STATS["seconds"] += time.perf_counter() - started
        STATS["sweeps"] += 1
        entry = _IMAGES[key] = (img, _digest(img))
    else:
        STATS["hits"] += 1
    return entry[0]


def changed_keys() -> list:
    """Keys of the shared images whose repr no longer has its digest from the sweep."""
    return [key for key, (img, digest) in _IMAGES.items() if _digest(img) != digest]
