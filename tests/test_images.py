"""The shared image helper: one sweep per (model, config), and no shared image changed."""

from pillowcase.families import unknot_model
from pillowcase.solver import SolverConfig

import images
from images import image


def test_resolution_argument_sets_the_config_resolution():
    model = unknot_model()
    img = image(model, 60)
    assert image(model, 60, SolverConfig(resolution=60)) is img
    assert image(model, 60, SolverConfig(resolution=7)) is img
    assert (img.model, img.resolution) == (model, 60)


def test_another_seed_or_restart_count_is_another_image():
    model = unknot_model()
    img = image(model, 60)
    assert image(model, 60, SolverConfig(seed=1)) is not img
    assert image(model, 60, SolverConfig(restarts=5)) is not img


def test_a_changed_image_is_named(monkeypatch):
    # on a private cache, so that no shared image is touched
    monkeypatch.setattr(images, "_IMAGES", {})
    monkeypatch.setattr(images, "STATS", {"sweeps": 0, "hits": 0, "seconds": 0.0})
    model = unknot_model()
    img = image(model, 10)
    assert image(model, 10) is img
    assert (images.STATS["sweeps"], images.STATS["hits"]) == (1, 1)
    assert images.changed_keys() == []
    object.__setattr__(img, "resolution", 11)
    assert images.changed_keys() == [(model, SolverConfig(resolution=10))]
