"""Shared fixtures: a seeded generator, a unit volume, and a switch for the
networks' compute dtype."""

import sys

import numpy as np
import pytest

import skullsynth.cli  # noqa: F401  (loads every module that binds DTYPE)
from skullsynth.volume_io import UNIT, Volume


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def unit_volume(rng):
    return Volume(rng.random((12, 10, 14), dtype=np.float32), (1.0, 1.0, 1.0), UNIT)


@pytest.fixture
def engine_dtype(monkeypatch):
    """Call with a dtype to make the networks built afterwards, and the
    inputs `as_tensor` hands them, use it instead of ``tensor.DTYPE``."""

    def use(dtype):
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "skullsynth" and hasattr(module, "DTYPE"):
                monkeypatch.setattr(module, "DTYPE", dtype)

    return use
