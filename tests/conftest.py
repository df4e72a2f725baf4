"""Shared fixtures: a seeded generator and a unit volume."""

import numpy as np
import pytest

from skullsynth.volume_io import UNIT, Volume


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def unit_volume(rng):
    return Volume(rng.random((12, 10, 14), dtype=np.float32), (1.0, 1.0, 1.0), UNIT)
