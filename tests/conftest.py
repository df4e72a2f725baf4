"""Shared fixtures: a seeded generator, a unit volume, a switch for the
networks' compute dtype, and a count of the autograd nodes built."""

import sys

import numpy as np
import pytest

import skullsynth.cli  # noqa: F401  (loads every module that binds DTYPE)
from skullsynth.engine.tensor import Tensor
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


@pytest.fixture
def graph_nodes(monkeypatch):
    """A list that gets the shape of every autograd node built afterwards:
    each `Tensor._make` result that keeps its parents for a backward pass."""
    shapes = []
    make = Tensor._make

    def counting(data, parents, backward):
        out = make(data, parents, backward)
        if out._parents:
            shapes.append(out.data.shape)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
    return shapes
