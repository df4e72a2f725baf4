"""Reverse-mode autodiff engine over numpy arrays."""

from skullsynth.engine.tensor import Tensor

__all__ = ["Tensor"]
