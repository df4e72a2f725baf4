"""Parameterized layers and the module bookkeeping they share.

A Module discovers its parameters and freezes them for the body of a
``with module.frozen():``; saving and restoring them is
`checkpoint.save_state`/`restore_state`'s job.  Layers create their
parameters in the engine dtype, ``tensor.DTYPE``, and draw random weights
from the caller's seeded RNG; every conv and Linear has a bias.  The one
transposed-conv geometry is the 2x upsampler: kernel 4, stride 2, pad 1."""

import contextlib

import numpy as np

from skullsynth.engine import ops
from skullsynth.engine.tensor import DTYPE, Tensor


class Module:
    """Base class: children and parameters are discovered from instance attributes.

    Attribute insertion order is the canonical parameter order, so checkpoints
    and optimizer slots stay aligned as long as construction order is fixed.
    """

    def _children(self):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix=""):
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                yield prefix + name, value
        for name, child in self._children():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    @contextlib.contextmanager
    def frozen(self):
        """Freeze every parameter for the body of a ``with``, so the module
        builds no autograd graph there; then give each its flag back."""
        params = self.parameters()
        flags = [p.requires_grad for p in params]
        for p in params:
            p.requires_grad = False
        try:
            yield self
        finally:
            for p, flag in zip(params, flags):
                p.requires_grad = flag


def he_normal(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(DTYPE)


def trilinear_filter():
    """The 4^3 filter whose stride-2 transposed conv is trilinear 2x upsampling."""
    f1 = np.array([0.25, 0.75, 0.75, 0.25])
    return f1[:, None, None] * f1[None, :, None] * f1[None, None, :]


class Conv3d(Module):
    def __init__(self, c_in, c_out, k=3, stride=1, pad=None, *, rng):
        self.stride = stride
        self.pad = k // 2 if pad is None else pad
        w = he_normal(rng, (c_out, c_in, k, k, k), c_in * k**3)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(c_out, DTYPE), requires_grad=True)

    def __call__(self, x):
        return ops.conv3d(x, self.weight, self.bias, self.stride, self.pad)


class ConvTranspose3d(Module):
    """Kernel 4, stride 2, pad 1: doubles every spatial axis."""

    def __init__(self, c_in, c_out, *, rng, init="he"):
        if init == "trilinear":
            w = np.zeros((c_in, c_out, 4, 4, 4), DTYPE)
            for c in range(min(c_in, c_out)):
                w[c, c] = trilinear_filter()
        elif init == "he":
            w = he_normal(rng, (c_in, c_out, 4, 4, 4), c_in * 4**3)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(c_out, DTYPE), requires_grad=True)

    def __call__(self, x):
        return ops.conv_transpose3d(x, self.weight, self.bias)


class InstanceNorm3d(Module):
    def __init__(self, c):
        self.gamma = Tensor(np.ones(c, DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(c, DTYPE), requires_grad=True)

    def __call__(self, x):
        return ops.instance_norm(x, self.gamma, self.beta, 1e-5)


class Linear(Module):
    def __init__(self, c_in, c_out, *, rng):
        self.weight = Tensor(he_normal(rng, (c_in, c_out), c_in), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out, DTYPE), requires_grad=True)

    def __call__(self, x):  # (S, C_in) rows -> (S, C_out)
        return x @ self.weight + self.bias
