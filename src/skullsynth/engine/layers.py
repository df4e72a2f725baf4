"""Parameterized layers and the module bookkeeping they share.

A Module discovers its parameters and freezes or unfreezes them; saving and
restoring them is `checkpoint.save_state`/`restore_state`'s job.  Layers
create their parameters in the engine dtype, ``tensor.DTYPE``."""

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

    def freeze(self):
        for p in self.parameters():
            p.requires_grad = False

    def unfreeze(self):
        for p in self.parameters():
            p.requires_grad = True


def he_normal(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(DTYPE)


def trilinear_filter(k=4, stride=2):
    """Separable interpolation filter whose transposed conv reproduces trilinear upsampling."""
    centers = np.arange(k, dtype=np.float64)
    f1 = 1.0 - np.abs(centers - (k - 1) / 2.0) / stride
    return f1[:, None, None] * f1[None, :, None] * f1[None, None, :]


class Conv3d(Module):
    def __init__(self, c_in, c_out, k=3, stride=1, pad=None, bias=True, rng=None):
        self.stride = stride
        self.pad = k // 2 if pad is None else pad
        fan_in = c_in * k**3
        rng = rng or np.random.default_rng()
        self.weight = Tensor(he_normal(rng, (c_out, c_in, k, k, k), fan_in), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out, DTYPE), requires_grad=True) if bias else None

    def __call__(self, x):
        return ops.conv3d(x, self.weight, self.bias, self.stride, self.pad)


class ConvTranspose3d(Module):
    """k=4, stride=2, pad=1 doubles every spatial axis."""

    def __init__(self, c_in, c_out, k=4, stride=2, pad=1, bias=True, rng=None, init="he"):
        self.stride = stride
        self.pad = pad
        rng = rng or np.random.default_rng()
        if init == "trilinear":
            w = np.zeros((c_in, c_out, k, k, k), DTYPE)
            filt = trilinear_filter(k, stride)
            for c in range(min(c_in, c_out)):
                w[c, c] = filt
        elif init == "he":
            w = he_normal(rng, (c_in, c_out, k, k, k), c_in * k**3)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(c_out, DTYPE), requires_grad=True) if bias else None

    def __call__(self, x):
        return ops.conv_transpose3d(x, self.weight, self.bias, self.stride, self.pad)


class InstanceNorm3d(Module):
    def __init__(self, c, eps=1e-5):
        self.eps = eps
        self.gamma = Tensor(np.ones(c, DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(c, DTYPE), requires_grad=True)

    def __call__(self, x):
        c = x.data.shape[0]
        normed = ops.instance_norm(x, self.eps)
        return normed * self.gamma.reshape(c, 1, 1, 1) + self.beta.reshape(c, 1, 1, 1)


class Linear(Module):
    def __init__(self, c_in, c_out, bias=True, rng=None):
        rng = rng or np.random.default_rng()
        self.weight = Tensor(he_normal(rng, (c_in, c_out), c_in), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out, DTYPE), requires_grad=True) if bias else None

    def __call__(self, x):
        return ops.linear(x, self.weight, self.bias)
