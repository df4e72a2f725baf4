"""Differentiable operations built on the Tensor graph.

Convolutions delegate to ``kernels``; everything else is plain numpy
inside forward/backward closures.  Weight gradients honor the flag captured at
forward time, so freezing a parameter before the forward pass really skips its
gradient work (the adversarial generator term uses this to block discriminator
updates without a second forward).
"""

import numpy as np

from skullsynth.engine import kernels
from skullsynth.engine.tensor import Tensor

LOG_FLOOR = 1e-12


def relu(t):
    mask = t.data > 0

    def backward(g):
        Tensor._accum(t, g * mask)

    return Tensor._make(t.data * mask, (t,), backward)


def leaky_relu(t, alpha=0.2):
    mask = t.data > 0
    slope = np.where(mask, 1.0, alpha)

    def backward(g):
        Tensor._accum(t, g * slope)

    return Tensor._make(t.data * slope, (t,), backward)


def tanh(t):
    out_data = np.tanh(t.data)

    def backward(g):
        Tensor._accum(t, g * (1.0 - out_data * out_data))

    return Tensor._make(out_data, (t,), backward)


def log_sigmoid(t):
    """log(sigmoid(x)), finite with a non-zero gradient at any logit."""
    e = np.exp(-np.abs(t.data))

    def backward(g):
        Tensor._accum(t, g * np.where(t.data >= 0, e, 1.0) / (1.0 + e))  # g * sigmoid(-x)

    return Tensor._make(np.minimum(t.data, 0.0) - np.log1p(e), (t,), backward)


def exp(t):
    out_data = np.exp(t.data)

    def backward(g):
        Tensor._accum(t, g * out_data)

    return Tensor._make(out_data, (t,), backward)


def log(t, floor=LOG_FLOOR):
    """Natural log clamped below at ``floor``; zero gradient in the clamped region."""
    clamped = np.maximum(t.data, floor)
    live = t.data >= floor

    def backward(g):
        Tensor._accum(t, g * live / clamped)

    return Tensor._make(np.log(clamped), (t,), backward)


def conv3d(x, w, b=None, stride=1, pad=0):
    """3-D convolution; x (C_in,D,H,W), w (C_out,C_in,k,k,k), b (C_out,)."""
    k = w.data.shape[2]
    y = kernels.conv3d_forward(x.data, w.data, stride, pad)
    if b is not None:
        y = y + b.data[:, None, None, None]
    in_shape = x.data.shape
    x_req = x.requires_grad
    w_req = w.requires_grad
    b_req = b is not None and b.requires_grad
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g = np.ascontiguousarray(g)
        if x_req:
            Tensor._accum(x, kernels.conv3d_backward_input(g, w.data, in_shape, stride, pad))
        if w_req:
            Tensor._accum(w, kernels.conv3d_backward_weight(g, x.data, k, stride, pad))
        if b_req:
            Tensor._accum(b, g.sum(axis=(1, 2, 3)))

    return Tensor._make(y, parents, backward)


def conv_transpose3d(x, w, b=None, stride=2, pad=1):
    """Transposed 3-D convolution; w (C_in,C_out,k,k,k).  k=4,s=2,p=1 doubles each axis."""
    k = w.data.shape[2]
    y = kernels.tconv3d_forward(x.data, w.data, stride, pad)
    if b is not None:
        y = y + b.data[:, None, None, None]
    in_shape = x.data.shape
    x_req = x.requires_grad
    w_req = w.requires_grad
    b_req = b is not None and b.requires_grad
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g = np.ascontiguousarray(g)
        if x_req:
            Tensor._accum(x, kernels.tconv3d_backward_input(g, w.data, in_shape, stride, pad))
        if w_req:
            Tensor._accum(w, kernels.tconv3d_backward_weight(g, x.data, k, stride, pad))
        if b_req:
            Tensor._accum(b, g.sum(axis=(1, 2, 3)))

    return Tensor._make(y, parents, backward)


def instance_norm(t, eps=1e-8):
    """Normalize each channel of (C,D,H,W) to zero mean, unit variance (no affine)."""
    x = t.data
    c = x.shape[0]
    flat = x.reshape(c, -1)
    mu = flat.mean(axis=1)
    var = flat.var(axis=1)
    invstd = 1.0 / np.sqrt(var + eps)
    xm = x - mu[:, None, None, None]
    out_data = xm * invstd[:, None, None, None]
    n = flat.shape[1]

    def backward(g):
        gf = g.reshape(c, -1)
        g_mean = gf.mean(axis=1)[:, None, None, None]
        gy_mean = (gf * out_data.reshape(c, -1)).mean(axis=1)[:, None, None, None]
        gx = invstd[:, None, None, None] * (g - g_mean - out_data * gy_mean)
        Tensor._accum(t, gx)

    return Tensor._make(out_data, (t,), backward)


def gather_sites(t, flat_index):
    """Pick feature vectors at flat spatial sites: (C,D,H,W) + (S,) -> (S,C)."""
    c = t.data.shape[0]
    spatial_shape = t.data.shape[1:]
    flat = t.data.reshape(c, -1)
    out_data = flat[:, flat_index].T.copy()

    def backward(g):
        gf = np.zeros((flat.shape[1], c))
        np.add.at(gf, flat_index, g)
        Tensor._accum(t, gf.T.reshape((c,) + spatial_shape))

    return Tensor._make(out_data, (t,), backward)


def l2_normalize_rows(t, eps=1e-6):
    """Scale each row of (S,E) to unit L2 norm.

    `eps` sits inside the sqrt so the map stays smooth through zero rows
    (a dead patch embedding scales linearly as x/sqrt(eps) instead of
    snapping to a unit direction); at eps=1e-6 a genuine unit-norm row is
    shortened by under 1e-6 relative.
    """
    x = t.data
    norm = np.sqrt((x * x).sum(axis=1, keepdims=True) + eps)
    out_data = x / norm

    def backward(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        Tensor._accum(t, (g - out_data * dot) / norm)

    return Tensor._make(out_data, (t,), backward)


def cross_entropy_rows(logits, targets):
    """Mean softmax cross-entropy over rows of (S,K) logits with integer targets."""
    z = logits.data
    s = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    denom = ez.sum(axis=1, keepdims=True)
    logprob = (z - zmax) - np.log(denom)
    rows = np.arange(s)
    loss = -logprob[rows, targets].mean()

    def backward(g):
        soft = ez / denom
        soft[rows, targets] -= 1.0
        Tensor._accum(logits, (float(g) / s) * soft)

    return Tensor._make(loss, (logits,), backward)


def linear(x, w, b=None):
    """Affine map for row-stacked vectors: (S,C_in) @ (C_in,C_out) + b."""
    out = x @ w
    if b is not None:
        out = out + b
    return out
