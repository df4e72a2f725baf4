"""Differentiable operations built on the Tensor graph.

Convolutions delegate to ``kernels``; everything else is plain numpy
inside forward/backward closures.  The gradients of conv weights and biases
and of the instance norm's affine honor the flag captured at forward time, so
a forward pass inside ``with module.frozen():`` really skips its parameters'
gradient work (the adversarial generator term uses this to block
discriminator updates without a second forward).

A graph-free pass holds one buffer per layer.  There, `_conv` adds the bias
into the kernel's fresh result, and `instance_norm` centres, scales,
multiplies and shifts one fresh buffer.  An activation called with
``inplace=True`` (by a caller that just made its input with a conv, a
transposed conv or a norm, and uses it nowhere else) writes into its input's
buffer when no operand needs a gradient, a GROUP_ELEMS-entry block at a
time, so its temporaries stay small.  Each of these does the same
elementwise float operations in the same order as the out-of-place form, so
the bits do not change.  No op writes into an array it was handed from
outside the pass.

A pass that builds a graph allocates each result afresh.  In-place forms
there keep the bits too, but they shift a training step's allocations so
that glibc trims and refaults its heap on every step: 25 steps of perfbench
``train_cut``'s G and D (2-core VM, one BLAS thread) took some 60 000 minor
page faults in place of 57, and the step slowed by about a tenth.
"""

import numpy as np

from skullsynth.engine import kernels
from skullsynth.engine.tensor import Tensor


def _blockwise(a, fn):
    """``fn(view)`` on consecutive flat views of the C-contiguous buffer
    ``a``, GROUP_ELEMS entries at most each."""
    if not a.flags.c_contiguous:
        raise ValueError("an in-place activation needs a C-contiguous buffer")
    flat = a.reshape(-1)  # a view, as ``a`` is C-contiguous
    for i in range(0, flat.size, kernels.GROUP_ELEMS):
        fn(flat[i : i + kernels.GROUP_ELEMS])


def relu(t, inplace=False):
    if inplace and not t.requires_grad:
        _blockwise(t.data, lambda v: np.multiply(v, v > 0, out=v))
        return Tensor(t.data)
    mask = t.data > 0

    def backward(g):
        Tensor._accum(t, g * mask)

    return Tensor._make(t.data * mask, (t,), backward)


def leaky_relu(t, alpha=0.2, inplace=False):
    """max(x, alpha * x), for 0 <= alpha <= 1: the same bits as x * slope with
    slope 1 where x > 0 and alpha elsewhere, -0.0 and NaN included, without
    keeping a slope array."""
    a = t.data.dtype.type(alpha)
    if inplace and not t.requires_grad:
        _blockwise(t.data, lambda v: np.maximum(v, v * a, out=v))
        return Tensor(t.data)
    out = t.data * a
    np.maximum(t.data, out, out=out)

    def backward(g):
        Tensor._accum(t, np.where(t.data > 0, g, g * a))

    return Tensor._make(out, (t,), backward)


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


def _conv(x, w, b, stride, pad, forward, backward_input, backward_weight):
    """Autograd node of ``forward(x, w) + b`` whose input and weight gradients
    come from the other two kernels.  Callers look the kernels up on `kernels`
    at each call, so a tracer that replaces those attributes sees every call.
    The forward kernel returns a fresh C-contiguous buffer; a graph-free call
    adds the bias into it."""
    k = w.data.shape[2]
    y = forward(x.data, w.data, stride, pad)
    in_shape = x.data.shape
    x_req, w_req, b_req = x.requires_grad, w.requires_grad, b.requires_grad
    if x_req or w_req or b_req:
        y = y + b.data[:, None, None, None]
    else:
        y += b.data[:, None, None, None]

    def backward(g):
        g = np.ascontiguousarray(g)
        if x_req:
            Tensor._accum(x, backward_input(g, w.data, in_shape, stride, pad))
        if w_req:
            Tensor._accum(w, backward_weight(g, x.data, k, stride, pad))
        if b_req:
            Tensor._accum(b, g.sum(axis=(1, 2, 3)))

    return Tensor._make(y, (x, w, b), backward)


def conv3d(x, w, b, stride, pad):
    """3-D convolution; x (C_in,D,H,W), w (C_out,C_in,k,k,k), b (C_out,)."""
    return _conv(x, w, b, stride, pad, kernels.conv3d_forward,
                 kernels.conv3d_backward_input, kernels.conv3d_backward_weight)


def conv_transpose3d(x, w, b):
    """Transposed 3-D convolution with k=4, stride 2 and pad 1, which doubles
    each axis; x (C_in,D,H,W), w (C_in,C_out,4,4,4), b (C_out,)."""
    return _conv(x, w, b, 2, 1, kernels.tconv3d_forward,
                 kernels.tconv3d_backward_input, kernels.tconv3d_backward_weight)


def instance_norm(t, gamma, beta, eps):
    """Normalize each channel of (C,D,H,W) to zero mean and unit variance,
    then scale it by gamma (C,) and shift it by beta (C,)."""
    x = t.data
    c = x.shape[0]
    flat = x.reshape(c, -1)
    mu = flat.mean(axis=1)
    var = flat.var(axis=1)
    invstd = 1.0 / np.sqrt(var + eps)
    x_req, gamma_req, beta_req = t.requires_grad, gamma.requires_grad, beta.requires_grad
    if not (x_req or gamma_req or beta_req):  # the same steps, in one buffer
        out = np.subtract(x, mu[:, None, None, None], order="C")
        out *= invstd[:, None, None, None]
        out *= gamma.data[:, None, None, None]
        out += beta.data[:, None, None, None]
        return Tensor(out)
    normed = (x - mu[:, None, None, None]) * invstd[:, None, None, None]
    scale = gamma.data[:, None, None, None]
    out_data = normed * scale + beta.data[:, None, None, None]

    def backward(g):
        if gamma_req:
            Tensor._accum(gamma, (g * normed).sum(axis=(1, 2, 3)))
        if beta_req:
            Tensor._accum(beta, g.sum(axis=(1, 2, 3)))
        if x_req:
            g = g * scale
            gf = g.reshape(c, -1)
            g_mean = gf.mean(axis=1)[:, None, None, None]
            gy_mean = (gf * normed.reshape(c, -1)).mean(axis=1)[:, None, None, None]
            Tensor._accum(t, invstd[:, None, None, None] * (g - g_mean - normed * gy_mean))

    return Tensor._make(out_data, (t, gamma, beta), backward)


def gather_sites(t, flat_index):
    """Pick feature vectors at flat spatial sites: (C,D,H,W) + (S,) -> (S,C)."""
    c = t.data.shape[0]
    spatial_shape = t.data.shape[1:]
    flat = t.data.reshape(c, -1)
    out_data = flat[:, flat_index].T.copy()

    def backward(g):
        gf = np.zeros((flat.shape[1], c), dtype=flat.dtype)
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
