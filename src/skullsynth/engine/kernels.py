"""Hot numeric kernels: 3-D convolutions, binary morphology, trilinear resampling.

All convolution kernels use cubic kernel windows, isotropic stride and
zero padding.  Array layouts: activations (C, D, H, W), conv weights
(C_out, C_in, k, k, k), transposed-conv weights (C_in, C_out, k, k, k).
Every kernel accumulates in a fixed order, so repeated calls are bitwise
reproducible.
"""

import numpy as np


def _out_dim(d, k, stride, pad):
    return (d + 2 * pad - k) // stride + 1


def _conv_forward(x, w, stride, pad):
    ci, d, h, wd = x.shape
    co, _, k = w.shape[0], w.shape[1], w.shape[2]
    do, ho, wo = _out_dim(d, k, stride, pad), _out_dim(h, k, stride, pad), _out_dim(wd, k, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    y = np.zeros((co, do, ho, wo), dtype=x.dtype)
    for dz in range(k):
        for dy in range(k):
            for dx in range(k):
                xs = xp[
                    :,
                    dz : dz + stride * (do - 1) + 1 : stride,
                    dy : dy + stride * (ho - 1) + 1 : stride,
                    dx : dx + stride * (wo - 1) + 1 : stride,
                ]
                y += np.einsum("oc,cdhw->odhw", w[:, :, dz, dy, dx], xs)
    return y


def _conv_backward_input(gy, w, in_shape, stride, pad):
    ci, d, h, wd = in_shape
    co, _, k = w.shape[0], w.shape[1], w.shape[2]
    do, ho, wo = gy.shape[1:]
    gxp = np.zeros((ci, d + 2 * pad, h + 2 * pad, wd + 2 * pad), dtype=gy.dtype)
    for dz in range(k):
        for dy in range(k):
            for dx in range(k):
                gxp[
                    :,
                    dz : dz + stride * (do - 1) + 1 : stride,
                    dy : dy + stride * (ho - 1) + 1 : stride,
                    dx : dx + stride * (wo - 1) + 1 : stride,
                ] += np.einsum("oc,odhw->cdhw", w[:, :, dz, dy, dx], gy)
    if pad:
        return np.ascontiguousarray(gxp[:, pad : pad + d, pad : pad + h, pad : pad + wd])
    return gxp


def _conv_backward_weight(gy, x, k, stride, pad):
    co = gy.shape[0]
    ci = x.shape[0]
    do, ho, wo = gy.shape[1:]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    gw = np.zeros((co, ci, k, k, k), dtype=gy.dtype)
    for dz in range(k):
        for dy in range(k):
            for dx in range(k):
                xs = xp[
                    :,
                    dz : dz + stride * (do - 1) + 1 : stride,
                    dy : dy + stride * (ho - 1) + 1 : stride,
                    dx : dx + stride * (wo - 1) + 1 : stride,
                ]
                gw[:, :, dz, dy, dx] = np.tensordot(gy, xs, axes=([1, 2, 3], [1, 2, 3]))
    return gw


def conv3d_forward(x, w, stride=1, pad=0):
    return _conv_forward(x, w, stride, pad)


def conv3d_backward_input(gy, w, in_shape, stride=1, pad=0):
    return _conv_backward_input(gy, w, in_shape, stride, pad)


def conv3d_backward_weight(gy, x, k, stride=1, pad=0):
    return _conv_backward_weight(gy, x, k, stride, pad)


# A transposed conv with weights w (C_in, C_out, k^3) is the input gradient of
# the conv that reads the same array as (C_out, C_in, k^3) weights and maps
# the tconv output back to its input.  So its forward is that conv's
# backward-input, its backward-input is that conv's forward, and its
# backward-weight is that conv's backward-weight with the operands swapped.
# The tconv kernels call the private helpers, so traces that wrap the public
# names keep transposed-conv time apart from conv time.


def tconv3d_forward(x, w, stride=2, pad=1):
    k = w.shape[2]
    out_shape = (w.shape[1],) + tuple((n - 1) * stride + k - 2 * pad for n in x.shape[1:])
    return _conv_backward_input(x, w, out_shape, stride, pad)


def tconv3d_backward_input(gy, w, in_shape, stride=2, pad=1):
    return _conv_forward(gy, w, stride, pad)


def tconv3d_backward_weight(gy, x, k, stride=2, pad=1):
    return _conv_backward_weight(x, gy, k, stride, pad)


def dilate(mask, offsets):
    """Binary dilation by an explicit offset set; outside the grid is background."""
    mask = mask.astype(np.uint8, copy=False)
    d, h, w = mask.shape
    out = np.zeros_like(mask)
    for oz, oy, ox in np.asarray(offsets, dtype=np.int64):
        zlo, zhi = max(0, oz), min(d, d + oz)
        ylo, yhi = max(0, oy), min(h, h + oy)
        xlo, xhi = max(0, ox), min(w, w + ox)
        if zlo >= zhi or ylo >= yhi or xlo >= xhi:
            continue
        out[zlo:zhi, ylo:yhi, xlo:xhi] |= mask[
            zlo - oz : zhi - oz, ylo - oy : yhi - oy, xlo - ox : xhi - ox
        ]
    return out


def erode(mask, offsets):
    """Binary erosion by an explicit offset set; outside the grid is background."""
    mask = mask.astype(np.uint8, copy=False)
    d, h, w = mask.shape
    out = np.ones_like(mask)
    for oz, oy, ox in np.asarray(offsets, dtype=np.int64):
        shifted = np.zeros_like(mask)
        zlo, zhi = max(0, -oz), min(d, d - oz)
        ylo, yhi = max(0, -oy), min(h, h - oy)
        xlo, xhi = max(0, -ox), min(w, w - ox)
        if zlo < zhi and ylo < yhi and xlo < xhi:
            shifted[zlo:zhi, ylo:yhi, xlo:xhi] = mask[
                zlo + oz : zhi + oz, ylo + oy : yhi + oy, xlo + ox : xhi + ox
            ]
        out &= shifted
    return out


def resample3d(vol, out_shape):
    """Trilinear resample to ``out_shape`` (half-pixel centers, edge clamp).

    Returns float64; resampling to the input shape reproduces it exactly.
    """
    v = np.asarray(vol, dtype=np.float64)
    src_idx = []
    for n_in, n_out in zip(v.shape, map(int, out_shape)):
        coords = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        coords = np.clip(coords, 0.0, n_in - 1.0)
        lo = np.floor(coords).astype(np.int64)
        frac = coords - lo
        hi = np.minimum(lo + 1, n_in - 1)
        src_idx.append((lo, hi, frac))
    (z0, z1, fz), (y0, y1, fy), (x0, x1, fx) = src_idx
    fz = fz[:, None, None]
    fy = fy[None, :, None]
    fx = fx[None, None, :]

    def gather(zi, yi, xi):
        return v[zi[:, None, None], yi[None, :, None], xi[None, None, :]]

    return (
        gather(z0, y0, x0) * (1 - fz) * (1 - fy) * (1 - fx)
        + gather(z0, y0, x1) * (1 - fz) * (1 - fy) * fx
        + gather(z0, y1, x0) * (1 - fz) * fy * (1 - fx)
        + gather(z0, y1, x1) * (1 - fz) * fy * fx
        + gather(z1, y0, x0) * fz * (1 - fy) * (1 - fx)
        + gather(z1, y0, x1) * fz * (1 - fy) * fx
        + gather(z1, y1, x0) * fz * fy * (1 - fx)
        + gather(z1, y1, x1) * fz * fy * fx
    )


def structuring_offsets(kind, radius):
    """Voxel offsets of a cube (Chebyshev) or ball (Euclidean) structuring element."""
    if radius < 0:
        raise ValueError("structuring element radius must be >= 0")
    r = int(radius)
    rng = np.arange(-r, r + 1)
    zz, yy, xx = np.meshgrid(rng, rng, rng, indexing="ij")
    offs = np.stack([zz.ravel(), yy.ravel(), xx.ravel()], axis=1)
    if kind == "ball":
        keep = (offs**2).sum(axis=1) <= r * r
        offs = offs[keep]
    elif kind != "cube":
        raise ValueError(f"unknown structuring element {kind!r}")
    return np.ascontiguousarray(offs, dtype=np.int64)
