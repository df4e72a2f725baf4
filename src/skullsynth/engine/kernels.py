"""Hot numeric kernels: 3-D convolutions, binary morphology, trilinear resampling.

All convolution kernels use cubic kernel windows, isotropic stride and
zero padding.  Array layouts: activations (C, D, H, W), conv weights
(C_out, C_in, k, k, k), transposed-conv weights (C_in, C_out, k, k, k).
Convolution results, and every buffer they are built in, follow the
operands' dtype: float32 operands run in float32 (sgemm), float64 ones in
float64 (dgemm).

Convolution forward and input-gradient passes are gathers followed by BLAS
matrix multiplies.  Each output voxel owns one column that stacks the
inputs under its kernel window; the columns go through ``np.matmul`` in
blocks of BLOCK voxels, the last block padded, and the contraction is padded
with zero rows to a multiple of K_ALIGN.  So every GEMM has a shape set by
the layer alone (rows, contraction, BLOCK), never by the volume:

* A voxel's value depends only on its own column.  A crop of a volume
  therefore reproduces the whole-volume bits at every voxel whose window
  lies inside the crop, which chunked inference relies on.  A GEMM sized by
  the volume gives no such promise: OpenBLAS picks its inner kernel, and
  whether to split the work between threads, by matrix size.
* OpenBLAS splits a contraction longer than its K chunk differently with one
  thread than with several unless the length is a multiple of 32, so the
  padding keeps the bits independent of the BLAS thread count.

Columns are built a group of planes or rows at a time, so the column buffer
stays near GROUP_ELEMS entries whatever the volume.  Weight gradients are
one GEMM per tap that contracts over the output voxels; that contraction is
zero-padded to a multiple of K_ALIGN too, so their bits do not depend on the
BLAS thread count either.  Every kernel accumulates in a fixed order, so
repeated calls are bitwise reproducible.
"""

import numpy as np

BLOCK = 256  # output voxels per GEMM column block
GROUP_ELEMS = 1 << 18  # column-matrix entries built per batched GEMM call
K_ALIGN = 32  # contraction lengths are padded to a multiple of this


def _out_dim(d, k, stride, pad):
    return (d + 2 * pad - k) // stride + 1


def _gather_gemm(w2, windows, out):
    """``out[..., v] = w2 @ column v`` for every voxel v, where column v is
    ``windows[..., v]`` flattened in (channel, tap) order.

    ``windows`` is a (C, a, b, c) + out.shape[-3:] view of one padded input,
    holding each voxel's C x a x b x c kernel window; ``out``'s leading
    axes hold w2's rows.  Columns are built in groups of whole planes or
    rows, at most GROUP_ELEMS entries when a row fits, and multiplied in
    blocks of BLOCK voxels, the last one padded.
    """
    m, kk = w2.shape
    lead, (nz, ny, nx) = out.shape[:-3], out.shape[-3:]
    if not out.size:
        return out
    cap = max(1, GROUP_ELEMS // (kk * BLOCK)) * BLOCK
    if ny * nx <= cap:
        step = cap // (ny * nx)
        pieces = [(slice(z, min(z + step, nz)), slice(0, ny)) for z in range(0, nz, step)]
    else:
        step = max(1, cap // nx)
        pieces = [(slice(z, z + 1), slice(y, min(y + step, ny)))
                  for z in range(nz) for y in range(0, ny, step)]
    zs, ys = pieces[0]
    width = -(-(zs.stop - zs.start) * (ys.stop - ys.start) * nx // BLOCK) * BLOCK
    # Zero rows take the contraction to a multiple of K_ALIGN.  Padding
    # columns hold zeros or an earlier group's entries; their results are
    # dropped.
    kp = -(-kk // K_ALIGN) * K_ALIGN
    wp = np.zeros((m, kp), dtype=w2.dtype)
    wp[:, :kk] = w2
    cols = np.zeros((kp, width), dtype=windows.dtype)
    taps = windows.shape[:4]
    cols_taps = cols[:kk].reshape(taps + (width,))
    res = np.empty((m, width), dtype=np.result_type(wp, cols))
    for zs, ys in pieces:
        shape = (zs.stop - zs.start, ys.stop - ys.start, nx)
        n = shape[0] * shape[1] * nx
        nb = -(-n // BLOCK)
        cols_taps[..., :n].reshape(taps + shape)[...] = windows[..., zs, ys, :]
        np.matmul(
            wp,
            cols[:, : nb * BLOCK].reshape(kp, nb, BLOCK).transpose(1, 0, 2),
            out=res[:, : nb * BLOCK].reshape(m, nb, BLOCK).transpose(1, 0, 2),
        )
        out[..., zs, ys, :] = res[:, :n].reshape(*lead, *shape)
    return out


def _windows(a, k, stride=1):
    """(C, k, k, k, D', H', W') view of ``a`` (C, D, H, W): the k^3 window at
    every stride-th position where one fits."""
    v = np.lib.stride_tricks.sliding_window_view(a, (k, k, k), axis=(1, 2, 3))
    return v[:, ::stride, ::stride, ::stride].transpose(0, 4, 5, 6, 1, 2, 3)


def _phases(a, s):
    """(s, s, s, C, D/s, H/s, W/s) view of ``a`` (C, D, H, W), each axis a
    multiple of s: entry [bz, by, bx, c, i, j, l] is a[c, s*i+bz, s*j+by, s*l+bx]."""
    c, d, h, w = a.shape
    return a.reshape(c, d // s, s, h // s, s, w // s, s).transpose(2, 4, 6, 0, 1, 3, 5)


def _conv_forward(x, w, stride, pad):
    co, ci, k = w.shape[:3]
    out = tuple(_out_dim(n, k, stride, pad) for n in x.shape[1:])
    windows = _windows(np.pad(x, ((0, 0),) + ((pad, pad),) * 3), k, stride)
    y = np.empty((co,) + out, dtype=np.result_type(x, w))
    return _gather_gemm(w.reshape(co, ci * k**3), windows, y)


def _conv_backward_input(gy, w, in_shape, stride, pad):
    co, ci, k = w.shape[:3]
    s, span = stride, -(-k // stride)
    # Padded input position s*m + b takes tap d = b + s*j from gy[m - j],
    # for each j < span with d < k.  So one gather over m serves all s^3
    # phases b: its rows are the (b, channel) pairs, a tap a phase lacks has
    # zero weights, and its output seen through _phases is the padded
    # gradient from position s*m0 on.
    m0 = pad // s
    nm = tuple(-(-(pad + n) // s) - m0 for n in in_shape[1:])
    gyp = np.pad(gy, ((0, 0),) + tuple((span - 1, max(0, m0 + m - n)) for n, m in
                                        zip(gy.shape[1:], nm)))
    # window entry span - 1 - j of position m holds tap j of m
    windows = _windows(gyp, span)[:, ::-1, ::-1, ::-1,
                                  m0 : m0 + nm[0], m0 : m0 + nm[1], m0 : m0 + nm[2]]
    wk = np.zeros((co, ci) + (s * span,) * 3, dtype=w.dtype)
    wk[:, :, :k, :k, :k] = w
    w2 = wk.reshape(co, ci, span, s, span, s, span, s).transpose(3, 5, 7, 1, 0, 2, 4, 6)
    gxp = np.empty((ci,) + tuple(s * n for n in nm), dtype=np.result_type(gy, w))
    _gather_gemm(w2.reshape(s**3 * ci, co * span**3), windows, _phases(gxp, s))
    o = pad - s * m0
    return np.ascontiguousarray(gxp[(slice(None),) + tuple(slice(o, o + n) for n in in_shape[1:])])


def _conv_backward_weight(gy, x, k, stride, pad):
    co, ci = gy.shape[0], x.shape[0]
    windows = _windows(np.pad(x, ((0, 0),) + ((pad, pad),) * 3), k, stride)
    # Each tap's GEMM contracts over the output voxels, zero-padded to a
    # multiple of K_ALIGN so its bits do not follow the BLAS thread count.
    n = gy[0].size
    npad = -(-n // K_ALIGN) * K_ALIGN
    g2 = np.zeros((co, npad), dtype=gy.dtype)
    g2[:, :n] = gy.reshape(co, n)
    cols = np.zeros((ci, npad), dtype=x.dtype)
    cols_vol = cols[:, :n].reshape(windows.shape[:1] + windows.shape[4:])
    gw = np.zeros((co, ci, k, k, k), dtype=gy.dtype)
    for tap in np.ndindex(k, k, k):
        cols_vol[...] = windows[(slice(None),) + tap]
        gw[(slice(None), slice(None)) + tap] = g2 @ cols.T
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

    Trilinear interpolation is linear interpolation along each axis in turn,
    so this runs three 1-D passes instead of gathering all eight corners of
    every output voxel.  Returns float64; resampling to the input shape
    reproduces it exactly.
    """
    out = np.asarray(vol, dtype=np.float64)
    for axis, n_out in enumerate(map(int, out_shape)):
        n_in = out.shape[axis]
        coords = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        coords = np.clip(coords, 0.0, n_in - 1.0)
        lo = np.floor(coords).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = (coords - lo).reshape((-1,) + (1,) * (2 - axis))
        out = np.take(out, lo, axis=axis) * (1 - frac) + np.take(out, hi, axis=axis) * frac
    return out


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
