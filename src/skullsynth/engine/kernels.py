"""Hot numeric kernels: 3-D convolutions, binary morphology, trilinear resampling.

All convolution kernels use cubic kernel windows, isotropic stride and
zero padding.  Array layouts: activations (C, D, H, W), conv weights
(C_out, C_in, k, k, k), transposed-conv weights (C_in, C_out, k, k, k).
Convolution results, and every buffer they are built in, follow the
operands' dtype: float32 operands run in float32 (sgemm), float64 ones in
float64 (dgemm).

Convolution input-gradient passes, and forward passes that do not take the
kn2row path below, are gathers followed by BLAS matrix multiplies.  Each
output voxel owns one column that stacks the inputs under its kernel window;
the columns go through ``np.matmul`` in blocks of BLOCK voxels, the last
block padded, and the contraction is padded with zero rows to a multiple of
K_ALIGN.  So every GEMM has a shape set by the layer alone (rows,
contraction, BLOCK), never by the volume:

* A voxel's value depends only on its own column.  A crop of a volume
  therefore reproduces the whole-volume bits at every voxel whose window
  lies inside the crop, which chunked inference relies on.  A GEMM sized by
  the volume gives no such promise: OpenBLAS picks its inner kernel, and
  whether to split the work between threads, by matrix size.
* OpenBLAS splits a contraction longer than its K chunk differently with one
  thread than with several unless the length is a multiple of 32, so the
  padding keeps the bits independent of the BLAS thread count.

A conv forward with fewer output than input channels multiplies first and
shifts after instead (kn2row; Vasudevan, Anderson and Gregg 2017,
arXiv:1704.04428).  In the three networks these are exactly the heads: the
SR level's, the generator's and the discriminator's, each to one channel.
Their columns would copy k^3 * C_in inputs per output voxel for a GEMM of
one row.  kn2row instead takes each input voxel's channel vector, through
one GEMM against the (k^3 * C_out, C_in) matrix of every tap's weights, to
k^3 partial maps, and adds the k^3 shifted maps into the output.  Its GEMMs
are (rows, contraction, BLOCK) blocks set by the layer too, with the C_in
contraction padded to K_ALIGN, and each output voxel adds its k^3 terms in
(a, b, c) tap order from zero.  So its bits follow neither the crop nor the
thread count, for the same two reasons as above; they differ from the
gather's, which sums in another order.

Columns are built a group of planes or rows at a time, so the column buffer
stays near GROUP_ELEMS entries whatever the volume.  kn2row builds its
partial maps, and the copy of the input they come from, a group of input
planes or rows at a time within the same GROUP_ELEMS entries, and keeps no
padded copy of the input: beside the output it holds one output-sized
accumulator, whose rows are as wide as the padded input.

Weight gradients are one GEMM per tap that contracts over the output
voxels; that contraction is zero-padded to a multiple of K_ALIGN too, so
their bits do not depend on the BLAS thread count either.  Every kernel
accumulates in a fixed order, so repeated calls are bitwise reproducible.

Binary dilation and erosion OR, or AND, one shifted slice of the mask per
offset into a single output.  A voxel whose shifted read falls outside the
grid reads background, so an erosion clears, once after its loop, the border
strips that some offset reads from outside.  An offset set that fills a box
(every default ``cube`` element) is applied as the box's z, y and x edges in
turn: the box is the Minkowski sum of its edges, and a voxel an edge shifts
out of the grid along one axis stays out along the others, so the bits are
the same with a radius-1 cube's 9 shifts in place of 27.  Other sets (balls,
the surface-Dice steps) are applied offset by offset in one pass.
"""

import numpy as np

BLOCK = 256  # output voxels per GEMM column block
GROUP_ELEMS = 1 << 18  # buffer entries (columns, or maps and input) per batched GEMM call
K_ALIGN = 32  # contraction lengths are padded to a multiple of this


def _out_dim(d, k, stride, pad):
    return (d + 2 * pad - k) // stride + 1


def _groups(nz, ny, nx, cap):
    """An (nz, ny, nx) grid cut into (z0, z1, y0, y1) groups of whole planes,
    or of rows of one plane when a plane exceeds `cap` voxels, each of at most
    `cap` voxels when a row fits; and the largest group's size padded to
    whole BLOCKs."""
    if ny * nx <= cap:
        step = cap // (ny * nx)
        groups = [(z, min(z + step, nz), 0, ny) for z in range(0, nz, step)]
    else:
        step = max(1, cap // nx)
        groups = [(z, z + 1, y, min(y + step, ny)) for z in range(nz) for y in range(0, ny, step)]
    z0, z1, y0, y1 = groups[0]
    return groups, -(-(z1 - z0) * (y1 - y0) * nx // BLOCK) * BLOCK


def _block_gemm(a, cols, res, n):
    """``res[:, :n] = a @ cols[:, :n]``, one GEMM per block of BLOCK columns
    and the last block padded, so every GEMM's shape is set by ``a``."""
    nb = -(-n // BLOCK)
    np.matmul(
        a,
        cols[:, : nb * BLOCK].reshape(len(cols), nb, BLOCK).transpose(1, 0, 2),
        out=res[:, : nb * BLOCK].reshape(len(res), nb, BLOCK).transpose(1, 0, 2),
    )


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
    groups, width = _groups(nz, ny, nx, max(1, GROUP_ELEMS // (kk * BLOCK)) * BLOCK)
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
    for z0, z1, y0, y1 in groups:
        shape = (z1 - z0, y1 - y0, nx)
        n = shape[0] * shape[1] * nx
        cols_taps[..., :n].reshape(taps + shape)[...] = windows[..., z0:z1, y0:y1, :]
        _block_gemm(wp, cols, res, n)
        out[..., z0:z1, y0:y1, :] = res[:, :n].reshape(*lead, *shape)
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


def _kn2row(x, w, stride, pad):
    """Conv forward by multiplying first and shifting after (kn2row).

    One GEMM against the (k^3 * C_out, C_in) matrix of every tap's weights
    takes each input voxel's channel vector to its k^3 partial maps, and each
    output voxel adds up the k^3 maps at its window's voxels, in (a, b, c)
    tap order.  Maps are built a group of whole input planes, or of rows of
    one plane, at a time: with the group's copy of the input, at most
    GROUP_ELEMS entries when a row fits.  Groups run in input order, so every
    output voxel sums its terms in tap order whatever the grouping.

    Rows hold their zero padding along x, so along a row the output sits at
    one flat offset from the maps: each tap's add is then one long strided
    run per plane, into an output whose rows are as wide as the padded input.
    Taps that would read padding along y or z are not added, which leaves the
    same bits as adding their zero maps would: the sums start at +0.0, so
    they are never -0.0.
    """
    co, ci, k = w.shape[:3]
    s, p, rows = stride, pad, k**3 * co
    _, d, h, wd = x.shape
    nz, ny, nx = (_out_dim(n, k, s, p) for n in (d, h, wd))
    wp = wd + 2 * p
    out = np.zeros((co, nz, ny * wp), dtype=np.result_type(x, w))
    if not out.size or not x.size:
        return np.zeros((co, nz, ny, nx), dtype=out.dtype)
    kp = -(-ci // K_ALIGN) * K_ALIGN
    wt = np.zeros((rows, kp), dtype=w.dtype)
    wt[:, :ci] = w.transpose(2, 3, 4, 0, 1).reshape(rows, ci)
    groups, width = _groups(d, h, wp, max(1, GROUP_ELEMS // ((rows + kp) * BLOCK)) * BLOCK)
    # Zero rows take the contraction to a multiple of K_ALIGN.  Each row's x
    # padding is never written, so it stays zero; columns past a group's
    # voxels hold zeros or an earlier group's entries, and their maps are unread.
    cols = np.zeros((kp, width), dtype=x.dtype)
    maps = np.empty((rows, width), dtype=out.dtype)

    def reach(lo, hi, tap, n):
        """The outputs o < n whose tap `tap` reads an input in [lo, hi)."""
        return max(0, -((tap - p - lo) // s)), min(n, -((tap - p - hi) // s))

    for z0, z1, y0, y1 in groups:
        shape = (z1 - z0, y1 - y0, wp)
        n = shape[0] * shape[1] * wp
        cols[:ci, :n].reshape((ci,) + shape)[..., p : p + wd] = x[:, z0:z1, y0:y1]
        _block_gemm(wt, cols, maps, n)
        taps = maps[:, :n].reshape(k, k, k, co, shape[0], shape[1] * wp)
        for a in range(k):
            oz0, oz1 = reach(z0, z1, a, nz)
            if oz0 >= oz1:
                continue
            plane_a = taps[a, ..., s * oz0 + a - p - z0 : s * (oz1 - 1) + a - p - z0 + 1 : s, :]
            for b in range(k):
                oy0, oy1 = reach(y0, y1, b, ny)
                if oy0 >= oy1:
                    continue
                # output (y, x) sits at flat f = y * wp + x, and its tap
                # (b, c) at flat s * f + (b - p - y0) * wp + c of the maps
                f0, f1 = oy0 * wp, (oy1 - 1) * wp + nx
                acc = out[:, oz0:oz1, f0:f1]
                lo = s * f0 + (b - p - y0) * wp
                for c, tap in enumerate(plane_a[b]):
                    np.add(acc, tap[..., lo + c : lo + c + s * (f1 - f0 - 1) + 1 : s], out=acc)
    return np.ascontiguousarray(out.reshape(co, nz, ny, wp)[..., :nx])


def _conv_forward(x, w, stride, pad):
    co, ci, k = w.shape[:3]
    if co < ci:
        return _kn2row(x, w, stride, pad)
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


def _axis_passes(offsets):
    """The offset sets `dilate` and `erode` apply in turn for `offsets`: the
    z, y and x edges of the box they fill, less edges of the origin alone,
    or the offsets themselves, deduplicated, when they fill no box."""
    offs = np.unique(np.asarray(offsets, dtype=np.int64).reshape(-1, 3), axis=0)
    if not len(offs):
        return [offs]
    lo, hi = offs.min(axis=0), offs.max(axis=0)
    if len(offs) != np.prod(hi - lo + 1):
        return [offs]
    passes = []
    for axis in np.flatnonzero(lo | hi):
        edge = np.zeros((hi[axis] - lo[axis] + 1, 3), dtype=np.int64)
        edge[:, axis] = np.arange(lo[axis], hi[axis] + 1)
        passes.append(edge)
    return passes or [offs]


def dilate(mask, offsets):
    """Binary dilation by an explicit offset set; outside the grid is background."""
    for offs in _axis_passes(offsets):
        mask = _shift_combine(mask, offs, erode=False)
    return mask


def erode(mask, offsets):
    """Binary erosion by an explicit offset set; outside the grid is background."""
    for offs in _axis_passes(offsets):
        mask = _shift_combine(mask, offs, erode=True)
    return mask


def _shift_combine(mask, offsets, erode):
    """OR (dilation) or AND (erosion) of each offset's shifted slice of `mask`
    into one output.  Output voxel p reads voxel p - o, and erosion, which
    reads p + o, negates the offsets."""
    mask = mask.astype(np.uint8, copy=False)
    shape = np.array(mask.shape)
    out = np.full_like(mask, erode)
    combine = np.bitwise_and if erode else np.bitwise_or
    inner_lo, inner_hi = np.zeros(3, dtype=np.int64), shape
    for off in np.asarray(offsets, dtype=np.int64).reshape(-1, 3) * (-1 if erode else 1):
        lo, hi = np.clip(off, 0, shape), np.clip(shape + off, 0, shape)
        inner_lo, inner_hi = np.maximum(inner_lo, lo), np.minimum(inner_hi, hi)
        if (lo < hi).all():
            view = out[tuple(map(slice, lo, hi))]
            combine(view, mask[tuple(map(slice, lo - off, hi - off))], out=view)
    if erode:  # outside some offset's slice, the read is background
        for axis in range(3):
            out[(slice(None),) * axis + (slice(0, inner_lo[axis]),)] = 0
            out[(slice(None),) * axis + (slice(inner_hi[axis], None),)] = 0
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
    offs = np.indices((2 * r + 1,) * 3).reshape(3, -1).T - r
    if kind == "ball":
        keep = (offs**2).sum(axis=1) <= r * r
        offs = offs[keep]
    elif kind != "cube":
        raise ValueError(f"unknown structuring element {kind!r}")
    return np.ascontiguousarray(offs, dtype=np.int64)
