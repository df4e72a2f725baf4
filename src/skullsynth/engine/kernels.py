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

A stride-s input gradient is one gather for all s^3 phases of its result;
each phase's rows go straight into that phase's strided slice of it.

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
voxels, and no tap copies its window.  The padded input is cut into its s^3
stride phases, phase q holding the padded positions s*i + q, each a zero-filled
copy laid out flat on one phase grid with zero slack at its end; at stride 1
the one phase is the padded input itself.  gy goes once into a zero buffer on
the same grid, so tap s*(a', b', c') + q of every output voxel sits at the one
flat offset a'*P + b'*R + c' in phase q, for P and R the grid's plane and row
lengths.  The tap's GEMM multiplies the (C_in, n) view of phase q at that
offset, which BLAS reads in place, by gy's buffer, and its product goes
straight into the result; grid voxels off the output grid are zeros in gy's
buffer, so the reads that wrap past a row or a plane add nothing.  gy's buffer
has at least two rows, a zero row when C_out is 1, since numpy hands a
(1, n) @ (n, 1) product to BLAS dot, which OpenBLAS splits between threads;
and the contraction n is zero-padded to a multiple of K_ALIGN.  So their bits
do not depend on the BLAS thread count either.  Every kernel accumulates in a
fixed order, so repeated calls are bitwise reproducible.

Binary dilation and erosion work on the mask packed 64 voxels to a uint64
word along x: voxel x of a row sits at bit x % 64 of word x // 64
(``np.packbits(..., bitorder="little")`` read as little-endian words), and
the pad bits past the last column are zero.  Each offset ORs, or ANDs, one
shifted slice of the packed mask into a single packed output.  A z or y
shift moves whole words: the slice stops at the grid's edge.  An x shift of
64q + r moves words by q and bits by r, carrying the top r bits of each word
into the next; bits shifted in from past either end are zero.  The offsets
that share an x step share one bit-shifted copy.  A voxel whose shifted read
falls outside the grid reads background, so both outputs start at zeros,
except that an erosion's starts at ones on the box of voxels that every
offset reads inside the grid.  The bits are those of a byte-per-voxel pass:
a read past the last column lands on a zero pad bit, or on a word past the
row's end, which reads zero too, and an x step that carries ones into the
pad bits is followed by clearing them, so no later pass or call reads them.
An erosion's box has no pad bits, and a voxel off it stays zero whatever it
reads.  An offset set that fills a box (every default ``cube`` element) is
applied as the box's z, y and x edges in turn: the box is the Minkowski sum
of its edges, and a voxel an edge shifts out of the grid along one axis stays
out along the others, so the bits are the same with a radius-1 cube's 9
shifts in place of 27.  Other sets (balls, the surface-Dice steps) are
applied offset by offset in one pass.
"""

import itertools

import numpy as np

BLOCK = 256  # output voxels per GEMM column block
GROUP_ELEMS = 1 << 18  # buffer entries (columns, or maps and input) per batched GEMM call
K_ALIGN = 32  # contraction lengths are padded to a multiple of this
WORD_BITS = 64  # mask voxels per packed word along x


def _out_dim(d, k, stride, pad):
    return (d + 2 * pad - k) // stride + 1


def _pad(a, widths):
    """``a`` inside zeros, with ``widths`` (before, after) entries along each
    axis: constant-mode ``np.pad`` in one allocation and one copy."""
    out = np.zeros([n + lo + hi for n, (lo, hi) in zip(a.shape, widths)], dtype=a.dtype)
    out[tuple(slice(lo, lo + n) for n, (lo, _) in zip(a.shape, widths))] = a
    return out


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


def _gather_gemm(w2, windows):
    """Yield (box, rows) per group of output voxels: ``box`` holds the
    group's (z, y, x) slices and ``rows[:, v]`` is w2 @ column v, where
    column v is ``windows[..., v]`` flattened in (channel, tap) order and
    ``windows`` is a (C, a, b, c) + grid view of one padded input, holding
    each voxel's kernel window.  The next group overwrites ``rows``.
    """
    m, kk = w2.shape
    nz, ny, nx = windows.shape[-3:]
    if not m * nz * ny * nx:
        return
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
        yield (slice(z0, z1), slice(y0, y1), slice(0, nx)), res[:, :n].reshape(m, *shape)


def _windows(a, k, stride=1):
    """(C, k, k, k, D', H', W') view of ``a`` (C, D, H, W): the k^3 window at
    every stride-th position where one fits."""
    v = np.lib.stride_tricks.sliding_window_view(a, (k, k, k), axis=(1, 2, 3))
    return v[:, ::stride, ::stride, ::stride].transpose(0, 4, 5, 6, 1, 2, 3)


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


def conv3d_forward(x, w, stride=1, pad=0):
    co, ci, k = w.shape[:3]
    if co < ci:
        return _kn2row(x, w, stride, pad)
    windows = _windows(_pad(x, ((0, 0),) + ((pad, pad),) * 3), k, stride)
    y = np.empty((co,) + windows.shape[-3:], dtype=np.result_type(x, w))
    for box, rows in _gather_gemm(w.reshape(co, ci * k**3), windows):
        y[(slice(None),) + box] = rows
    return y


def conv3d_backward_input(gy, w, in_shape, stride=1, pad=0):
    co, ci, k = w.shape[:3]
    s, span = stride, -(-k // stride)
    # Padded input position s*m + b takes tap d = b + s*j from gy[m - j],
    # for each j < span with d < k.  So one gather over m serves all s^3
    # phases b: its rows are the (b, channel) pairs, and a tap a phase lacks
    # has zero weights.  Each phase's rows go to a strided slice of the result.
    m0 = pad // s
    nm = tuple(-(-(pad + n) // s) - m0 for n in in_shape[1:])
    gyp = _pad(gy, ((0, 0),) + tuple((span - 1, max(0, m0 + m - n)) for n, m in
                                      zip(gy.shape[1:], nm)))
    # window entry span - 1 - j of position m holds tap j of m
    windows = _windows(gyp, span)[:, ::-1, ::-1, ::-1,
                                  m0 : m0 + nm[0], m0 : m0 + nm[1], m0 : m0 + nm[2]]
    wk = np.zeros((co, ci) + (s * span,) * 3, dtype=w.dtype)
    wk[:, :, :k, :k, :k] = w
    w2 = wk.reshape(co, ci, span, s, span, s, span, s).transpose(3, 5, 7, 1, 0, 2, 4, 6)
    gx = np.empty((ci,) + tuple(in_shape[1:]), dtype=np.result_type(gy, w))
    o = pad - s * m0  # phase b of window position i is input position s*i + b - o
    for box, rows in _gather_gemm(w2.reshape(s**3 * ci, co * span**3), windows):
        rows = rows.reshape((s, s, s, ci) + rows.shape[1:])
        for b in np.ndindex(s, s, s):  # the group's positions i whose phase b is inside
            ij = [(max(g.start, -((p - o) // s)), min(g.stop, -((p - o - n) // s)))
                  for p, g, n in zip(b, box, in_shape[1:])]
            if all(i < j for i, j in ij):
                dst = (slice(s * i + p - o, s * j + p - o, s) for (i, j), p in zip(ij, b))
                src = (slice(i - g.start, j - g.start) for (i, j), g in zip(ij, box))
                gx[(slice(None), *dst)] = rows[(*b, slice(None), *src)]
    return gx


def conv3d_backward_weight(gy, x, k, stride=1, pad=0):
    co, ci = gy.shape[0], x.shape[0]
    s, span = stride, -(-k // stride)
    gw = np.zeros((co, ci, k, k, k), dtype=gy.dtype)
    if not gy.size or not gw.size:
        return gw
    # Phase q of the padded input holds its positions s*i + q.  Tap s*a' + q
    # of output z reads phase q at z + a', which is flat offset a'*P + b'*R + c'
    # from the output's own flat position on the phase grid, for P and R the
    # grid's plane and row lengths.
    grid = [-(-(n + 2 * pad) // s) for n in x.shape[1:]]
    plane, row = grid[1] * grid[2], grid[2]
    nz, ny, nx = gy.shape[1:]
    n = -(-((nz - 1) * plane + (ny - 1) * row + nx) // K_ALIGN) * K_ALIGN
    # gy on the phase grid, zero off the output grid and out to n, with at
    # least two rows so that no GEMM is a dot product
    gt = _pad(gy, ((0, max(0, 2 - co)), (0, max(nz, -(-n // plane)) - nz),
                   (0, grid[1] - ny), (0, grid[2] - nx))).reshape(max(co, 2), -1)[:, :n].T
    # the last tap reads n entries from offset (span - 1) * (P + R + 1): a
    # phase has as many planes as that needs, zeros past the grid's
    planes = max(grid[0], -(-((span - 1) * (plane + row + 1) + n) // plane))
    for q in itertools.product(range(min(s, k)), repeat=3):
        lo = [max(0, -(-(pad - r) // s)) for r in q]  # the first phase position inside x
        src = x[(slice(None),) + tuple(slice(s * i + r - pad, None, s) for i, r in zip(lo, q))]
        phase = _pad(src, [(0, 0)] + [(i, m - i - c) for i, m, c in
                                      zip(lo, [planes] + grid[1:], src.shape[1:])])
        phase = phase.reshape(ci, -1)
        for a, b, c in itertools.product(*(range(r, k, s) for r in q)):
            off = a // s * plane + b // s * row + c // s
            gw[:, :, a, b, c] = (phase[:, off : off + n] @ gt)[:, :co].T
    return gw


# A transposed conv with weights w (C_in, C_out, k^3) is the input gradient of
# the conv that reads the same array as (C_out, C_in, k^3) weights and maps
# the tconv output back to its input.  So its forward is that conv's
# backward-input, its backward-input is that conv's forward, and its
# backward-weight is that conv's backward-weight with the operands swapped.
# The tconv kernels call the conv kernels through the private aliases below,
# bound once at import: a tracer that replaces the public attributes then
# sees each call once, as a tconv, and its spans do not nest.

_conv_forward = conv3d_forward
_conv_backward_input = conv3d_backward_input
_conv_backward_weight = conv3d_backward_weight


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
    words, width = _pack(mask)
    for offs in _axis_passes(offsets):
        words = _shift_combine(words, width, offs, erode=False)
    return _unpack(words, width)


def erode(mask, offsets):
    """Binary erosion by an explicit offset set; outside the grid is background."""
    words, width = _pack(mask)
    for offs in _axis_passes(offsets):
        words = _shift_combine(words, width, offs, erode=True)
    return _unpack(words, width)


def _pack(mask):
    """A 0/1 uint8 or bool mask as its x rows of little-endian uint64 words,
    voxel x at bit x % 64 of word x // 64, the pad bits clear; and its width."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        mask = mask.astype(np.uint8, copy=False)
    width = mask.shape[-1]
    packed = np.zeros(mask.shape[:-1] + (-(-width // WORD_BITS) * 8,), dtype=np.uint8)
    packed[..., : -(-width // 8)] = np.packbits(mask, axis=-1, bitorder="little")
    return packed.view("<u8"), width


def _unpack(words, width):
    return np.unpackbits(words.view(np.uint8), axis=-1, count=width, bitorder="little")


def _in_grid(o, n):
    """The slices of an axis of n entries where entry i reads entry i - o,
    both inside the axis: (destination, source)."""
    dst = slice(min(max(o, 0), n), max(min(n + o, n), 0))
    return dst, slice(dst.start - o, dst.stop - o)


def _shift_x(words, dx):
    """`words` with each voxel x reading voxel x - dx of its row, zero where
    that falls outside the words: bit b of word j is bit b - r of word j - q,
    or, for b < r, bit b - r + 64 of word j - q - 1, where dx = 64q + r."""
    if dx == 0:
        return words
    q, r = divmod(dx, WORD_BITS)
    out = np.zeros_like(words)
    dst, src = _in_grid(q, words.shape[-1])
    np.left_shift(words[..., src], r, out=out[..., dst])
    if r:
        dst, src = _in_grid(q + 1, words.shape[-1])
        view = out[..., dst]
        view |= words[..., src] >> (WORD_BITS - r)
    return out


def _shift_combine(words, width, offsets, erode):
    """OR (dilation) or AND (erosion) of each offset's shifted slice of the
    packed mask `words`, `width` voxels wide, into one packed output.  Output
    voxel p reads voxel p - o, and erosion, which reads p + o, negates the
    offsets.  Offsets that share an x step share one bit-shifted copy."""
    offs = np.asarray(offsets, dtype=np.int64).reshape(-1, 3) * (-1 if erode else 1)
    shape = words.shape[:-1] + (width,)
    out = np.zeros_like(words)
    if erode:  # ones on the box every offset reads inside the grid; a slice stops at its edge
        lo, hi = offs.max(axis=0, initial=0), np.maximum(offs.min(axis=0, initial=0) + shape, 0)
        row = np.zeros(out.shape[-1] * WORD_BITS, dtype=bool)
        row[lo[2] : hi[2]] = True
        out[lo[0] : hi[0], lo[1] : hi[1]] = np.packbits(row, bitorder="little").view("<u8")
    combine = np.bitwise_and if erode else np.bitwise_or
    for dx in np.unique(offs[:, 2]).tolist():
        shifted = _shift_x(words, dx)
        for dz, dy in offs[offs[:, 2] == dx, :2].tolist():
            (dst_z, src_z), (dst_y, src_y) = _in_grid(dz, shape[0]), _in_grid(dy, shape[1])
            view = out[dst_z, dst_y]
            combine(view, shifted[src_z, src_y], out=view)
    if width % WORD_BITS:  # an x step can carry ones past the last column
        out[..., -1] &= np.uint64((1 << width % WORD_BITS) - 1)
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
