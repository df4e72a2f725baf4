"""Engine tests: kernels against scipy oracles and adjoint identities, the
conv kernels' crop and thread-count bit contract, autodiff against central
finite differences, optimizers against textbook reference updates."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage as ndi
import scipy.signal
import scipy.special

import skullsynth
from skullsynth import cut, lapsrn, metrics
from skullsynth.checkpoint import load_checkpoint, restore_state, save_state
from skullsynth.engine import kernels, ops, optim
from skullsynth.engine.layers import (
    Conv3d,
    ConvTranspose3d,
    InstanceNorm3d,
    Linear,
    Module,
    trilinear_filter,
)
from skullsynth.engine.optim import Adam, PlateauDecay, SGD
from skullsynth.engine.tensor import DTYPE, Tensor, as_tensor
from skullsynth.volume_io import UNIT, Volume

# Kernel test ids keep the "numpy" suffix they have always carried (the name
# of the kernels' implementation), so they stay comparable across history.
NUMPY_ID = pytest.mark.parametrize((), [()], ids=["numpy"])


def conv_oracle(x, w, stride, pad):
    """scipy correlate, channel-summed, then strided: independent of kernels.py."""
    if pad:
        x = np.pad(x, ((0, 0),) + ((pad, pad),) * 3)
    c_out = w.shape[0]
    full = [
        sum(scipy.signal.correlate(x[i], w[o, i], mode="valid") for i in range(x.shape[0]))
        for o in range(c_out)
    ]
    out = np.stack(full)
    return out[:, ::stride, ::stride, ::stride]


def phase_buffer_backward_input(gy, w, in_shape, stride, pad):
    """Conv input gradient as the kernels once placed it: the rows of every
    group's GEMMs written through an (s, s, s, C, D/s, H/s, W/s) phase view of
    a buffer padded to whole phases, then the input's crop of that buffer
    copied out.  Columns, GEMM shapes and blocks are the kernels' own."""
    co, ci, k = w.shape[:3]
    s, span = stride, -(-k // stride)
    m0 = pad // s
    nm = tuple(-(-(pad + n) // s) - m0 for n in in_shape[1:])
    gyp = np.pad(gy, ((0, 0),) + tuple((span - 1, max(0, m0 + m - n))
                                        for n, m in zip(gy.shape[1:], nm)))
    windows = kernels._windows(gyp, span)[:, ::-1, ::-1, ::-1, m0:m0 + nm[0], m0:m0 + nm[1],
                                          m0:m0 + nm[2]]
    wk = np.zeros((co, ci) + (s * span,) * 3, dtype=w.dtype)
    wk[:, :, :k, :k, :k] = w
    w2 = wk.reshape(co, ci, span, s, span, s, span, s).transpose(3, 5, 7, 1, 0, 2, 4, 6)
    w2 = w2.reshape(s**3 * ci, co * span**3)
    gxp = np.empty((ci,) + tuple(s * n for n in nm), dtype=np.result_type(gy, w))
    phases = gxp.reshape(ci, nm[0], s, nm[1], s, nm[2], s).transpose(2, 4, 6, 0, 1, 3, 5)
    # the gather: columns in groups, the contraction padded to K_ALIGN, and
    # GEMMs in blocks of BLOCK voxels
    kk = w2.shape[1]
    kp = -(-kk // kernels.K_ALIGN) * kernels.K_ALIGN
    wp = np.zeros((len(w2), kp), dtype=w2.dtype)
    wp[:, :kk] = w2
    if phases.size:
        groups, width = kernels._groups(
            *nm, max(1, kernels.GROUP_ELEMS // (kk * kernels.BLOCK)) * kernels.BLOCK)
        cols = np.zeros((kp, width), dtype=windows.dtype)
        cols_taps = cols[:kk].reshape(windows.shape[:4] + (width,))
        res = np.empty((len(w2), width), dtype=np.result_type(wp, cols))
        for z0, z1, y0, y1 in groups:
            shape = (z1 - z0, y1 - y0, nm[2])
            n = int(np.prod(shape))
            cols_taps[..., :n].reshape(windows.shape[:4] + shape)[...] = windows[
                ..., z0:z1, y0:y1, :]
            kernels._block_gemm(wp, cols, res, n)
            phases[..., z0:z1, y0:y1, :] = res[:, :n].reshape(phases.shape[:4] + shape)
    o = pad - s * m0
    return np.ascontiguousarray(gxp[(slice(None),) + tuple(slice(o, o + n) for n in in_shape[1:])])


# Each (stride, pad, k) setting with 3 -> 4 channels, which take the gather
# path, and with C_out < C_in, which take the kn2row path; the 3 -> 4 cases
# keep their old ids.
FORWARD_CASES = [
    pytest.param(
        stride, pad, k, c_in, c_out,
        id=f"{stride}-{pad}-{k}" + ("" if (c_in, c_out) == (3, 4) else f"-{c_in}to{c_out}"),
    )
    for c_in, c_out in ((3, 4), (5, 1), (6, 2))
    for stride, pad, k in ((1, 0, 3), (1, 1, 3), (2, 1, 4), (2, 1, 3))
]


class TestConvKernels:
    @NUMPY_ID
    @pytest.mark.parametrize("stride,pad,k,c_in,c_out", FORWARD_CASES)
    def test_forward_matches_scipy(self, stride, pad, k, c_in, c_out, rng):
        x = rng.normal(size=(c_in, 7, 6, 8))
        w = rng.normal(size=(c_out, c_in, k, k, k))
        got = kernels.conv3d_forward(x, w, stride, pad)
        want = conv_oracle(x, w, stride, pad)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_one_channel_forward_holds_one_group_of_maps(self, rng):
        # The kn2row path keeps no padded copy of the input.  Beside the
        # output it holds an accumulator of the output's size, with rows as
        # wide as the padded input, and at most GROUP_ELEMS entries of partial
        # maps and input copy, whatever the volume.
        x = rng.normal(size=(16, 58, 58, 58)).astype(np.float32)
        w = rng.normal(size=(1, 16, 3, 3, 3)).astype(np.float32)
        bound = (58 * 58 * 60 + 58**3 + kernels.GROUP_ELEMS) * x.itemsize
        tracemalloc.start()
        try:
            y = kernels.conv3d_forward(x, w, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.shape == (1, 58, 58, 58) and y.dtype == np.float32
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("stride,k,pad", [(s, k, p) for s in (1, 2) for k in (3, 4)
                                              for p in (0, 1)])
    def test_input_gradients_equal_the_phase_buffer_bits(self, stride, k, pad, rng):
        # Each phase is written straight into the result; the bits must be
        # those of the padded phase buffer and its crop.
        for dtype in BIT_DTYPES:
            for shape in ((5, 7, 9), (6, 4, 8)):  # odd and even edges
                for c_in, c_out in ((1, 16), (16, 1), (16, 16)):
                    x = rng.normal(size=(c_in,) + shape).astype(dtype)
                    wt = rng.normal(size=(c_in, c_out, k, k, k)).astype(dtype)
                    out_shape = (c_out,) + tuple(stride * (n - 1) + k - 2 * pad for n in shape)
                    got = kernels.tconv3d_forward(x, wt, stride, pad)
                    assert got.dtype == dtype and got.shape == out_shape
                    np.testing.assert_array_equal(
                        got, phase_buffer_backward_input(x, wt, out_shape, stride, pad))
                    w = rng.normal(size=(c_out, c_in, k, k, k)).astype(dtype)
                    gy = rng.normal(size=kernels.conv3d_forward(x, w, stride, pad).shape)
                    gy = gy.astype(dtype)
                    got = kernels.conv3d_backward_input(gy, w, x.shape, stride, pad)
                    assert got.dtype == dtype and got.shape == x.shape
                    np.testing.assert_array_equal(
                        got, phase_buffer_backward_input(gy, w, x.shape, stride, pad))

    def test_tconv_forward_peak_memory_is_under_twice_its_output(self, rng):
        # The result is the only output-sized array: no phase buffer beside
        # it and no crop copied out of one.
        x = rng.normal(size=(16, 20, 20, 20)).astype(np.float32)
        w = rng.normal(size=(16, 16, 4, 4, 4)).astype(np.float32)
        kernels.tconv3d_forward(x, w, 2, 1)  # warm-up
        tracemalloc.start()
        try:
            y = kernels.tconv3d_forward(x, w, 2, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.shape == (16, 40, 40, 40)
        assert peak <= 2 * y.nbytes, peak / y.nbytes

    @NUMPY_ID
    @pytest.mark.parametrize("stride,pad,k", [(1, 1, 3), (2, 1, 4)])
    def test_backward_input_is_adjoint(self, stride, pad, k, rng):
        # <conv(x), gy> == <x, conv_bwd_input(gy)> pins the backward pass
        # to a forward already verified against scipy.
        x = rng.normal(size=(2, 6, 7, 5))
        w = rng.normal(size=(3, 2, k, k, k))
        y = kernels.conv3d_forward(x, w, stride, pad)
        gy = rng.normal(size=y.shape)
        gx = kernels.conv3d_backward_input(gy, w, x.shape, stride, pad)
        assert gx.shape == x.shape
        np.testing.assert_allclose((y * gy).sum(), (x * gx).sum(), rtol=1e-10)

    @NUMPY_ID
    @pytest.mark.parametrize("stride,pad,k", [(1, 1, 3), (2, 1, 4)])
    def test_backward_weight_is_adjoint(self, stride, pad, k, rng):
        x = rng.normal(size=(2, 6, 7, 5))
        w = rng.normal(size=(3, 2, k, k, k))
        y = kernels.conv3d_forward(x, w, stride, pad)
        gy = rng.normal(size=y.shape)
        gw = kernels.conv3d_backward_weight(gy, x, k, stride, pad)
        assert gw.shape == w.shape
        np.testing.assert_allclose((y * gy).sum(), (w * gw).sum(), rtol=1e-10)

    @pytest.mark.parametrize("stride,pad,k", [(s, p, k) for s in (1, 2) for p in (0, 1)
                                              for k in (2, 3, 4)])
    def test_backward_weights_match_window_oracle(self, stride, pad, k, rng):
        # gw[o, i, a, b, c] sums gy[o, v] times the padded input at tap
        # (a, b, c) of output voxel v.  At stride 2, k = 3 gives the phases
        # unequal tap counts.
        def oracle(gy, x):
            xp = np.pad(x, ((0, 0),) + ((pad, pad),) * 3)
            win = np.lib.stride_tricks.sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
            return np.einsum("ozyx,izyxabc->oiabc", gy, win[:, ::stride, ::stride, ::stride])

        for shape in ((5, 7, 6), (6, 4, 8)):  # odd and even edges
            for c_in, c_out in ((1, 1), (1, 5), (5, 1), (3, 4)):
                x = rng.normal(size=(c_in,) + shape)
                gy = rng.normal(size=(c_out,) + tuple(
                    (n + 2 * pad - k) // stride + 1 for n in shape))
                got = kernels.conv3d_backward_weight(gy, x, k, stride, pad)
                assert got.shape == (c_out, c_in, k, k, k) and got.dtype == np.float64
                np.testing.assert_allclose(got, oracle(gy, x), rtol=1e-12, atol=1e-12)
                # a tconv (C_in, C_out) weight's gradient: its input x plays
                # the conv's gy, and its output gradient the conv's input
                gy = rng.normal(size=(c_out,) + tuple(
                    stride * (n - 1) + k - 2 * pad for n in shape))
                got = kernels.tconv3d_backward_weight(gy, x, k, stride, pad)
                assert got.shape == (c_in, c_out, k, k, k)
                np.testing.assert_allclose(got, oracle(x, gy), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("c_in,c_out,edge,k,bound", [(16, 1, 40, 3, 1.5),
                                                         (256, 512, 4, 4, 1.25)])
    def test_backward_weight_peak_memory(self, c_in, c_out, edge, k, bound, rng):
        # No tap copies its window into a column buffer (16 -> 1), and no
        # taps-by-channels temporary sits beside the result (256 -> 512).
        x = rng.normal(size=(c_in,) + (edge,) * 3).astype(np.float32)
        gy = rng.normal(size=(c_out,) + (edge + 3 - k,) * 3).astype(np.float32)
        kernels.conv3d_backward_weight(gy, x, k, 1, 1)  # warm-up
        tracemalloc.start()
        try:
            gw = kernels.conv3d_backward_weight(gy, x, k, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gw.shape == (c_out, c_in, k, k, k)
        assert peak <= bound * (x.nbytes + gw.nbytes), peak / (x.nbytes + gw.nbytes)

    @NUMPY_ID
    @pytest.mark.parametrize("stride,pad,k", [(2, 1, 4), (1, 1, 3), (2, 0, 2)])
    def test_tconv_forward_is_conv_adjoint(self, stride, pad, k, rng):
        # Oracle independent of kernels.py: zero-stuff x by the stride, take
        # the full scipy convolution with each (C_in, C_out) kernel summed
        # over C_in, then crop `pad` voxels from each side.
        x = rng.normal(size=(3, 4, 5, 3))
        w = rng.normal(size=(3, 2, k, k, k))
        got = kernels.tconv3d_forward(x, w, stride, pad)
        out_shape = tuple(stride * (n - 1) + k - 2 * pad for n in x.shape[1:])
        assert got.shape == (2,) + out_shape
        up = np.zeros((3,) + tuple(stride * (n - 1) + 1 for n in x.shape[1:]))
        up[:, ::stride, ::stride, ::stride] = x
        full = np.stack(
            [
                sum(scipy.signal.convolve(up[i], w[i, o], mode="full") for i in range(3))
                for o in range(2)
            ]
        )
        crop = tuple(slice(pad, n - pad) for n in full.shape[1:])
        np.testing.assert_allclose(got, full[(slice(None),) + crop], rtol=1e-10, atol=1e-12)

    @NUMPY_ID
    def test_tconv_backwards_are_adjoints(self, rng):
        stride, pad, k = 2, 1, 4
        x = rng.normal(size=(2, 3, 4, 3))
        w = rng.normal(size=(2, 3, k, k, k))
        y = kernels.tconv3d_forward(x, w, stride, pad)
        gy = rng.normal(size=y.shape)
        gx = kernels.tconv3d_backward_input(gy, w, x.shape, stride, pad)
        gw = kernels.tconv3d_backward_weight(gy, x, k, stride, pad)
        np.testing.assert_allclose((y * gy).sum(), (x * gx).sum(), rtol=1e-10)
        np.testing.assert_allclose((y * gy).sum(), (w * gw).sum(), rtol=1e-10)


# Whole volume, a crop of it, and where the crop's interior sits in the
# whole-volume output of a k3/s1/p1 conv and of a k4/s2/p1 transposed conv.
BIT_VOLUME = (9, 12, 10)
BIT_CROP = ((2, 8), (3, 10), (1, 8))
CONV_INTERIOR = tuple(slice(a + 1, b - 1) for a, b in BIT_CROP)
TCONV_INTERIOR = tuple(slice(2 * a + 1, 2 * b - 1) for a, b in BIT_CROP)

# Prints a digest of conv and transposed-conv outputs and weight gradients in
# the dtype named by the first argument.  At 56 channels the GEMMs are large
# enough to run threaded, and the contractions 56*27 and 56*8, and the
# weight gradients' 10*9*11 voxels, are longer than one OpenBLAS K chunk
# without being multiples of 32, in dgemm and in sgemm.  The 56 -> 1 forwards
# take the kn2row path, whose contraction is the 56 channels.
THREAD_SCRIPT = """
import hashlib
import sys
import numpy as np
from skullsynth.engine import kernels
rng = np.random.default_rng(0)
dtype = np.dtype(sys.argv[1])
x = rng.normal(size=(56, 10, 9, 11)).astype(dtype)
w3 = rng.normal(size=(56, 56, 3, 3, 3)).astype(dtype)
w4 = rng.normal(size=(56, 56, 4, 4, 4)).astype(dtype)
outs = [
    kernels.conv3d_forward(x, w3, 1, 1),
    kernels.conv3d_forward(x, w4, 2, 1),
    kernels.conv3d_backward_input(x, w3, x.shape, 1, 1),
    kernels.tconv3d_forward(x, w4, 2, 1),
]
outs += [
    kernels.conv3d_backward_weight(x, x, 3, 1, 1),
    kernels.tconv3d_backward_weight(outs[3], x, 4, 2, 1),
    kernels.conv3d_forward(x, rng.normal(size=(1, 56, 3, 3, 3)).astype(dtype), 1, 1),
    kernels.conv3d_forward(x, rng.normal(size=(1, 56, 4, 4, 4)).astype(dtype), 1, 1),
]
assert all(o.dtype == dtype for o in outs)
print(hashlib.sha256(b"".join(o.tobytes() for o in outs)).hexdigest())
"""

BIT_DTYPES = (np.float64, np.float32)  # the test oracles' dtype and the networks'

# Prints a digest of one-channel weight gradients in the dtype named by the
# first argument: the SR image upsampling's 1 -> 1 k4 s2 tconv, a 1 -> 1 k3
# conv and a 16 -> 1 head.  A product with one row on each side would be a
# BLAS dot, which OpenBLAS splits between threads.
WGRAD_THREAD_SCRIPT = """
import hashlib
import sys
import numpy as np
from skullsynth.engine import kernels
rng = np.random.default_rng(0)
dtype = np.dtype(sys.argv[1])
x = rng.normal(size=(16, 40, 40, 40)).astype(dtype)
gy = rng.normal(size=(1, 40, 40, 40)).astype(dtype)
outs = [
    kernels.tconv3d_backward_weight(rng.normal(size=(1, 32, 32, 32)).astype(dtype),
                                    rng.normal(size=(1, 16, 16, 16)).astype(dtype), 4, 2, 1),
    kernels.conv3d_backward_weight(gy, x[:1], 3, 1, 1),
    kernels.conv3d_backward_weight(gy, x, 3, 1, 1),
]
assert all(o.dtype == dtype for o in outs)
print(hashlib.sha256(b"".join(o.tobytes() for o in outs)).hexdigest())
"""


class TestConvBitContract:
    """Chunked inference relies on a crop reproducing the whole-volume bits,
    and a rerun on another machine on bits that do not follow the thread count."""

    @pytest.mark.parametrize("c_in,c_out", [(1, 16), (16, 16), (16, 1), (48, 48), (64, 64),
                                            (64, 1), (128, 128)])
    def test_crop_interior_equals_whole_volume(self, c_in, c_out, rng):
        crop = (slice(None),) + tuple(slice(a, b) for a, b in BIT_CROP)
        inner = (slice(None),) + (slice(1, -1),) * 3
        for dtype in BIT_DTYPES:
            x = rng.normal(size=(c_in,) + BIT_VOLUME).astype(dtype)
            w = rng.normal(size=(c_out, c_in, 3, 3, 3)).astype(dtype)
            whole = kernels.conv3d_forward(x, w, 1, 1)
            part = kernels.conv3d_forward(np.ascontiguousarray(x[crop]), w, 1, 1)
            assert whole.dtype == dtype
            np.testing.assert_array_equal(part[inner], whole[(slice(None),) + CONV_INTERIOR])
            wt = rng.normal(size=(c_in, c_out, 4, 4, 4)).astype(dtype)
            whole = kernels.tconv3d_forward(x, wt, 2, 1)
            part = kernels.tconv3d_forward(np.ascontiguousarray(x[crop]), wt, 2, 1)
            assert whole.dtype == dtype
            np.testing.assert_array_equal(part[inner], whole[(slice(None),) + TCONV_INTERIOR])

    def test_kn2row_bits_do_not_depend_on_the_grouping(self, rng, monkeypatch):
        # Planes too large for one group of partial maps are built a few rows
        # at a time, smaller ones, such as a crop's, whole planes at a time.
        # Each output voxel must sum its taps in one order either way, or a
        # crop would not give the whole volume's bits.
        x = rng.normal(size=(16, 5, 20, 20)).astype(np.float32)
        w = rng.normal(size=(1, 16, 3, 3, 3)).astype(np.float32)
        by_planes = kernels.conv3d_forward(x, w, 1, 1)
        monkeypatch.setattr(kernels, "GROUP_ELEMS", 1)  # 256 voxels: 11 padded rows
        np.testing.assert_array_equal(kernels.conv3d_forward(x, w, 1, 1), by_planes)

    def test_gather_bits_do_not_depend_on_the_grouping(self, rng, monkeypatch):
        # The gather builds its columns a group of whole planes, or of rows of
        # one plane, at a time, and places each group's GEMM rows, phase by
        # phase at stride 2.  At GROUP_ELEMS 1 a group holds 256 voxels: the
        # stride-1 calls take 20-voxel rows 12 at a time, 10 groups.
        groups, real = [], kernels._groups

        def counting(*args):
            found = real(*args)
            groups.append(len(found[0]))
            return found

        monkeypatch.setattr(kernels, "_groups", counting)
        for dtype in BIT_DTYPES:
            x = rng.normal(size=(4, 5, 20, 20)).astype(dtype)
            w = rng.normal(size=(8, 4, 3, 3, 3)).astype(dtype)
            wt = rng.normal(size=(4, 8, 4, 4, 4)).astype(dtype)
            gys = {s: rng.normal(size=(8, 5 // s + s - 1, 20 // s, 20 // s)).astype(dtype)
                   for s in (1, 2)}

            def calls():
                return [*(kernels.conv3d_forward(x, w, s, 1) for s in (1, 2)),
                        *(kernels.conv3d_backward_input(gys[s], w, x.shape, s, 1)
                          for s in (1, 2)),
                        kernels.tconv3d_forward(x, wt, 2, 1)]

            del groups[:]
            whole = calls()
            by_default = groups[:]
            with monkeypatch.context() as m:
                m.setattr(kernels, "GROUP_ELEMS", 1)
                del groups[:]
                split = calls()
            assert groups[0] == groups[2] == 10
            assert all(a > b for a, b in zip(groups, by_default)), (groups, by_default)
            for a, b in zip(split, whole):
                assert a.dtype == dtype
                np.testing.assert_array_equal(a, b)

    def test_bits_do_not_depend_on_blas_threads(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(skullsynth.__file__)))
        for dtype in BIT_DTYPES:
            digests = set()
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
                run = subprocess.run(
                    [sys.executable, "-c", THREAD_SCRIPT, np.dtype(dtype).name], env=env,
                    capture_output=True, text=True, check=True, timeout=120,
                )
                digests.add(run.stdout.strip())
            assert len(digests) == 1, np.dtype(dtype).name

    def test_one_channel_weight_gradients_do_not_depend_on_blas_threads(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(skullsynth.__file__)))
        for dtype in BIT_DTYPES:
            digests = set()
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
                run = subprocess.run(
                    [sys.executable, "-c", WGRAD_THREAD_SCRIPT, np.dtype(dtype).name], env=env,
                    capture_output=True, text=True, check=True, timeout=120,
                )
                digests.add(run.stdout.strip())
            assert len(digests) == 1, np.dtype(dtype).name


def shift_oracle(mask, offs, erode=False):
    """Dilation, or erosion, of a uint8 mask as the OR, or AND, of one
    shifted copy per offset, each reduction from its identity, the result of
    the empty set."""
    offs = np.asarray(offs, dtype=np.int64).reshape(-1, 3)
    reach = np.abs(offs).max(axis=0, initial=0)
    # pad each axis by its reach with background; dilation reads voxel p - o,
    # erosion voxel p + o
    sign = 1 if erode else -1
    padded = np.pad(mask, [(r, r) for r in reach])
    shifted = [padded[tuple(slice(r + sign * o, r + sign * o + n)
                            for o, r, n in zip(off, reach, mask.shape))] for off in offs]
    if erode:
        return np.bitwise_and.reduce([np.ones_like(mask)] + shifted)
    return np.bitwise_or.reduce([np.zeros_like(mask)] + shifted)


def scipy_morphology(mask, offs, erode=False):
    """scipy's binary dilation or erosion by `offs`, outside the grid background."""
    r = int(np.abs(offs).max(initial=0))
    struct = np.zeros((2 * r + 1,) * 3, dtype=bool)
    struct[tuple((np.asarray(offs) + r).T)] = True
    op = ndi.binary_erosion if erode else ndi.binary_dilation
    return op(mask.astype(bool), structure=struct, border_value=0).astype(np.uint8)


class TestMorphologyKernels:
    @NUMPY_ID
    @pytest.mark.parametrize("kind,radius", [("cube", 1), ("ball", 1), ("ball", 2)])
    def test_dilate_erode_match_scipy(self, kind, radius, rng):
        mask = (rng.random((9, 8, 10)) < 0.35).astype(np.uint8)
        offs = kernels.structuring_offsets(kind, radius)
        struct = np.zeros((2 * radius + 1,) * 3, dtype=bool)
        for dz, dy, dx in offs:
            struct[dz + radius, dy + radius, dx + radius] = True
        want_d = ndi.binary_dilation(mask.astype(bool), structure=struct, border_value=0)
        want_e = ndi.binary_erosion(mask.astype(bool), structure=struct, border_value=0)
        np.testing.assert_array_equal(kernels.dilate(mask, offs), want_d.astype(np.uint8))
        np.testing.assert_array_equal(kernels.erode(mask, offs), want_e.astype(np.uint8))

    @pytest.mark.parametrize("name", ["cube 2", "box {0,1}^3", "box 1x3x5", "cube 2 shuffled",
                                      "ball 2", "surface steps 1 mm", "steps past the edge",
                                      "empty", "box without the origin",
                                      "no box, no origin"])
    def test_dilate_erode_match_shift_oracle(self, name, rng):
        cube2 = kernels.structuring_offsets("cube", 2)
        offs = {
            "cube 2": cube2,
            "box {0,1}^3": np.indices((2, 2, 2)).reshape(3, -1).T,
            "box 1x3x5": np.indices((1, 3, 5)).reshape(3, -1).T - (0, 1, 3),
            "cube 2 shuffled": rng.permutation(np.concatenate([cube2, cube2[::4]])),
            "ball 2": kernels.structuring_offsets("ball", 2),
            "surface steps 1 mm": metrics._steps(1.0, (1.0, 1.0, 1.0), (9, 8, 10)),
            # a step at least as long as an edge reads only background: an
            # erosion clears everything and a dilation skips that step
            "steps past the edge": np.concatenate([kernels.structuring_offsets("ball", 1),
                                                   [(0, 8, 0), (-10, 1, 0)]]),
            "empty": np.zeros((0, 3), dtype=np.int64),
            # no origin: along an axis whose reach is one-sided, erosion's
            # start box has one bound inside the grid and the other at its edge
            "box without the origin": np.indices((2, 2, 3)).reshape(3, -1).T + (1, 1, 2),
            "no box, no origin": np.array([(0, 0, 2), (1, -3, 0), (-2, 1, 1)]),
        }[name]
        # sparse seeds for dilation and sparse holes for erosion, so that a
        # large box neither fills nor empties the volume
        sparse = (rng.random((9, 8, 10)) < 0.04).astype(np.uint8)
        dense = 1 - (rng.random((9, 8, 10)) < 0.01).astype(np.uint8)
        np.testing.assert_array_equal(kernels.dilate(sparse, offs), shift_oracle(sparse, offs))
        np.testing.assert_array_equal(kernels.erode(dense, offs),
                                      shift_oracle(dense, offs, erode=True))

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 80, 130])
    @pytest.mark.parametrize("kind,radius", [("cube", 1), ("ball", 2)])
    def test_packed_rows_of_every_width_match_scipy(self, kind, radius, width, rng):
        # rows of one word, a word less a bit, one word, a word and a bit,
        # infer's 80-voxel mask edge, and more than two words; sparse seeds
        # for dilation and sparse holes for erosion
        offs = kernels.structuring_offsets(kind, radius)
        sparse = (rng.random((5, 4, width)) < 0.05).astype(np.uint8)
        dense = 1 - (rng.random((5, 4, width)) < 0.05).astype(np.uint8)
        np.testing.assert_array_equal(kernels.dilate(sparse, offs),
                                      scipy_morphology(sparse, offs))
        np.testing.assert_array_equal(kernels.erode(dense, offs),
                                      scipy_morphology(dense, offs, erode=True))

    @pytest.mark.parametrize("name", ["x steps of a word and more", "x steps past the volume",
                                      "x box of 140", "z and y steps past the volume"])
    def test_long_steps_match_shift_oracle(self, name, rng):
        # rows of 130 voxels: three words, the last with 2 voxels and 62 pad bits
        offs = {
            "x steps of a word and more": [(0, 0, 0), (0, 0, 64), (0, 0, -64), (0, 0, 65),
                                           (1, 0, -70), (0, -1, 127), (-1, 1, -128)],
            "x steps past the volume": [(0, 0, 1), (0, 0, 130), (0, 0, -131), (1, 1, 200)],
            "x box of 140": np.indices((1, 1, 140)).reshape(3, -1).T - (0, 0, 70),
            "z and y steps past the volume": [(0, 0, -1), (5, 0, 66), (0, -4, 3), (-2, 2, 0)],
        }[name]
        sparse = (rng.random((5, 4, 130)) < 0.05).astype(np.uint8)
        dense = 1 - (rng.random((5, 4, 130)) < 0.05).astype(np.uint8)
        np.testing.assert_array_equal(kernels.dilate(sparse, offs), shift_oracle(sparse, offs))
        np.testing.assert_array_equal(kernels.erode(dense, offs),
                                      shift_oracle(dense, offs, erode=True))

    @pytest.mark.parametrize("width", [65, 80, 130])
    def test_pad_bits_never_leak(self, width):
        # a dilation whose x steps carry the last column into the pad bits,
        # then erosions whose x steps read past the last column
        mask = np.zeros((3, 4, width), dtype=np.uint8)
        mask[1, 1:3, -2:] = 1
        grow = [(0, 0, 0), (0, 0, 3), (0, 1, 70), (1, 0, 1)]
        words, _ = kernels._pack(mask)
        for erode in (False, True):
            out = kernels._shift_combine(words, width, grow, erode)
            assert not (out[..., -1] >> np.uint64(width % 64)).any()  # the pad bits are clear
        grown = kernels.dilate(mask, grow)
        np.testing.assert_array_equal(grown, shift_oracle(mask, grow))
        for shrink in ([(0, 0, 0), (0, 0, 2)], [(0, 0, 0), (0, 0, 64)], [(0, 0, 0), (0, 0, 1)]):
            np.testing.assert_array_equal(kernels.erode(grown, shrink),
                                          shift_oracle(grown, shrink, erode=True))
            np.testing.assert_array_equal(kernels.dilate(kernels.erode(grown, shrink), grow),
                                          shift_oracle(shift_oracle(grown, shrink, True), grow))

    def test_bool_and_uint8_give_the_same_contiguous_uint8(self, rng):
        mask = rng.random((4, 5, 70)) < 0.3
        offs = kernels.structuring_offsets("ball", 1)
        for op in (kernels.dilate, kernels.erode):
            outs = [op(m, offs) for m in (mask, mask.astype(np.uint8),
                                          np.asfortranarray(mask.astype(np.uint8)))]
            for out in outs:
                assert out.dtype == np.uint8 and out.flags.c_contiguous
                np.testing.assert_array_equal(out, outs[0])

    @pytest.mark.parametrize("kind,radius", [("cube", 1), ("ball", 2)])
    def test_erode_peak_memory_matches_dilate(self, kind, radius, rng):
        # both write every offset's slice into one output: erosion keeps no
        # whole-volume array per offset
        mask = (rng.random((64, 64, 64)) < 0.5).astype(np.uint8)
        offs = kernels.structuring_offsets(kind, radius)
        peaks = {}
        for op in (kernels.dilate, kernels.erode):
            op(mask, offs)  # warm-up
            tracemalloc.start()
            try:
                op(mask, offs)
                peaks[op.__name__] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks["erode"] - peaks["dilate"]) <= 0.1 * mask.nbytes, (
            {k: v / mask.nbytes for k, v in peaks.items()})

    def test_structuring_offsets(self):
        cube = kernels.structuring_offsets("cube", 1)
        assert cube.shape == (27, 3)
        ball = kernels.structuring_offsets("ball", 1)
        assert ball.shape == (7, 3)  # center + 6 face neighbours
        assert kernels.structuring_offsets("cube", 0).shape == (1, 3)
        with pytest.raises(ValueError):
            kernels.structuring_offsets("diamond", 1)
        with pytest.raises(ValueError):
            kernels.structuring_offsets("cube", -1)


class TestResampleKernel:
    @pytest.mark.parametrize(
        "in_shape,out_shape,dtype",
        [
            ((5, 7, 6), (9, 4, 11), np.float64),  # non-integer factors
            ((4, 5, 6), (8, 10, 12), np.float64),
            ((8, 10, 6), (4, 5, 3), np.float64),
            ((1, 6, 5), (4, 1, 7), np.float64),
            ((5, 7, 6), (9, 4, 11), np.float32),
        ],
        ids=["numpy", "numpy-x2", "numpy-x0.5", "numpy-length1", "numpy-float32"],
    )
    def test_matches_map_coordinates(self, rng, in_shape, out_shape, dtype):
        vol = rng.normal(size=in_shape).astype(dtype)
        got = kernels.resample3d(vol, out_shape)
        assert got.dtype == np.float64
        grids = np.meshgrid(
            *(
                np.clip((np.arange(m) + 0.5) * n / m - 0.5, 0, n - 1)
                for m, n in zip(out_shape, vol.shape)
            ),
            indexing="ij",
        )
        want = ndi.map_coordinates(vol.astype(np.float64), np.stack(grids), order=1, mode="nearest")
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @NUMPY_ID
    def test_identity_shape_is_exact(self, rng):
        vol = rng.normal(size=(6, 5, 7))
        np.testing.assert_array_equal(kernels.resample3d(vol, vol.shape), vol)


def numeric_grad(fn, arrays, h=1e-6):
    """Central differences of scalar fn(*arrays) wrt every entry."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = fn(*arrays)
            flat[i] = keep - h
            lo = fn(*arrays)
            flat[i] = keep
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def check_grads(build_loss, arrays, rtol=2e-4, atol=1e-7):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    want = numeric_grad(lambda *arrs: float(build_loss(*(Tensor(a) for a in arrs)).data), arrays)
    for t, w in zip(tensors, want):
        np.testing.assert_allclose(t.grad, w, rtol=rtol, atol=atol)


def _node(data, parents, *grad_fns):
    """A graph node that hands ``parents[i]`` the gradient ``grad_fns[i](g)``."""

    def backward(g):
        for p, f in zip(parents, grad_fns):
            Tensor._accum(p, f(g))

    return Tensor._make(data, parents, backward)


def five_node_instance_norm(x, gamma, beta, eps):
    """Instance norm as the engine once composed it, the oracle of
    `ops.instance_norm`'s bits: a normalize-only node, reshapes of gamma and
    beta to (C,1,1,1), then a broadcast multiply and a broadcast add whose
    gradients are summed over the broadcast axes."""
    c = x.data.shape[0]
    flat = x.data.reshape(c, -1)
    invstd = (1.0 / np.sqrt(flat.var(axis=1) + eps))[:, None, None, None]
    out = (x.data - flat.mean(axis=1)[:, None, None, None]) * invstd

    def normalize_grad(g):
        gf = g.reshape(c, -1)
        g_mean = gf.mean(axis=1)[:, None, None, None]
        gy_mean = (gf * out.reshape(c, -1)).mean(axis=1)[:, None, None, None]
        return invstd * (g - g_mean - out * gy_mean)

    def channel_sum(g):
        return g.sum(axis=(1, 2, 3), keepdims=True)

    normed = _node(out, (x,), normalize_grad)
    g4 = _node(gamma.data.reshape(c, 1, 1, 1), (gamma,), lambda g: g.reshape(c))
    b4 = _node(beta.data.reshape(c, 1, 1, 1), (beta,), lambda g: g.reshape(c))
    scaled = _node(normed.data * g4.data, (normed, g4),
                   lambda g: g * g4.data, lambda g: channel_sum(g * normed.data))
    return _node(scaled.data + b4.data, (scaled, b4), lambda g: g, channel_sum)


class TestAutodiff:
    def test_arithmetic_chain(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0  # keep division well away from 0
        check_grads(lambda x, y: ((x * y + x - 2.0) * y**-1).mean(), [a, b])

    def test_broadcast_add_unbroadcasts(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        check_grads(lambda x, y: ((x + y) * (x + y)).mean(), [a, b])

    def test_pow_matmul_mean(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grads(lambda x, y: ((x @ y) ** 3).mean(), [a, b])

    def test_detach_contributes_no_gradient(self, rng):
        a = rng.normal(size=(2, 6))
        t = Tensor(a.copy(), requires_grad=True)
        loss = (t * t).mean() + t.detach().mean()
        loss.backward()
        np.testing.assert_allclose(t.grad, 2 * a / a.size)  # detach contributes nothing

    def test_elementwise_nonlinearities(self, rng):
        a = rng.normal(size=(3, 5)) + 0.1  # off the relu kink
        check_grads(lambda x: ops.relu(x).mean(), [a])
        check_grads(lambda x: ops.leaky_relu(x, 0.2).mean(), [a])
        check_grads(lambda x: ops.tanh(x).mean(), [a])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_bits_equal_the_slope_formula(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([0.0, -0.0, -1.5, 2.5, tiny, -tiny, 1e30, -1e30, -3e-39], dtype=dtype)
        g = np.array([1.0, -0.0, 3.0, -2.0, 0.5, -0.75, 1e30, -1e-30, tiny], dtype=dtype)
        slope = np.where(x > 0, dtype(1), dtype(0.2))
        t = Tensor(x, requires_grad=True)
        y = ops.leaky_relu(t, 0.2)
        y._backward(g)  # the upstream gradient g, unscaled
        uint = np.dtype(f"u{x.itemsize}")
        assert y.data.dtype == t.grad.dtype == dtype
        np.testing.assert_array_equal(y.data.view(uint), (x * slope).view(uint))
        np.testing.assert_array_equal(t.grad.view(uint), (g * slope).view(uint))

    def test_log_sigmoid_matches_scipy(self):
        for dtype, rtol in ((np.float64, 1e-13), (np.float32, 1e-6)):
            x = np.linspace(-60.0, 60.0, 2401, dtype=dtype)
            got = ops.log_sigmoid(Tensor(x)).data
            assert got.dtype == dtype
            want = scipy.special.log_expit(x.astype(np.float64))
            np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-300)

    def test_log_sigmoid_gradient(self, rng):
        a = rng.normal(size=(3, 5)) * 4.0
        check_grads(lambda x: (ops.log_sigmoid(x) * x).mean(), [a])

    def test_log_sigmoid_gradient_survives_large_logits(self):
        for dtype, rtol in ((np.float64, 1e-13), (np.float32, 1e-6)):
            t = Tensor(np.array([-50.0, 50.0], dtype=dtype), requires_grad=True)
            ops.log_sigmoid(t).mean().backward()  # each entry's gradient is halved, exactly
            assert t.grad.dtype == dtype
            np.testing.assert_allclose(t.grad * 2, scipy.special.expit([50.0, -50.0]), rtol=rtol)
            assert (t.grad > 0).all()

    def test_conv3d_op(self, rng):
        x = rng.normal(size=(2, 4, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3, 3)) * 0.5
        b = rng.normal(size=(3,))
        check_grads(
            lambda xx, ww, bb: (ops.conv3d(xx, ww, bb, stride=1, pad=1) ** 2).mean(),
            [x, w, b],
            rtol=5e-4,
        )

    def test_conv_transpose3d_op(self, rng):
        x = rng.normal(size=(2, 3, 3, 3))
        w = rng.normal(size=(2, 3, 4, 4, 4)) * 0.5
        b = rng.normal(size=(3,))
        check_grads(
            lambda xx, ww, bb: (ops.conv_transpose3d(xx, ww, bb) ** 2).mean(),
            [x, w, b],
            rtol=5e-4,
        )

    def test_instance_norm(self, rng):
        # float64 throughout, with respect to the input and both affine terms
        x = rng.normal(size=(2, 3, 4, 3)) * 2.0
        gamma, beta = rng.normal(size=2) + 1.0, rng.normal(size=2)
        check_grads(lambda t, gm, bt: (ops.instance_norm(t, gm, bt, 1e-5) ** 3).mean(),
                    [x, gamma, beta], rtol=5e-4)

    def test_instance_norm_statistics(self, rng):
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 6, 5, 7)))
        gamma, beta = np.array([1.0, 2.0, -0.5, 3.0]), np.array([0.0, -1.0, 4.0, 0.5])
        y = ops.instance_norm(x, Tensor(gamma), Tensor(beta), 1e-8).data.reshape(4, -1)
        np.testing.assert_allclose(y.mean(axis=1), beta, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=1), gamma**2, rtol=1e-6)

    def test_instance_norm_bits_equal_the_five_node_composition(self, rng):
        x = rng.normal(loc=0.5, scale=2.0, size=(3, 4, 5, 6)).astype(np.float32)
        gamma = np.array([0.5, 1.5, -2.0], np.float32)
        beta = np.array([0.25, -1.0, 3.0], np.float32)
        weights = Tensor(rng.normal(size=x.shape).astype(np.float32))
        results = []
        for norm in (ops.instance_norm, five_node_instance_norm):
            ts = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
            y = norm(*ts, 1e-5)
            (y * weights).mean().backward()
            results.append([y.data] + [t.grad for t in ts])
        for got, want in zip(*results):
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_gather_sites(self, rng):
        x = rng.normal(size=(3, 2, 3, 2))
        idx = np.array([0, 5, 5, 11])  # repeated site accumulates
        check_grads(lambda t: (ops.gather_sites(t, idx) ** 2).mean(), [x])

    def test_l2_normalize_rows(self, rng):
        x = rng.normal(size=(4, 6))
        check_grads(lambda t: (ops.l2_normalize_rows(t) * np.arange(6.0)).mean(), [x])
        rows = ops.l2_normalize_rows(Tensor(x)).data
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-5)

    def test_l2_normalize_zero_row_is_finite(self):
        t = Tensor(np.zeros((2, 5)), requires_grad=True)
        out = ops.l2_normalize_rows(t)
        assert np.all(np.isfinite(out.data)) and np.all(out.data == 0.0)
        out.mean().backward()
        assert np.all(np.isfinite(t.grad))

    def test_cross_entropy_rows(self, rng):
        z = rng.normal(size=(5, 7))
        tgt = np.array([0, 3, 6, 2, 2])
        check_grads(lambda t: ops.cross_entropy_rows(t, tgt), [z])
        # uniform logits: loss is exactly log K
        u = Tensor(np.zeros((4, 7)))
        assert float(ops.cross_entropy_rows(u, np.zeros(4, dtype=int)).data) == pytest.approx(
            np.log(7.0)
        )

    def test_grad_accumulates_across_backwards(self, rng):
        a = rng.normal(size=(3,))
        t = Tensor(a.copy(), requires_grad=True)
        (t * t).mean().backward()
        (t * t).mean().backward()
        np.testing.assert_allclose(t.grad, 4 * a / a.size)
        SGD([t], lr=0.1).zero_grad()
        assert t.grad is None

    @pytest.mark.parametrize("op", ["mul", "add", "matmul"])
    def test_arithmetic_hands_no_gradient_to_a_constant(self, op, rng, monkeypatch):
        # a binary op forms only the gradients its operands need
        handed = []
        accum = Tensor._accum

        def record(t, g):
            handed.append(t)
            accum(t, g)

        monkeypatch.setattr(Tensor, "_accum", staticmethod(record))
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 3)))
        y = {"mul": lambda: x * c, "add": lambda: x + c, "matmul": lambda: x @ c}[op]()
        y.mean().backward()
        assert c not in handed and x in handed
        assert c.grad is None


class TestFloat32Numerics:
    """The networks compute in float32: every op keeps it, and the losses and
    the normalization stay finite and match float64 oracles there.
    ``TestAutodiff`` checks `log_sigmoid` in float32 too."""

    def test_layers_and_inputs_use_the_engine_dtype(self, rng):
        assert DTYPE == np.float32
        layers = [Conv3d(2, 3, rng=rng), ConvTranspose3d(2, 3, rng=rng),
                  ConvTranspose3d(2, 2, rng=rng, init="trilinear"), InstanceNorm3d(3),
                  Linear(3, 4, rng=rng)]
        assert {p.data.dtype for layer in layers for p in layer.parameters()} == {np.dtype(DTYPE)}
        vol = Volume(rng.random((4, 4, 4)), (1.0, 1.0, 1.0), UNIT)
        for x in (vol, rng.random((4, 4, 4)), rng.random((2, 4, 4, 4))):
            assert as_tensor(x).data.dtype == DTYPE
        assert Tensor(np.zeros(3)).data.dtype == np.float64  # a Tensor keeps a float dtype

    def test_every_op_keeps_float32(self, rng, monkeypatch):
        # every backward closure hands its gradient over through _accum
        handed = set()
        accum = Tensor._accum

        def record(t, g):
            handed.add(np.asarray(g).dtype)
            accum(t, g)

        monkeypatch.setattr(Tensor, "_accum", staticmethod(record))
        x = Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32), requires_grad=True)
        conv, tconv = Conv3d(2, 3, rng=rng), ConvTranspose3d(3, 2, rng=rng)
        norm, up_norm, lin = InstanceNorm3d(3), InstanceNorm3d(2), Linear(3, 4, rng=rng)
        h = ops.leaky_relu(norm(conv(x)), 0.2)
        up = ops.relu(tconv(h)) * 0.5 + 1.0
        emb = ops.l2_normalize_rows(lin(ops.gather_sites(h, np.array([0, 5, 9]))))
        logits = emb * 0.5 - 1.0
        terms = [
            ops.cross_entropy_rows(logits, np.array([0, 1, 3])),
            ops.log_sigmoid(-h).mean(),
            ops.tanh(up).mean(),
            (2.0 * up**-2).mean(),
            (-up_norm(up) + 1.0).mean(),
        ]
        loss = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
        for t in (h, up, emb, logits, *terms, loss):
            assert t.data.dtype == np.float32
        loss.backward()
        params = [p for m in (conv, tconv, norm, up_norm, lin) for p in m.parameters()]
        assert {t.grad.dtype for t in [x, *params]} == {np.dtype(np.float32)}
        assert handed == {np.dtype(np.float32)}

    def test_cross_entropy_rows_at_large_logits(self):
        # exp(89) already overflows float32; the max shift keeps every term finite
        z = np.array([[1e4, -1e4, 0.0], [200.0, 300.0, 250.0], [-80.0, -90.0, -100.0]], np.float32)
        targets = np.array([1, 1, 2])
        t = Tensor(z, requires_grad=True)
        loss = ops.cross_entropy_rows(t, targets)
        loss.backward()
        z64 = z.astype(np.float64)
        want = np.mean(scipy.special.logsumexp(z64, axis=1) - z64[np.arange(3), targets])
        assert loss.data.dtype == np.float32
        assert float(loss.data) == pytest.approx(want, rel=1e-6)
        assert np.isfinite(t.grad).all()

    @pytest.mark.parametrize("eps", [1e-8, 1e-5])  # a tiny eps and InstanceNorm3d's
    def test_instance_norm_of_a_constant_volume(self, eps):
        t = Tensor(np.full((2, 5, 6, 7), 0.3, np.float32), requires_grad=True)
        out = ops.instance_norm(t, Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)),
                                eps)
        (out * out).mean().backward()
        assert out.data.dtype == np.float32 and t.grad.dtype == np.float32
        assert np.isfinite(out.data).all() and np.isfinite(t.grad).all()
        assert np.abs(out.data).max() < 1e-2


def special_values(dtype, n, rng):
    """``n`` entries of ``dtype``: signed zeros, infinities, NaN, subnormals,
    then normal draws."""
    tiny = np.finfo(dtype).smallest_subnormal
    head = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e30, -1e30], dtype)
    return np.concatenate([head, rng.normal(size=n - len(head)).astype(dtype)])


class TestGraphFreePasses:
    """A pass that needs no gradient writes activations into the buffer the
    layer before it made: the same bits as the graph-building pass, and the
    caller's input untouched."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("act", ["relu", "leaky_relu"])
    def test_inplace_activation_writes_its_input_only_without_a_gradient(self, act, dtype, rng,
                                                                          monkeypatch):
        monkeypatch.setattr(kernels, "GROUP_ELEMS", 7)  # several blocks and a short last one
        op = getattr(ops, act)
        x = special_values(dtype, 60, rng).reshape(3, 5, 2, 2)
        uint = f"u{x.itemsize}"
        with np.errstate(invalid="ignore"):  # relu's inf * 0
            want = op(Tensor(x.copy())).data
            t = Tensor(x.copy())
            y = op(t, inplace=True)
            assert y.data.dtype == dtype and np.shares_memory(y.data, t.data)
            np.testing.assert_array_equal(y.data.view(uint), want.view(uint))
            t = Tensor(x.copy(), requires_grad=True)
            y = op(t, inplace=True)  # a gradient needs the input, so it is kept
        assert not np.shares_memory(y.data, t.data)
        np.testing.assert_array_equal(t.data.view(uint), x.view(uint))
        np.testing.assert_array_equal(y.data.view(uint), want.view(uint))

    @pytest.mark.parametrize("act", ["relu", "leaky_relu"])
    def test_inplace_activation_refuses_a_strided_buffer(self, act, rng):
        x = rng.normal(size=(4, 6)).astype(np.float32)
        kept = x.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            getattr(ops, act)(Tensor(x[:, ::2]), inplace=True)
        np.testing.assert_array_equal(x, kept)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_graph_free_instance_norm_has_the_graph_bits(self, dtype, rng):
        x = rng.normal(loc=0.5, scale=2.0, size=(3, 4, 5, 6)).astype(dtype)
        gamma, beta = (rng.normal(size=3).astype(dtype) for _ in range(2))
        want = ops.instance_norm(Tensor(x.copy(), requires_grad=True), Tensor(gamma),
                                 Tensor(beta), 1e-5).data
        given = x.copy()
        got = ops.instance_norm(Tensor(given), Tensor(gamma), Tensor(beta), 1e-5).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(f"u{x.itemsize}"), want.view(f"u{x.itemsize}"))
        np.testing.assert_array_equal(given, x)

    @pytest.mark.parametrize("net", ["sr", "generator", "discriminator"])
    def test_forward_has_the_graph_bits_and_keeps_the_input(self, net, rng):
        if net == "sr":
            model = lapsrn.build_sr_net(lapsrn.PyramidSpec(filters=4, feat_layers=4), seed=1)
            for p in model.parameters():  # every layer matters, the zeroed head too
                p.data += rng.normal(scale=0.05, size=p.data.shape).astype(p.data.dtype)
            run = model
        elif net == "generator":
            model = cut.Generator(cut.GeneratorSpec(4, 2, 2), rng)
            taps = tuple(range(len(model.eligible_taps())))

            def run(x):  # the output and every NCE tap
                out, feats = model(x, taps)
                return [out, *feats]
        else:
            model = cut.Discriminator(cut.DiscriminatorSpec(2, 4), rng)

            def run(x):
                return [model(x)]
        x = rng.random((1, 12, 12, 12)).astype(DTYPE)
        built = run(Tensor(x.copy()))
        assert all(t.requires_grad for t in built)
        given = x.copy()
        with model.frozen():
            free = run(Tensor(given))
        assert len(free) == len(built) and not any(t.requires_grad for t in free)
        for a, b in zip(free, built):
            np.testing.assert_array_equal(a.data.view(np.uint32), b.data.view(np.uint32))
        np.testing.assert_array_equal(given, x)

    def test_sr_pass_peaks_under_1_6_of_its_widest_activation(self, rng):
        # perfbench's SR widths on a 32^3 input: the widest activation is the
        # 2x level's 16 channels at 64^3, 16 MiB of float32
        net = lapsrn.build_sr_net(lapsrn.PyramidSpec(filters=16, feat_layers=4), seed=0)
        x = rng.random((1, 32, 32, 32)).astype(DTYPE)
        widest = 16 * 64**3 * np.dtype(DTYPE).itemsize
        with net.frozen():
            net(x)  # warm-up
            tracemalloc.start()
            try:
                out = net(x)[-1]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out.data.shape == (1, 64, 64, 64)
        assert peak <= 1.6 * widest, peak / widest


class TestLayers:
    def test_conv_layer_shapes_and_params(self, rng):
        conv = Conv3d(2, 5, k=3, stride=2, rng=rng)
        y = conv(Tensor(rng.normal(size=(2, 8, 8, 8))))
        assert y.data.shape == (5, 4, 4, 4)
        names = [n for n, _ in conv.named_parameters()]
        assert names == ["weight", "bias"]

    def test_trilinear_filter_partition_of_unity(self):
        f = trilinear_filter()
        assert f.shape == (4, 4, 4)
        # each stride-parity class of the separable profile sums to 1, so
        # stride-2 translates tile space: deconv of ones has unit interior
        profile = f.sum(axis=(1, 2)) / f.sum(axis=(1, 2)).sum() * 2.0
        np.testing.assert_allclose(profile[0::2].sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(profile[1::2].sum(), 1.0, atol=1e-12)
        up = kernels.tconv3d_forward(np.ones((1, 5, 5, 5)), f[None, None], 2, 1)
        assert up.shape == (1, 10, 10, 10)
        np.testing.assert_allclose(up[0, 2:-2, 2:-2, 2:-2], 1.0, atol=1e-12)

    def test_tconv_trilinear_init_resamples(self, rng):
        # deconv with the trilinear filter == edge-clamped trilinear x2 in the interior
        tc = ConvTranspose3d(1, 1, rng=rng, init="trilinear")
        x = rng.normal(size=(1, 6, 6, 6))
        up = tc(Tensor(x)).data[0]
        want = kernels.resample3d(x[0], (12, 12, 12))
        np.testing.assert_allclose(up[2:-2, 2:-2, 2:-2], want[2:-2, 2:-2, 2:-2], atol=1e-12)

    def test_instance_norm_layer(self, rng):
        layer = InstanceNorm3d(3)
        y = layer(Tensor(rng.normal(size=(3, 4, 4, 4))))
        assert y.data.shape == (3, 4, 4, 4)

    def test_instance_norm_layer_is_one_node(self, rng):
        layer = InstanceNorm3d(3)
        x = Tensor(rng.normal(size=(3, 4, 4, 4)), requires_grad=True)
        assert layer(x)._parents == (x, layer.gamma, layer.beta)

    def test_frozen_instance_norm_gets_no_affine_gradient(self, rng):
        # frozen for the forward pass only, as `cut.gan_losses` freezes D: the
        # flag read at forward time decides, not the one at backward time
        layer = InstanceNorm3d(3)
        x = Tensor(rng.normal(size=(3, 4, 4, 4)), requires_grad=True)
        with layer.frozen():
            y = layer(x)
        (y * y).mean().backward()
        assert layer.gamma.grad is None and layer.beta.grad is None
        assert x.grad is not None

    def test_linear_layer(self, rng):
        lin = Linear(4, 2, rng=rng)
        y = lin(Tensor(rng.normal(size=(7, 4))))
        assert y.data.shape == (7, 2)

    def test_module_tree_state_roundtrip(self, rng, tmp_path):
        class Net(Module):
            def __init__(self):
                self.a = Conv3d(1, 2, rng=np.random.default_rng(0))
                self.blocks = [Linear(3, 3, rng=np.random.default_rng(1)) for _ in range(2)]

        net, other = Net(), Net()
        assert [n for n, _ in net.named_parameters()] == [
            "a.weight", "a.bias", "blocks.0.weight", "blocks.0.bias",
            "blocks.1.weight", "blocks.1.bias"]
        for _, p in other.named_parameters():
            p.data = p.data + 1.0
        save_state(tmp_path / "net.npz", {}, {"net": net}, {})
        meta, arrays = load_checkpoint(tmp_path / "net.npz")
        restore_state(meta, arrays, {"net": other}, {})
        for (na, pa), (nb, pb) in zip(net.named_parameters(), other.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
        del arrays["param/net/a.weight"]
        with pytest.raises(ValueError, match="missing array"):
            restore_state(meta, arrays, {"net": other}, {})

    def test_freeze_blocks_grads(self, rng):
        lin = Linear(3, 2, rng=rng)
        with lin.frozen():
            out = lin(Tensor(rng.normal(size=(4, 3)), requires_grad=True))
        out.mean().backward()
        assert all(p.grad is None for p in lin.parameters())
        out2 = lin(Tensor(rng.normal(size=(4, 3))))
        out2.mean().backward()
        assert all(p.grad is not None for p in lin.parameters())


def reference_adam(params, grads_seq, lr, betas, eps, steps):
    b1, b2 = betas
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    out = [p.copy() for p in params]
    for t in range(1, steps + 1):
        for i, g in enumerate(grads_seq[t - 1]):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat = m[i] / (1 - b1**t)
            vhat = v[i] / (1 - b2**t)
            out[i] -= lr * mhat / (np.sqrt(vhat) + eps)
    return out


class TestOptim:
    def test_adam_matches_reference(self, rng):
        init = [rng.normal(size=(3, 2)), rng.normal(size=(4,))]
        grads = [[rng.normal(size=a.shape) for a in init] for _ in range(5)]
        ps = [Tensor(a.copy(), requires_grad=True) for a in init]
        opt = Adam(ps, lr=1e-2, betas=(0.5, 0.999))
        for step_grads in grads:
            for p, g in zip(ps, step_grads):
                p.grad = g.copy()
            opt.step()
        want = reference_adam(init, grads, 1e-2, (0.5, 0.999), 1e-8, 5)
        for p, w in zip(ps, want):
            np.testing.assert_allclose(p.data, w, rtol=1e-12)

    def test_sgd_matches_reference(self, rng):
        a0 = rng.normal(size=(4,))
        g = rng.normal(size=(4,))
        p = Tensor(a0.copy(), requires_grad=True)
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.01)
        buf = np.zeros_like(a0)
        ref = a0.copy()
        for _ in range(4):
            p.grad = g.copy()
            opt.step()
            buf = 0.9 * buf + (g + 0.01 * ref)
            ref = ref - 0.1 * buf
        np.testing.assert_allclose(p.data, ref, rtol=1e-12)

    def test_optimizer_state_roundtrip(self, rng, tmp_path):
        p1 = Tensor(rng.normal(size=(3,)), requires_grad=True)
        p2 = Tensor(p1.data.copy(), requires_grad=True)
        o1 = Adam([p1], lr=1e-3)
        for _ in range(3):
            p1.grad = np.ones(3)
            o1.step()
        o2 = Adam([p2], lr=1e-3)
        save_state(tmp_path / "opt.npz", {}, {}, {"opt": o1})
        restore_state(*load_checkpoint(tmp_path / "opt.npz"), {}, {"opt": o2})
        p2.data = p1.data.copy()
        p1.grad = p2.grad = np.full(3, 0.5)
        o1.step()
        o2.step()
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_skips_missing_grads(self, rng):
        p = Tensor(rng.normal(size=(2,)), requires_grad=True)
        before = p.data.copy()
        Adam([p], lr=1.0).step()
        np.testing.assert_array_equal(p.data, before)


class TestPlateauDecay:
    def test_holds_until_patience_then_decays_linearly(self):
        sched = PlateauDecay(lr0=1.0, patience=2, max_epochs=10)
        losses = [5.0, 4.0, 4.0, 4.0]  # two consecutive non-improvements arm it
        for e, loss in enumerate(losses):
            assert sched.lr_for_epoch(e) == 1.0
            sched.observe(loss, epochs_done=e + 1)
        assert sched.trigger_epoch == 4
        assert sched.lr_for_epoch(4) == 1.0
        assert sched.lr_for_epoch(7) == pytest.approx(0.5)
        assert sched.lr_for_epoch(10) == 0.0
        assert sched.lr_for_epoch(12) == 0.0  # clamped, never negative

    def test_improvement_resets_counter(self):
        sched = PlateauDecay(lr0=1.0, patience=2, max_epochs=10)
        for e, loss in enumerate([5.0, 5.0, 4.0, 4.0]):
            sched.observe(loss, epochs_done=e + 1)
        assert sched.trigger_epoch == -1  # never two bad epochs in a row

    def test_state_roundtrip(self):
        a = PlateauDecay(1.0, 1, 8)
        a.observe(3.0, 1)
        a.observe(3.5, 2)
        b = PlateauDecay(1.0, 1, 8)
        b.load(a.state())
        assert b.trigger_epoch == a.trigger_epoch == 2
        assert b.lr_for_epoch(5) == a.lr_for_epoch(5)
