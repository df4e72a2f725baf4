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
from skullsynth import metrics
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
                                      "empty"])
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
        }[name]
        r = int(np.abs(offs).max(initial=0))

        def shifted(mask, sign):
            # pad by the reach with background; dilation reads voxel p - o,
            # erosion voxel p + o
            padded = np.pad(mask, r)
            return [padded[tuple(slice(r + sign * o, r + sign * o + n)
                                 for o, n in zip(off, mask.shape))] for off in offs]

        # sparse seeds for dilation and sparse holes for erosion, so that a
        # large box neither fills nor empties the volume
        sparse = (rng.random((9, 8, 10)) < 0.04).astype(np.uint8)
        dense = 1 - (rng.random((9, 8, 10)) < 0.01).astype(np.uint8)
        # each reduction starts from its identity, the result of the empty set
        np.testing.assert_array_equal(
            kernels.dilate(sparse, offs),
            np.bitwise_or.reduce([np.zeros_like(sparse)] + shifted(sparse, -1)))
        np.testing.assert_array_equal(
            kernels.erode(dense, offs),
            np.bitwise_and.reduce([np.ones_like(dense)] + shifted(dense, 1)))

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

    def test_reshape_detach(self, rng):
        a = rng.normal(size=(2, 6))
        t = Tensor(a.copy(), requires_grad=True)
        loss = (t.reshape(3, 4) * t.reshape(3, 4)).mean() + t.detach().mean()
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
            lambda xx, ww, bb: (ops.conv_transpose3d(xx, ww, bb, stride=2, pad=1) ** 2).mean(),
            [x, w, b],
            rtol=5e-4,
        )

    def test_instance_norm(self, rng):
        x = rng.normal(size=(2, 3, 4, 3)) * 2.0
        check_grads(lambda t: (ops.instance_norm(t) ** 3).mean(), [x], rtol=5e-4)

    def test_instance_norm_statistics(self, rng):
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 6, 5, 7)))
        y = ops.instance_norm(x).data.reshape(4, -1)
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-6)

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


class TestFloat32Numerics:
    """The networks compute in float32: every op keeps it, and the losses and
    the normalization stay finite and match float64 oracles there.
    ``TestAutodiff`` checks `log_sigmoid` in float32 too."""

    def test_layers_and_inputs_use_the_engine_dtype(self, rng):
        assert DTYPE == np.float32
        layers = [Conv3d(2, 3, rng=rng), ConvTranspose3d(2, 3, rng=rng),
                  ConvTranspose3d(2, 2, init="trilinear"), InstanceNorm3d(3), Linear(3, 4, rng=rng)]
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
        norm, lin = InstanceNorm3d(3), Linear(3, 4, rng=rng)
        h = ops.leaky_relu(norm(conv(x)), 0.2)
        up = ops.relu(tconv(h)) * 0.5 + 1.0
        emb = ops.l2_normalize_rows(lin(ops.gather_sites(h, np.array([0, 5, 9]))))
        logits = emb * 0.5 - 1.0
        terms = [
            ops.cross_entropy_rows(logits, np.array([0, 1, 3])),
            ops.log_sigmoid(-h).mean(),
            ops.tanh(up).mean(),
            (2.0 * up**-2).mean(),
            (-ops.instance_norm(up) + 1.0).reshape(-1).mean(),
        ]
        loss = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
        for t in (h, up, emb, logits, *terms, loss):
            assert t.data.dtype == np.float32
        loss.backward()
        params = [p for m in (conv, tconv, norm, lin) for p in m.parameters()]
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

    @pytest.mark.parametrize("eps", [1e-8, 1e-5])  # the op's default and InstanceNorm3d's
    def test_instance_norm_of_a_constant_volume(self, eps):
        t = Tensor(np.full((2, 5, 6, 7), 0.3, np.float32), requires_grad=True)
        out = ops.instance_norm(t, eps)
        (out * out).mean().backward()
        assert out.data.dtype == np.float32 and t.grad.dtype == np.float32
        assert np.isfinite(out.data).all() and np.isfinite(t.grad).all()
        assert np.abs(out.data).max() < 1e-2


class TestLayers:
    def test_conv_layer_shapes_and_params(self, rng):
        conv = Conv3d(2, 5, k=3, stride=2, rng=rng)
        y = conv(Tensor(rng.normal(size=(2, 8, 8, 8))))
        assert y.data.shape == (5, 4, 4, 4)
        names = [n for n, _ in conv.named_parameters()]
        assert names == ["weight", "bias"]

    def test_trilinear_filter_partition_of_unity(self):
        f = trilinear_filter(k=4, stride=2)
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
        tc = ConvTranspose3d(1, 1, k=4, stride=2, pad=1, bias=False, init="trilinear")
        x = rng.normal(size=(1, 6, 6, 6))
        up = tc(Tensor(x)).data[0]
        want = kernels.resample3d(x[0], (12, 12, 12))
        np.testing.assert_allclose(up[2:-2, 2:-2, 2:-2], want[2:-2, 2:-2, 2:-2], atol=1e-12)

    def test_instance_norm_layer(self, rng):
        layer = InstanceNorm3d(3)
        y = layer(Tensor(rng.normal(size=(3, 4, 4, 4))))
        assert y.data.shape == (3, 4, 4, 4)

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
        lin.freeze()
        out = lin(Tensor(rng.normal(size=(4, 3)), requires_grad=True))
        out.mean().backward()
        assert all(p.grad is None for p in lin.parameters())
        lin.unfreeze()
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
