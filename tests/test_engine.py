"""Engine tests: kernels against scipy oracles and adjoint identities,
autodiff against central finite differences, optimizers against textbook
reference updates."""

import numpy as np
import pytest
import scipy.ndimage as ndi
import scipy.signal
import scipy.special

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
from skullsynth.engine.tensor import Tensor

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


class TestConvKernels:
    @NUMPY_ID
    @pytest.mark.parametrize("stride,pad,k", [(1, 0, 3), (1, 1, 3), (2, 1, 4), (2, 1, 3)])
    def test_forward_matches_scipy(self, stride, pad, k, rng):
        x = rng.normal(size=(3, 7, 6, 8))
        w = rng.normal(size=(4, 3, k, k, k))
        got = kernels.conv3d_forward(x, w, stride, pad)
        want = conv_oracle(x, w, stride, pad)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

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
    @NUMPY_ID
    def test_matches_map_coordinates(self, rng):
        vol = rng.normal(size=(5, 7, 6))
        out_shape = (9, 4, 11)
        got = kernels.resample3d(vol, out_shape)
        grids = np.meshgrid(
            *(
                np.clip((np.arange(m) + 0.5) * n / m - 0.5, 0, n - 1)
                for m, n in zip(out_shape, vol.shape)
            ),
            indexing="ij",
        )
        want = ndi.map_coordinates(vol, np.stack(grids), order=1, mode="nearest")
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
        check_grads(lambda x, y: ((x * y + x - 2.0) / y).sum(), [a, b])

    def test_broadcast_add_unbroadcasts(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        check_grads(lambda x, y: ((x + y) * (x + y)).sum(), [a, b])

    def test_pow_matmul_mean(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grads(lambda x, y: ((x @ y) ** 3).mean(), [a, b])

    def test_sum_axis(self, rng):
        a = rng.normal(size=(2, 3, 4))
        check_grads(lambda x: (x.sum(axis=1) ** 2).sum(), [a])

    def test_reshape_detach(self, rng):
        a = rng.normal(size=(2, 6))
        t = Tensor(a.copy(), requires_grad=True)
        loss = (t.reshape(3, 4) * t.reshape(3, 4)).sum() + t.detach().sum()
        loss.backward()
        np.testing.assert_allclose(t.grad, 2 * a)  # detach contributes nothing

    def test_elementwise_nonlinearities(self, rng):
        a = rng.normal(size=(3, 5)) + 0.1  # off the relu kink
        check_grads(lambda x: ops.relu(x).sum(), [a])
        check_grads(lambda x: ops.leaky_relu(x, 0.2).sum(), [a])
        check_grads(lambda x: ops.tanh(x).sum(), [a])
        check_grads(lambda x: ops.exp(x * 0.3).sum(), [a])
        check_grads(lambda x: ops.log(ops.exp(x)).sum(), [a])

    def test_log_sigmoid_matches_scipy(self):
        x = np.linspace(-60.0, 60.0, 2401)
        got = ops.log_sigmoid(Tensor(x)).data
        np.testing.assert_allclose(got, scipy.special.log_expit(x), rtol=1e-13, atol=1e-300)

    def test_log_sigmoid_gradient(self, rng):
        a = rng.normal(size=(3, 5)) * 4.0
        check_grads(lambda x: (ops.log_sigmoid(x) * x).sum(), [a])

    def test_log_sigmoid_gradient_survives_large_logits(self):
        t = Tensor(np.array([-50.0, 50.0]), requires_grad=True)
        ops.log_sigmoid(t).sum().backward()
        np.testing.assert_allclose(t.grad, scipy.special.expit([50.0, -50.0]), rtol=1e-13)
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
        check_grads(lambda t: (ops.gather_sites(t, idx) ** 2).sum(), [x])

    def test_l2_normalize_rows(self, rng):
        x = rng.normal(size=(4, 6))
        check_grads(lambda t: (ops.l2_normalize_rows(t) * np.arange(6.0)).sum(), [x])
        rows = ops.l2_normalize_rows(Tensor(x)).data
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-5)

    def test_l2_normalize_zero_row_is_finite(self):
        t = Tensor(np.zeros((2, 5)), requires_grad=True)
        out = ops.l2_normalize_rows(t)
        assert np.all(np.isfinite(out.data)) and np.all(out.data == 0.0)
        out.sum().backward()
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
        (t * t).sum().backward()
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, 4 * a)
        t.zero_grad()
        assert t.grad is None


class TestLayers:
    def test_conv_layer_shapes_and_params(self, rng):
        conv = Conv3d(2, 5, k=3, stride=2, rng=rng)
        y = conv(Tensor(rng.normal(size=(2, 8, 8, 8))))
        assert y.shape == (5, 4, 4, 4)
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
        assert y.shape == (3, 4, 4, 4)

    def test_linear_layer(self, rng):
        lin = Linear(4, 2, rng=rng)
        y = lin(Tensor(rng.normal(size=(7, 4))))
        assert y.shape == (7, 2)

    def test_module_tree_state_roundtrip(self, rng):
        class Net(Module):
            def __init__(self):
                self.a = Conv3d(1, 2, rng=np.random.default_rng(0))
                self.blocks = [Linear(3, 3, rng=np.random.default_rng(1)) for _ in range(2)]

        net, other = Net(), Net()
        for _, p in other.named_parameters():
            p.data = p.data + 1.0
        state = net.state_dict()
        other.load_state_dict(state)
        for (na, pa), (nb, pb) in zip(net.named_parameters(), other.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
        with pytest.raises(KeyError):
            net.load_state_dict({k: v for k, v in list(state.items())[1:]})

    def test_freeze_blocks_grads(self, rng):
        lin = Linear(3, 2, rng=rng)
        lin.freeze()
        out = lin(Tensor(rng.normal(size=(4, 3)), requires_grad=True))
        out.sum().backward()
        assert all(p.grad is None for p in lin.parameters())
        lin.unfreeze()
        out2 = lin(Tensor(rng.normal(size=(4, 3))))
        out2.sum().backward()
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

    def test_optimizer_state_roundtrip(self, rng):
        p1 = Tensor(rng.normal(size=(3,)), requires_grad=True)
        p2 = Tensor(p1.data.copy(), requires_grad=True)
        o1 = Adam([p1], lr=1e-3)
        for _ in range(3):
            p1.grad = np.ones(3)
            o1.step()
        o2 = Adam([p2], lr=1e-3)
        o2.load_state_dict(o1.state_dict())
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
