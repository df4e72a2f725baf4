"""Translation stack: network shapes, contrastive losses against independent
softmax math, adversarial loss algebra and gradient separation, and the
training loop's checkpoint/resume determinism."""

import contextlib
import os

import numpy as np
import pytest
import scipy.special

from skullsynth import checkpoint as ckpt_io
from skullsynth import training
from skullsynth.cut import (
    CSV_COLUMNS,
    CutTrainConfig,
    Discriminator,
    DiscriminatorSpec,
    FeatureProjector,
    FeatureStack,
    Generator,
    GeneratorSpec,
    NCEConfig,
    ProjectorSpec,
    ResBlock,
    build_networks,
    cut_total_loss,
    gan_losses,
    load_cut_checkpoint,
    nce_from_stacks,
    project_features,
    sample_locations,
    train_cut,
    translate,
)
from skullsynth.engine.tensor import Tensor, as_tensor
from skullsynth.volume_io import HU, UNIT, Volume

TINY_G = GeneratorSpec(base_filters=2, n_downsample=1, n_residual_blocks=1)
TINY_D = DiscriminatorSpec(n_layers=1, base_filters=2)
TINY_P = ProjectorSpec(n_layers=2, embed_dim=6)
TINY_NCE = NCEConfig(num_patches=4, temperature=1.0)


def tiny_nets(seed=0):
    return build_networks(TINY_G, TINY_D, TINY_P, TINY_NCE, seed)


def unit_vol(rng, shape=(8, 8, 8)):
    return Volume(rng.random(shape), (1, 1, 1), UNIT)


def embed(g, f, tap_ids, vol, **where):
    """Projected encoder features of `vol`, at locations drawn from `rng=` or given as `locations=`."""
    return project_features(f, g.encode(as_tensor(vol), tap_ids), tap_ids, TINY_NCE, **where)


def patch_nce(g, f, tap_ids, source, translated, rng):
    """PatchNCE between two volumes as the training step computes it: locations
    are drawn on the source and reused on the translation."""
    src = embed(g, f, tap_ids, source, rng=rng)
    tr = embed(g, f, tap_ids, translated, locations=src.locations)
    return nce_from_stacks(tr, src, TINY_NCE.temperature)


def one_layer_nce(z_tr, z_src, temperature):
    """The contrastive loss of one tap layer with the given (S, E) embeddings."""
    locs = np.arange(len(z_src))
    stack = lambda z: FeatureStack((0,), [locs], [z if isinstance(z, Tensor) else Tensor(z)])
    return nce_from_stacks(stack(z_tr), stack(z_src), temperature)[0]


class TestSpecsValidate:
    def test_generator_spec(self):
        with pytest.raises(ValueError):
            GeneratorSpec(base_filters=0)
        with pytest.raises(ValueError):
            GeneratorSpec(n_downsample=-1)
        with pytest.raises(ValueError):
            GeneratorSpec(n_residual_blocks=-1)

    def test_discriminator_and_projector_specs(self):
        with pytest.raises(ValueError):
            DiscriminatorSpec(n_layers=0)
        with pytest.raises(ValueError):
            ProjectorSpec(embed_dim=0)

    def test_nce_config(self):
        with pytest.raises(ValueError):
            NCEConfig(num_patches=1)
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError, match="temperature"):
                NCEConfig(temperature=tau)
        assert NCEConfig(tap_layers=[0, 2]).tap_layers == (0, 2)

    def test_train_config(self):
        with pytest.raises(ValueError):
            CutTrainConfig(lambda_gan=-0.5)
        with pytest.raises(ValueError):
            CutTrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            CutTrainConfig(gan_mode="wasserstein")
        for batch_size in (0, -2):
            with pytest.raises(ValueError, match="batch_size"):
                CutTrainConfig(batch_size=batch_size)


class TestGenerator:
    def test_fresh_output_in_range_and_nonconstant(self, rng):
        g = Generator(GeneratorSpec(base_filters=4, n_downsample=2, n_residual_blocks=2),
                      np.random.default_rng(0))
        out, _ = g(Tensor(rng.random((1, 8, 8, 8))))
        assert out.data.shape == (1, 8, 8, 8)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0
        assert out.data.var() > 0.0

    def test_rejects_indivisible_shape(self, rng):
        g = Generator(GeneratorSpec(base_filters=2, n_downsample=2, n_residual_blocks=1),
                      np.random.default_rng(0))
        with pytest.raises(ValueError, match="divisible"):
            g(Tensor(rng.random((1, 10, 8, 8))))

    def test_eligible_taps_channel_progression(self):
        g = Generator(GeneratorSpec(base_filters=4, n_downsample=2, n_residual_blocks=3),
                      np.random.default_rng(0))
        assert g.eligible_taps() == [4, 8, 16, 16, 16, 16]
        assert g.default_tap_ids() == (0, 1, 2, 3, 4, 5)

    def test_default_taps_cap_at_nine(self):
        g = Generator(GeneratorSpec(base_filters=2, n_downsample=2, n_residual_blocks=9),
                      np.random.default_rng(0))
        assert len(g.eligible_taps()) == 12
        assert g.default_tap_ids() == tuple(range(9))

    def test_encode_shapes_follow_downsampling(self, rng):
        g = Generator(GeneratorSpec(base_filters=2, n_downsample=2, n_residual_blocks=1),
                      np.random.default_rng(0))
        feats = g.encode(Tensor(rng.random((1, 8, 8, 8))), (0, 1, 2, 3))
        assert feats[0].data.shape == (2, 8, 8, 8)
        assert feats[1].data.shape == (4, 4, 4, 4)
        assert feats[2].data.shape == (8, 2, 2, 2)
        assert feats[3].data.shape == (8, 2, 2, 2)

    def test_invalid_tap_ids_rejected(self, rng):
        g = Generator(TINY_G, np.random.default_rng(0))
        with pytest.raises(ValueError, match="invalid tap ids"):
            g.encode(Tensor(rng.random((1, 8, 8, 8))), (0, 7))

    def test_full_pass_rejects_invalid_tap_ids_as_encode_does(self, rng):
        g = Generator(TINY_G, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"invalid tap ids \[7\]"):
            g(Tensor(rng.random((1, 8, 8, 8))), (0, 7))

    def test_encode_runs_no_block_past_the_last_tap(self, rng, monkeypatch):
        g = Generator(GeneratorSpec(base_filters=2, n_downsample=1, n_residual_blocks=4),
                      np.random.default_rng(0))
        calls = []
        call = ResBlock.__call__
        monkeypatch.setattr(ResBlock, "__call__",
                            lambda block, x: calls.append(block) or call(block, x))
        x = Tensor(rng.random((1, 8, 8, 8)))
        for taps, ran in (((0, 1), 0), ((0, 1, 2), 1), ((3, 0), 2), ((5,), 4)):
            calls.clear()
            g.encode(x, taps)
            assert calls == g.blocks[:ran], taps
        calls.clear()
        g(x, (0,))  # the full pass runs every block
        assert calls == g.blocks

    def test_forward_taps_match_encoder_pass(self, rng):
        g = Generator(TINY_G, np.random.default_rng(0))
        x = Tensor(rng.random((1, 8, 8, 8)))
        _, taps_fwd = g(x, tap_ids=(0, 1))
        taps_enc = g.encode(x, (0, 1))
        for a, b in zip(taps_fwd, taps_enc):
            np.testing.assert_array_equal(a.data, b.data)

    def test_generator_forward_volume_contract(self, rng):
        g = Generator(TINY_G, np.random.default_rng(0))
        v = unit_vol(rng)
        out = translate({"g": g}, v)
        assert out.domain == UNIT and out.data.shape == v.data.shape
        with pytest.raises(ValueError, match="UNIT"):
            translate({"g": g}, Volume(rng.random((8, 8, 8)) * 100, (1, 1, 1), HU))

    def test_translate_builds_no_graph_and_keeps_the_callers_flags(self, rng, graph_nodes):
        g = Generator(TINY_G, np.random.default_rng(0))
        g.stem.bias.requires_grad = False  # a caller's own freeze stays as it was
        flags = [p.requires_grad for p in g.parameters()]
        v = unit_vol(rng)
        out = translate({"g": g}, v)
        assert graph_nodes == []
        assert [p.requires_grad for p in g.parameters()] == flags
        want, _ = g(as_tensor(v))  # unfrozen, the same pass builds a graph
        assert graph_nodes
        np.testing.assert_array_equal(out.data, want.data[0])

    def test_build_networks_seed_deterministic(self):
        g1, d1, f1, t1 = tiny_nets(seed=5)
        g2, d2, f2, t2 = tiny_nets(seed=5)
        assert t1 == t2
        for (na, pa), (nb, pb) in zip(g1.named_parameters(), g2.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
        g3 = tiny_nets(seed=6)[0]
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(g1.named_parameters(), g3.named_parameters())
        )


class TestDiscriminator:
    def test_patch_logit_shape(self, rng):
        d = Discriminator(DiscriminatorSpec(n_layers=2, base_filters=4), np.random.default_rng(0))
        out = d(Tensor(rng.random((1, 16, 16, 16))))
        # two stride-2 stages then two k4/s1/p1 convs, each trimming one voxel
        assert out.data.shape == (1, 2, 2, 2)

    def test_channel_cap_at_8x_base(self):
        d = Discriminator(DiscriminatorSpec(n_layers=5, base_filters=2), np.random.default_rng(0))
        widths = [conv.weight.data.shape[0] for conv in d.convs]
        assert max(widths) == 16
        assert widths[:3] == [2, 4, 8]

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_min_edge_is_the_smallest_edge_with_a_logit(self, n_layers):
        spec = DiscriminatorSpec(n_layers=n_layers, base_filters=1)
        d = Discriminator(spec, np.random.default_rng(0))
        edge = spec.min_edge()
        assert d(Tensor(np.zeros((1, edge, edge + 1, edge)))).data.shape[1:] == (1, 1, 1)
        try:  # one voxel less leaves an empty grid, or no room for a window
            assert d(Tensor(np.zeros((1, edge, edge - 1, edge)))).data.size == 0
        except ValueError:
            pass
        assert DiscriminatorSpec().min_edge() == 24

    def test_first_layer_unnormalized(self):
        d = Discriminator(DiscriminatorSpec(n_layers=3, base_filters=2), np.random.default_rng(0))
        assert len(d.norms) == len(d.convs) - 1


class TestProjector:
    def test_embeddings_are_unit_rows(self, rng):
        f = FeatureProjector([3, 5], ProjectorSpec(n_layers=2, embed_dim=7),
                             np.random.default_rng(0))
        out = f.project(Tensor(rng.normal(size=(6, 5))), tap_index=1)
        assert out.data.shape == (6, 7)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-5)

    def test_parameter_count_no_double_discovery(self):
        spec = ProjectorSpec(n_layers=2, embed_dim=4)
        f = FeatureProjector([3, 6], spec, np.random.default_rng(0))
        want = (3 * 4 + 4) + (4 * 4 + 4) + (6 * 4 + 4) + (4 * 4 + 4)
        assert sum(p.data.size for p in f.parameters()) == want


class TestInfoNCE:
    """The contrastive loss of one tap layer on hand-built embeddings."""

    def test_orthogonal_negatives_hand_value(self):
        got = float(one_layer_nce(np.eye(5), np.eye(5), temperature=1.0).data)
        want = np.log(np.e + 4.0) - 1.0  # -log(e^1 / (e^1 + 4 e^0)) on every row
        assert got == pytest.approx(want, rel=1e-12)

    def test_indistinguishable_candidates_give_log_n(self):
        rows = np.full((8, 4), 0.5)
        got = float(one_layer_nce(rows, rows, temperature=0.3).data)
        assert got == pytest.approx(np.log(8.0), rel=1e-12)

    def test_sharper_temperature_rewards_alignment(self):
        e = np.eye(3)
        loose = float(one_layer_nce(e, e, temperature=1.0).data)
        sharp = float(one_layer_nce(e, e, temperature=0.07).data)
        assert sharp < loose

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            one_layer_nce(np.ones((1, 3)), np.ones((1, 3)), temperature=1.0)

    def test_gradient_reaches_reference(self, rng):
        z_tr = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        one_layer_nce(z_tr, rng.normal(size=(4, 5)), temperature=1.0).backward()
        assert z_tr.grad is not None and np.any(z_tr.grad != 0)


class TestPatchSampling:
    def test_locations_distinct_sorted_in_range(self):
        rng = np.random.default_rng(0)
        locs = sample_locations([(4, 4, 4), (2, 2, 2)], num_patches=10, rng=rng)
        assert len(locs) == 2
        assert locs[0].size == 10 and np.all(np.diff(locs[0]) > 0) and locs[0].max() < 64
        assert locs[1].size == 8  # layer smaller than the request uses every site

    def test_stacks_must_share_locations(self, rng):
        g, _, f, tap_ids = tiny_nets()
        a = embed(g, f, tap_ids, unit_vol(rng), rng=np.random.default_rng(1))
        b = embed(g, f, tap_ids, unit_vol(rng), rng=np.random.default_rng(2))
        with pytest.raises(ValueError, match="share sampled locations"):
            nce_from_stacks(a, b, temperature=1.0)

    def test_out_of_range_locations_rejected(self, rng):
        g, _, f, tap_ids = tiny_nets()
        feats = g.encode(Tensor(rng.random((1, 8, 8, 8))), tap_ids)
        bad = [np.array([0, 10_000]) for _ in tap_ids]
        with pytest.raises(ValueError, match="exceed layer grid"):
            project_features(f, feats, tap_ids, TINY_NCE, locations=bad)


class TestPatchNCE:
    def test_loss_matches_manual_softmax(self, rng, engine_dtype):
        engine_dtype(np.float64)  # the tolerance is float64's
        g, _, f, tap_ids = tiny_nets()
        src = unit_vol(rng)
        tr = unit_vol(rng)
        sample_rng = np.random.default_rng(7)
        stack_src = embed(g, f, tap_ids, src, rng=sample_rng)
        stack_tr = embed(g, f, tap_ids, tr, locations=stack_src.locations)
        total, per_layer = nce_from_stacks(stack_tr, stack_src, temperature=0.5)

        manual = []
        for z_tr, z_src in zip(stack_tr.embeddings, stack_src.embeddings):
            logits = (z_tr.data @ z_src.data.T) / 0.5
            lse = scipy.special.logsumexp(logits, axis=1)
            manual.append(float(np.mean(lse - np.diag(logits))))
        assert per_layer == pytest.approx(manual, rel=1e-10)
        assert float(total.data) == pytest.approx(np.mean(manual), rel=1e-10)

    def test_identical_volume_scores_below_chance(self, rng):
        # source against itself: diagonal logits maximal, loss far below log S
        g, _, f, tap_ids = tiny_nets()
        v = unit_vol(rng)
        loss, per_layer = patch_nce(g, f, tap_ids, v, v, np.random.default_rng(3))
        assert float(loss.data) < np.log(TINY_NCE.num_patches)
        assert len(per_layer) == len(tap_ids)

    def test_gradients_reach_generator_and_projector(self, rng):
        g, _, f, tap_ids = tiny_nets()
        loss, _ = patch_nce(g, f, tap_ids, unit_vol(rng), unit_vol(rng), np.random.default_rng(0))
        loss.backward()
        assert any(p.grad is not None for p in g.parameters())
        assert all(p.grad is not None for p in f.parameters())


class _StubD:
    """Callable standing in for a discriminator with fixed logits."""

    def __init__(self, value):
        self.value = value

    def __call__(self, x):
        return Tensor(np.full((1, 2, 2, 2), self.value))

    @contextlib.contextmanager
    def frozen(self):
        yield self


class _FailsWhenFrozenD(_StubD):
    """Stub discriminator whose forward raises while it is frozen."""

    def __init__(self):
        super().__init__(0.0)
        self.is_frozen = False

    def __call__(self, x):
        if self.is_frozen:
            raise RuntimeError("forward failed while frozen")
        return super().__call__(x)

    @contextlib.contextmanager
    def frozen(self):
        self.is_frozen = True
        try:
            yield self
        finally:
            self.is_frozen = False


class _IdentityD(_StubD):
    """Stub discriminator whose patch logits are its input."""

    def __init__(self):
        super().__init__(0.0)

    def __call__(self, x):
        return x


class TestGanLosses:
    def test_discriminator_unfrozen_after_failed_forward(self, rng):
        d = _FailsWhenFrozenD()
        with pytest.raises(RuntimeError, match="while frozen"):
            gan_losses(d, unit_vol(rng), unit_vol(rng))
        assert not d.is_frozen

    def test_log_mode_zero_logit_values(self, rng):
        x = unit_vol(rng)
        d_loss, g_adv = gan_losses(_StubD(0.0), x, unit_vol(rng), mode="log")
        assert float(d_loss.data) == pytest.approx(2 * np.log(2.0), rel=1e-12)
        assert float(g_adv.data) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_log_mode_confident_discriminator(self, rng):
        # logit z on real and synthetic: d_loss = softplus(-z) + softplus(z)
        z = 1.5
        d_loss, g_adv = gan_losses(_StubD(z), unit_vol(rng), unit_vol(rng), mode="log")
        want_d = np.log1p(np.exp(-z)) + np.log1p(np.exp(z))
        assert float(d_loss.data) == pytest.approx(want_d, rel=1e-10)
        assert float(g_adv.data) == pytest.approx(np.log1p(np.exp(-z)), rel=1e-10)

    @pytest.mark.parametrize("z", [-50.0, 50.0])
    def test_log_mode_keeps_gradient_at_large_logits(self, z):
        # a loss capped by a clamped log stays constant here, with zero gradient
        real = Tensor(np.full((1, 2, 2, 2), z), requires_grad=True)
        syn = Tensor(np.full((1, 2, 2, 2), z), requires_grad=True)
        d_loss, g_adv = gan_losses(_IdentityD(), real, syn, mode="log")
        assert float(g_adv.data) == pytest.approx(np.logaddexp(0.0, -z), rel=1e-12)
        assert float(d_loss.data) == pytest.approx(np.logaddexp(0.0, -z) + np.logaddexp(0.0, z), rel=1e-12)
        g_adv.backward()
        assert (syn.grad != 0).all()

    def test_lsgan_mode_values(self, rng):
        d_loss, g_adv = gan_losses(_StubD(0.0), unit_vol(rng), unit_vol(rng), mode="lsgan")
        assert float(d_loss.data) == pytest.approx(1.0)
        assert float(g_adv.data) == pytest.approx(1.0)

    def test_unknown_mode_and_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="gan mode"):
            gan_losses(_StubD(0.0), unit_vol(rng), unit_vol(rng), mode="hinge")
        with pytest.raises(ValueError, match="shape mismatch"):
            gan_losses(_StubD(0.0), unit_vol(rng), unit_vol(rng, shape=(8, 8, 4)))

    def test_gradient_separation(self, rng):
        g, d, _, _ = tiny_nets()
        real = Tensor(rng.random((1, 8, 8, 8)))
        syn, _ = g(Tensor(rng.random((1, 8, 8, 8))))
        d_loss, g_adv = gan_losses(d, real, syn, mode="log")

        d_loss.backward()
        assert all(p.grad is not None for p in d.parameters())
        assert all(p.grad is None for p in g.parameters())

        for p in d.parameters():
            p.grad = None
        g_adv.backward()
        assert all(p.grad is None for p in d.parameters())
        assert any(p.grad is not None for p in g.parameters())

    def test_keeps_the_callers_frozen_discriminator_parameter(self, rng):
        g, d, _, _ = tiny_nets()
        d.final.bias.requires_grad = False  # a caller's own freeze stays
        flags = [p.requires_grad for p in d.parameters()]
        syn, _ = g(Tensor(rng.random((1, 8, 8, 8))))
        d_loss, _ = gan_losses(d, Tensor(rng.random((1, 8, 8, 8))), syn, mode="log")
        assert [p.requires_grad for p in d.parameters()] == flags
        d_loss.backward()
        assert d.final.bias.grad is None
        assert d.final.weight.grad is not None


class TestTotalLoss:
    def test_weights_apply(self):
        cfg = CutTrainConfig(lambda_gan=2.0, lambda_syn=3.0, lambda_idt=4.0)
        assert cut_total_loss(1.0, 1.0, 1.0, cfg) == 9.0
        # the step trains on the same weighting of loss Tensors
        assert cut_total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0), cfg).item() == 9.0

    def test_zero_weight_drops_term(self):
        cfg = CutTrainConfig(lambda_gan=1.0, lambda_syn=0.0, lambda_idt=0.0)
        assert cut_total_loss(0.25, 123.0, 456.0, cfg) == 0.25


def fast_cfg(**kw):
    base = dict(
        lr=1e-3, batch_size=2, max_epochs=2, max_steps=0, checkpoint_every=1,
        plateau_patience_epochs=100, seed=11,
    )
    base.update(kw)
    return CutTrainConfig(**base)


@pytest.fixture
def small_sets(rng):
    mrs = [unit_vol(rng) for _ in range(2)]
    cts = [unit_vol(rng) for _ in range(2)]
    return mrs, cts


class TestTrainLoop:
    def test_smoke_artifacts(self, small_sets, tmp_path):
        mrs, cts = small_sets
        final, rows = train_cut(
            mrs, cts, fast_cfg(), g_spec=TINY_G, d_spec=TINY_D, p_spec=TINY_P,
            nce_cfg=TINY_NCE, run_dir=str(tmp_path),
        )
        assert os.path.basename(final) == "cut_final.npz"
        assert [(r[0], r[1]) for r in rows] == [(1, 0), (2, 1)]  # ceil(2/2)=1 step per epoch
        assert np.isfinite([r[2:7] for r in rows]).all()  # every loss column
        with open(tmp_path / "cut_log.csv") as fh:
            header = fh.readline().strip().split(",")
        assert tuple(header) == CSV_COLUMNS
        assert (tmp_path / "cut_epoch0001.npz").exists()
        assert (tmp_path / "cut_epoch0002.npz").exists()

    def test_rejects_bad_inputs(self, small_sets, tmp_path, rng):
        mrs, cts = small_sets
        with pytest.raises(ValueError, match="nonempty"):
            train_cut([], cts, fast_cfg(), run_dir=str(tmp_path))
        hu = Volume(rng.random((8, 8, 8)) * 100, (1, 1, 1), HU)
        with pytest.raises(ValueError, match="UNIT"):
            train_cut(mrs, [hu], fast_cfg(), run_dir=str(tmp_path))

    def test_resume_refuses_volumes_too_small_for_the_stored_d(self, small_sets, tmp_path, rng):
        mrs, cts = small_sets
        train_cut(mrs, cts, fast_cfg(max_steps=1), g_spec=TINY_G, d_spec=TINY_D, p_spec=TINY_P,
                  nce_cfg=TINY_NCE, run_dir=str(tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        small = [unit_vol(rng, (4, 4, 4))]
        with pytest.raises(ValueError, match="every edge must be at least 6"):
            train_cut(small, small, fast_cfg(max_steps=2), run_dir=str(tmp_path),
                      resume_from=str(tmp_path / "cut_final.npz"), config_ini="[run]\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_max_steps_caps_run(self, small_sets, tmp_path):
        mrs, cts = small_sets
        _, reports = train_cut(
            mrs, cts, fast_cfg(max_epochs=50, max_steps=3), g_spec=TINY_G,
            d_spec=TINY_D, p_spec=TINY_P, nce_cfg=TINY_NCE, run_dir=str(tmp_path),
        )
        assert len(reports) == 3

    def test_float32_losses_track_float64(self, small_sets, tmp_path, engine_dtype):
        mrs, cts = small_sets
        losses = {}
        for dtype in (np.float32, np.float64):
            engine_dtype(dtype)
            final, rows = train_cut(
                mrs, cts, fast_cfg(max_epochs=4, max_steps=4), g_spec=TINY_G, d_spec=TINY_D,
                p_spec=TINY_P, nce_cfg=TINY_NCE, run_dir=str(tmp_path / np.dtype(dtype).name),
            )
            _, arrays = ckpt_io.load_checkpoint(final)
            assert {a.dtype for a in arrays.values()} == {np.dtype(dtype)}
            losses[dtype] = np.array([r[2:7] for r in rows])
        assert losses[np.float32].shape == (4, 5)
        # the tolerance was set before measuring; the gap measured is far smaller
        np.testing.assert_allclose(losses[np.float32], losses[np.float64], rtol=1e-3)

    def test_rerun_is_bitwise_deterministic(self, small_sets, tmp_path):
        mrs, cts = small_sets
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            train_cut(mrs, cts, fast_cfg(), g_spec=TINY_G, d_spec=TINY_D,
                      p_spec=TINY_P, nce_cfg=TINY_NCE, run_dir=str(d))
        assert (a_dir / "cut_log.csv").read_bytes() == (b_dir / "cut_log.csv").read_bytes()
        sa = load_cut_checkpoint(str(a_dir / "cut_final.npz"))
        sb = load_cut_checkpoint(str(b_dir / "cut_final.npz"))
        for (na, pa), (nb, pb) in zip(sa["g"].named_parameters(), sb["g"].named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_resume_matches_uninterrupted_run(self, small_sets, tmp_path):
        mrs, cts = small_sets
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        train_cut(mrs, cts, fast_cfg(max_epochs=4), g_spec=TINY_G, d_spec=TINY_D,
                  p_spec=TINY_P, nce_cfg=TINY_NCE, run_dir=str(full_dir))
        train_cut(mrs, cts, fast_cfg(max_epochs=2), g_spec=TINY_G, d_spec=TINY_D,
                  p_spec=TINY_P, nce_cfg=TINY_NCE, run_dir=str(part_dir))
        final, _ = train_cut(
            mrs, cts, fast_cfg(max_epochs=4), run_dir=str(part_dir),
            resume_from=training.latest_checkpoint(str(part_dir), "cut"),
        )
        a = load_cut_checkpoint(str(full_dir / "cut_final.npz"))
        b = load_cut_checkpoint(final)
        assert a["step"] == b["step"]
        for net in ("g", "d", "f"):
            for (na, pa), (nb, pb) in zip(
                a[net].named_parameters(), b[net].named_parameters()
            ):
                assert na == nb
                np.testing.assert_array_equal(pa.data, pb.data)
        for opt in ("opt_d", "opt_g"):
            for ma, mb in zip(a[opt].m, b[opt].m):
                np.testing.assert_array_equal(ma, mb)

    def test_translate_from_path(self, small_sets, tmp_path, rng):
        mrs, cts = small_sets
        final, _ = train_cut(
            mrs, cts, fast_cfg(max_epochs=1), g_spec=TINY_G, d_spec=TINY_D,
            p_spec=TINY_P, nce_cfg=TINY_NCE, run_dir=str(tmp_path),
        )
        out = translate(final, mrs[0])
        assert out.domain == UNIT and out.data.shape == mrs[0].data.shape
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_translate_restores_only_the_generator(self, small_sets, tmp_path):
        mrs, cts = small_sets
        final, _ = train_cut(
            mrs, cts, fast_cfg(max_epochs=1), g_spec=TINY_G, d_spec=TINY_D,
            p_spec=TINY_P, nce_cfg=TINY_NCE, run_dir=str(tmp_path),
        )
        want = translate(load_cut_checkpoint(final), mrs[0]).data
        np.testing.assert_array_equal(translate(final, mrs[0]).data, want)
        # the discriminator's, projector's and optimizers' arrays are not read
        meta, arrays = ckpt_io.load_checkpoint(final)
        only_g = {k: a for k, a in arrays.items() if k.startswith("param/g/")}
        assert 0 < len(only_g) < len(arrays)
        path = str(tmp_path / "g_only.npz")
        ckpt_io.save_checkpoint(path, meta, only_g)
        np.testing.assert_array_equal(translate(path, mrs[0]).data, want)
        # but the generator's are checked as before
        key = "param/g/stem.weight"
        for broken, match in (
            ({**only_g, "param/g/extra": np.zeros(1)}, "unexpected arrays"),
            ({k: a for k, a in only_g.items() if k != key}, "missing array"),
            ({**only_g, key: only_g[key][:1]}, "shape"),
        ):
            ckpt_io.save_checkpoint(path, meta, broken)
            with pytest.raises(ValueError, match=match):
                translate(path, mrs[0])

    def test_checkpoint_roundtrip_specs(self, small_sets, tmp_path):
        mrs, cts = small_sets
        final, _ = train_cut(
            mrs, cts, fast_cfg(max_epochs=1), g_spec=TINY_G, d_spec=TINY_D,
            p_spec=TINY_P, nce_cfg=TINY_NCE, run_dir=str(tmp_path),
        )
        state = load_cut_checkpoint(final)
        assert state["g_spec"] == TINY_G
        assert state["d_spec"] == TINY_D
        assert state["nce_cfg"] == TINY_NCE
        assert state["cfg"].seed == 11
