"""Super-resolution stack: the training loop's artifacts, step cap, bitwise
determinism and resume, and chunked inference against the whole-volume pass."""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skullsynth import checkpoint as ckpt_io
from skullsynth import lapsrn, training
from skullsynth.lapsrn import (
    CSV_COLUMNS,
    PyramidSpec,
    SRTrainConfig,
    build_sr_net,
    load_sr_checkpoint,
    super_resolve,
    train_lapsrn,
)
from skullsynth.engine import kernels
from skullsynth.engine.layers import trilinear_filter
from skullsynth.engine.optim import SGD
from skullsynth.engine.tensor import DTYPE
from skullsynth.volume_io import HU, UNIT, Volume

TINY_SPEC = PyramidSpec(levels=1, filters=3, feat_layers=3, recon_layers=2)
# one conv at low resolution, the head at high resolution: a halo of 2 covers it
TINY_HALO = 2


def fast_cfg(**kw):
    base = dict(
        lr=1e-3, grad_accum=4, max_epochs=2, max_steps=0, checkpoint_every=1,
        plateau_patience_epochs=100, core_size=2, halo=1, seed=7,
    )
    base.update(kw)
    return SRTrainConfig(**base)


@pytest.fixture
def hr_set(rng):
    # 8^3 -> 4^3 low-res: 8 chunks of core 2 per volume, 16 per epoch, 4 steps
    return [Volume(rng.random((8, 8, 8)), (1, 1, 1), UNIT) for _ in range(2)]


def train(hr_set, run_dir, cfg=None, **kw):
    return train_lapsrn(hr_set, cfg or fast_cfg(), TINY_SPEC, run_dir=str(run_dir), **kw)


def assert_same_params(a, b):
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


class TestTrainLoop:
    def test_smoke_artifacts(self, hr_set, tmp_path):
        final, rows = train(hr_set, tmp_path)
        assert os.path.basename(final) == "sr_final.npz"
        assert [(r[0], r[1]) for r in rows] == [(s, (s - 1) // 4) for s in range(1, 9)]
        assert np.isfinite([r[2] for r in rows]).all()
        with open(tmp_path / "sr_log.csv") as fh:
            header = fh.readline().strip().split(",")
        assert tuple(header) == CSV_COLUMNS
        assert (tmp_path / "sr_epoch0001.npz").exists()
        assert (tmp_path / "sr_epoch0002.npz").exists()
        assert training.latest_checkpoint(str(tmp_path), "sr") == str(tmp_path / "sr_epoch0002.npz")

    def test_rejects_bad_inputs(self, tmp_path, rng):
        with pytest.raises(ValueError, match="at least one"):
            train([], tmp_path)
        hu = Volume(rng.random((8, 8, 8)), (1, 1, 1), HU)
        with pytest.raises(ValueError, match="UNIT"):
            train([hu], tmp_path)

    def test_max_steps_caps_run(self, hr_set, tmp_path):
        final, rows = train(hr_set, tmp_path, fast_cfg(max_epochs=50, max_steps=6))
        assert [r[0] for r in rows] == list(range(1, 7))
        state = load_sr_checkpoint(final)
        assert (state["step"], state["epoch"]) == (6, 1)

    def test_float32_losses_track_float64(self, hr_set, tmp_path, engine_dtype):
        losses = {}
        for dtype in (np.float32, np.float64):
            engine_dtype(dtype)
            final, rows = train(hr_set, tmp_path / np.dtype(dtype).name, fast_cfg(max_steps=4))
            _, arrays = ckpt_io.load_checkpoint(final)
            assert {a.dtype for a in arrays.values()} == {np.dtype(dtype)}
            losses[dtype] = np.array([r[2] for r in rows])
        assert losses[np.float32].shape == (4,)
        # the tolerance was set before measuring; the gap measured is far smaller
        np.testing.assert_allclose(losses[np.float32], losses[np.float64], rtol=1e-3)

    def test_rerun_is_bitwise_deterministic(self, hr_set, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            train(hr_set, d)
        assert (a_dir / "sr_log.csv").read_bytes() == (b_dir / "sr_log.csv").read_bytes()
        sa = load_sr_checkpoint(str(a_dir / "sr_final.npz"))
        sb = load_sr_checkpoint(str(b_dir / "sr_final.npz"))
        assert_same_params(sa["net"], sb["net"])

    def test_resume_matches_uninterrupted_run(self, hr_set, tmp_path):
        full_dir, part_dir, resumed_dir = tmp_path / "full", tmp_path / "part", tmp_path / "resumed"
        train(hr_set, full_dir, fast_cfg(max_epochs=4))
        train(hr_set, part_dir, fast_cfg(max_epochs=2))
        final, rows = train(
            hr_set, resumed_dir, fast_cfg(max_epochs=4),
            resume_from=training.latest_checkpoint(str(part_dir), "sr"),
        )
        assert [r[0] for r in rows] == list(range(9, 17))
        a = load_sr_checkpoint(str(full_dir / "sr_final.npz"))
        b = load_sr_checkpoint(final)
        assert a["step"] == b["step"] == 16
        assert_same_params(a["net"], b["net"])
        for ba, bb in zip(a["opt"].buf, b["opt"].buf):
            np.testing.assert_array_equal(ba, bb)


@pytest.fixture(scope="module")
def sr_state(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("sr")
    net = build_sr_net(TINY_SPEC, seed=3)
    # perturb the identity-initialized upsampling branch so every layer matters
    rng = np.random.default_rng(3)
    for p in net.parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    cfg = fast_cfg(core_size=3, halo=TINY_HALO)
    path = os.path.join(run_dir, "sr.npz")
    lapsrn.save_sr_checkpoint(path, net, SGD(net.parameters(), cfg.lr), cfg, TINY_SPEC,
                              0, 0, {"best": 0.0, "bad_epochs": 0, "trigger_epoch": -1})
    return load_sr_checkpoint(path)


class TestSuperResolve:
    @given(
        shape=st.tuples(*(st.integers(min_value=3, max_value=7),) * 3),
        core=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_chunked_equals_whole_volume(self, sr_state, shape, core, seed):
        vol = Volume(np.random.default_rng(seed).random(shape), (2.0, 2.0, 2.0), UNIT)
        whole = Volume(np.clip(sr_state["net"](vol.data)[-1].data[0], 0.0, 1.0), (1.0,) * 3, UNIT)
        out = super_resolve(sr_state, vol, core_size=core)
        assert out.domain == UNIT
        assert out.spacing == whole.spacing
        np.testing.assert_array_equal(out.data, whole.data)

    def test_builds_no_graph_and_keeps_the_callers_flags(self, sr_state, graph_nodes):
        net = sr_state["net"]
        net.levels[0].feat_head.bias.requires_grad = False  # a caller's own freeze stays
        flags = [p.requires_grad for p in net.parameters()]
        vol = Volume(np.random.default_rng(0).random((5, 4, 6)), (1.0,) * 3, UNIT)
        try:
            out = super_resolve(sr_state, vol, core_size=3)
            assert graph_nodes == []
            assert [p.requires_grad for p in net.parameters()] == flags
            whole = net(vol.data)[-1]  # unfrozen, the same pass builds a graph
            assert graph_nodes
            np.testing.assert_array_equal(out.data, np.clip(whole.data[0], 0.0, 1.0))
        finally:
            net.levels[0].feat_head.bias.requires_grad = True

    def test_core_size_0_is_refused(self, sr_state):
        # 0 is a value, not "use the checkpoint's core"
        vol = Volume(np.zeros((8, 8, 8)), (1.0,) * 3, UNIT)
        with pytest.raises(ValueError, match="core_size must be positive"):
            super_resolve(sr_state, vol, core_size=0)

    def test_chunked_equals_whole_volume_at_paper_width(self):
        # From 48 input channels a GEMM conv may round differently on a crop
        # than on the whole volume; the paper's 64 filters must still match.
        # Halo 3 covers this pyramid's receptive field; at halo 2 the passes differ.
        net = build_sr_net(PyramidSpec(filters=64, feat_layers=4), seed=5)
        rng = np.random.default_rng(5)
        for p in net.parameters():
            p.data += rng.normal(scale=0.05, size=p.data.shape)
        vol = Volume(rng.random((10, 10, 10)), (1.0, 1.0, 1.0), UNIT)
        whole = np.clip(net(vol.data)[-1].data[0], 0.0, 1.0).astype(np.float32)
        state = {"net": net, "cfg": fast_cfg(), "spec": net.spec}
        out = super_resolve(state, vol, core_size=5, halo=3)
        np.testing.assert_array_equal(out.data, whole)
        np.testing.assert_array_equal(super_resolve(state, vol).data, whole)


def perturbed_state(spec, halo, seed=5):
    """An SR state whose every layer matters, with ``halo`` as its stored halo."""
    net = build_sr_net(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for p in net.parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    return {"net": net, "cfg": fast_cfg(halo=halo), "spec": spec}


class TestReceptiveRadius:
    def test_known_pyramids(self):
        assert TINY_SPEC.receptive_radius == TINY_HALO
        assert PyramidSpec(filters=64, feat_layers=4).receptive_radius == 3
        assert PyramidSpec().receptive_radius == 7  # the default halo of 8 covers it

    @pytest.mark.parametrize("spec", [
        PyramidSpec(levels=1, filters=2, feat_layers=3, recon_layers=2),
        PyramidSpec(levels=1, filters=2, feat_layers=3, recon_layers=5),
        PyramidSpec(levels=1, filters=2, feat_layers=5, recon_layers=2),
        PyramidSpec(levels=2, filters=2, feat_layers=3, recon_layers=2),
        PyramidSpec(levels=2, filters=2, feat_layers=4, recon_layers=3),
    ], ids=lambda s: f"L{s.levels}F{s.feat_layers}R{s.recon_layers}")
    def test_is_the_smallest_halo_matching_the_whole_volume(self, spec):
        state = perturbed_state(spec, halo=0)
        vol = Volume(np.random.default_rng(7).random((9, 8, 10)), (1.0,) * 3, UNIT)
        whole = super_resolve(state, vol, core_size=10, halo=0).data
        r = spec.receptive_radius
        assert np.array_equal(super_resolve(state, vol, core_size=3, halo=r).data, whole)
        assert not np.array_equal(super_resolve(state, vol, core_size=3, halo=r - 1).data, whole)

    def test_default_halo_is_the_radius_not_the_stored_halo(self, monkeypatch):
        # the stored halo, 4 or 1, is training's; inference cuts at the radius, 2
        states = [perturbed_state(TINY_SPEC, halo=h) for h in (4, TINY_HALO - 1)]
        vol = Volume(np.random.default_rng(7).random((9, 8, 10)), (1.0,) * 3, UNIT)
        whole = super_resolve(states[0], vol, core_size=10, halo=0).data
        halos, chunk_volume = [], lapsrn.chunk_volume

        def spy(v, grid):
            halos.append(grid.halo)
            return chunk_volume(v, grid)

        monkeypatch.setattr(lapsrn, "chunk_volume", spy)
        for state in states:
            np.testing.assert_array_equal(super_resolve(state, vol, core_size=3).data, whole)
        assert halos == [TINY_HALO] * len(states)


def spy_grids(monkeypatch):
    """The grids `super_resolve` hands `chunk_volume`, in call order."""
    grids, chunk_volume = [], lapsrn.chunk_volume

    def spy(v, grid):
        grids.append(grid)
        return chunk_volume(v, grid)

    monkeypatch.setattr(lapsrn, "chunk_volume", spy)
    return grids


def spanned_voxels(grid):
    """Input voxels the chunks of ``grid`` span, halos included."""
    return sum(
        int(np.prod([s.stop - s.start for s in grid.chunk_slices(o)])) for o in grid.origins
    )


def widest_chunk(grid):
    """The most planes any chunk of ``grid`` spans along z."""
    return max(z.stop - z.start for z in (grid.chunk_slices(o)[0] for o in grid.origins))


class TestSlabs:
    """Without a core, inference cuts full-width z-slabs sized by SLAB_ELEMS;
    every cut gives the whole-volume bits."""

    @pytest.mark.parametrize("spec", [
        PyramidSpec(levels=1, filters=2, feat_layers=3, recon_layers=2),
        PyramidSpec(levels=2, filters=2, feat_layers=3, recon_layers=2),
        PyramidSpec(levels=1, filters=64, feat_layers=4),
    ], ids=["L1", "L2", "L1-paper-width"])
    @pytest.mark.parametrize("shape", [(11, 6, 5), (13, 5, 7)])
    def test_budgeted_slabs_equal_the_whole_volume(self, spec, shape, monkeypatch):
        state = perturbed_state(spec, halo=1)
        vol = Volume(np.random.default_rng(7).random(shape), (1.0,) * 3, UNIT)
        whole = super_resolve(state, vol, core_size=max(shape), halo=0).data
        r = spec.receptive_radius
        # room for a chunk of two planes and both halos
        per_plane = spec.filters * spec.scale**3 * shape[1] * shape[2]
        monkeypatch.setattr(lapsrn, "SLAB_ELEMS", per_plane * (2 + 2 * r))
        grids = spy_grids(monkeypatch)
        np.testing.assert_array_equal(super_resolve(state, vol).data, whole)
        (grid,) = grids
        planes = grid.core[0]
        assert grid.core[1:] == shape[1:] and grid.halo == r
        assert len(grid.origins) >= 3 and shape[0] % planes
        # the fewest slabs: one more plane per slab breaks the budget
        wider = lapsrn.ChunkGrid.build(shape, (planes + 1,) + shape[1:], r)
        assert widest_chunk(grid) <= 2 + 2 * r < widest_chunk(wider)

    def test_stored_core_cubes_when_a_plane_exceeds_the_budget(self, monkeypatch):
        state = perturbed_state(TINY_SPEC, halo=1)
        vol = Volume(np.random.default_rng(7).random((7, 6, 5)), (1.0,) * 3, UNIT)
        whole = super_resolve(state, vol, core_size=7, halo=0).data
        monkeypatch.setattr(lapsrn, "SLAB_ELEMS", 1)
        grids = spy_grids(monkeypatch)
        np.testing.assert_array_equal(super_resolve(state, vol).data, whole)
        (grid,) = grids
        assert grid.core_size == state["cfg"].core_size and grid.halo == TINY_HALO

    @pytest.mark.parametrize("stored_core, slabs", [(1, True), (7, False)])
    def test_one_plane_slabs_only_where_they_compute_less(self, stored_core, slabs,
                                                          monkeypatch):
        # room for one plane and its halo: one-plane slabs span 5 planes per
        # plane kept, cubes of 1 span up to 5^3 voxels per voxel, and cubes
        # of 7 are the whole volume
        state = perturbed_state(TINY_SPEC, halo=1)
        state["cfg"] = fast_cfg(halo=1, core_size=stored_core)
        shape = (7, 6, 5)
        vol = Volume(np.random.default_rng(7).random(shape), (1.0,) * 3, UNIT)
        whole = super_resolve(state, vol, core_size=7, halo=0).data
        per_plane = TINY_SPEC.filters * TINY_SPEC.scale**3 * shape[1] * shape[2]
        monkeypatch.setattr(lapsrn, "SLAB_ELEMS", per_plane * (1 + 2 * TINY_HALO))
        grids = spy_grids(monkeypatch)
        np.testing.assert_array_equal(super_resolve(state, vol).data, whole)
        (grid,) = grids
        if slabs:
            assert grid.core == (1, 6, 5) and len(grid.origins) == 7
        else:
            assert grid.core_size == 7 and len(grid.origins) == 1

    @pytest.mark.parametrize("shape", [(28, 28, 28), (32, 32, 32), (48, 48, 48), (40, 130, 100)])
    def test_paper_default_call_computes_no_more_than_stored_core_cubes(self, shape,
                                                                         monkeypatch):
        """At the paper's width (64 filters, radius 7) one plane of 28x28 and
        its halo nearly fill the budget; slabs that thin would compute up to
        15 planes per plane kept, so the default call cuts the stored core's
        cubes there."""
        spec, cfg = PyramidSpec(), SRTrainConfig()
        state = {"net": build_sr_net(spec, seed=0), "cfg": cfg, "spec": spec}
        vol = Volume(np.zeros(shape, dtype=np.float32), (1.0,) * 3, UNIT)
        grids = []

        def stop_at_the_cut(v, grid):  # the grid is all this test needs
            grids.append(grid)
            raise StopIteration

        monkeypatch.setattr(lapsrn, "chunk_volume", stop_at_the_cut)
        with pytest.raises(StopIteration):
            super_resolve(state, vol)
        (grid,) = grids
        cubes = lapsrn.ChunkGrid.build(shape, cfg.core_size, spec.receptive_radius)
        assert spanned_voxels(grid) <= spanned_voxels(cubes)

    def test_default_cuts_full_width_slabs_and_a_core_cuts_cubes(self, monkeypatch):
        state = perturbed_state(TINY_SPEC, halo=1)
        vol = Volume(np.random.default_rng(7).random((9, 8, 10)), (1.0,) * 3, UNIT)
        grids = spy_grids(monkeypatch)
        a = super_resolve(state, vol).data
        b = super_resolve(state, vol, core_size=3).data
        np.testing.assert_array_equal(a, b)
        slabs, cubes = grids
        assert slabs.core == (9, 8, 10)  # this small volume fits the budget whole
        assert all(o[1:] == (0, 0) for o in slabs.origins)
        assert cubes.core_size == 3 and cubes.core == (3, 3, 3) and len(cubes.origins) == 36

    def test_perfbench_infer_volumes_cut_two_slabs_of_20_planes(self):
        # its stored core of 24 would cut 8 cubes spanning 46^3 voxels
        spec = PyramidSpec(filters=16, feat_layers=4)
        grid = lapsrn._inference_grid((40, 40, 40), spec, 24, spec.receptive_radius)
        assert grid.core == (20, 40, 40) and len(grid.origins) == 2
        assert spanned_voxels(grid) == 2 * 23 * 40 * 40


def search_grid(shape, spec, cube_core, halo):
    """The cut `_inference_grid` makes, found by building every candidate
    slab grid, then the cube grid, and counting their chunks' voxels."""

    def slab_grid():
        d, h, w = shape
        per_plane = spec.filters * spec.scale**3 * h * w
        if per_plane * min(d, 1 + 2 * halo) > lapsrn.SLAB_ELEMS:
            return None
        for n in range(1, d + 1):
            grid = lapsrn.ChunkGrid.build(shape, (-(-d // n), h, w), halo)
            if per_plane * widest_chunk(grid) <= lapsrn.SLAB_ELEMS:
                return grid

    cubes = lapsrn.ChunkGrid.build(shape, cube_core, halo)
    slabs = slab_grid()
    if slabs is not None and spanned_voxels(slabs) <= spanned_voxels(cubes):
        return slabs
    return cubes


@st.composite
def grid_cases(draw):
    shape = tuple(draw(st.integers(1, 24)) for _ in range(3))
    spec = PyramidSpec(levels=draw(st.integers(1, 2)), filters=draw(st.integers(1, 64)),
                       feat_layers=3)
    halo = draw(st.integers(0, 8))
    # a budget of whole chunk planes, and part of one more, so that every
    # slab count and the no-slab case are reached
    per_plane = spec.filters * spec.scale**3 * shape[1] * shape[2]
    budget = per_plane * draw(st.integers(0, shape[0] + 2 * halo)) + draw(st.integers(0, per_plane))
    return shape, spec, draw(st.integers(2, 24)), halo, max(budget, 1)


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_inference_grid_is_the_grid_the_search_finds(case):
    """Worked out per axis, the cut is the one that building every candidate
    grid finds: the same core, halo and origins."""
    shape, spec, cube_core, halo, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lapsrn, "SLAB_ELEMS", budget)
        grid = lapsrn._inference_grid(shape, spec, cube_core, halo)
        want = search_grid(shape, spec, cube_core, halo)
    assert (grid.core, grid.halo, grid.origins) == (want.core, want.halo, want.origins)
    assert grid == want


@pytest.mark.parametrize("filters", [4, 64])
def test_untrained_net_is_its_trilinear_path(filters):
    """The residual head starts at zero, so before training the net adds no
    detail to its upsampling branch, an exact edge-clamped trilinear one."""
    vol = Volume(np.random.default_rng(3).random((8, 8, 8)), (1.0,) * 3, UNIT)
    sr = build_sr_net(PyramidSpec(filters=filters), seed=0)(vol.data)[-1].data[0]
    np.testing.assert_allclose(sr, lapsrn.trilinear_baseline(vol).data, rtol=0, atol=1e-6)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 2), (4, 1, 9), (5, 7, 3), (29, 29, 29)])
def test_border_weights_are_the_inverse_response_to_ones(shape):
    """The closed-form border weights equal, bit for bit, 1 over the trilinear
    upsampler's transposed conv run on all-ones input."""
    w = trilinear_filter()[None, None].astype(DTYPE)
    oracle = 1.0 / kernels.tconv3d_forward(np.ones((1, *shape), DTYPE), w, 2, 1)
    got = lapsrn._inv_border_weights(shape).data
    assert got.dtype == oracle.dtype and got.shape == oracle.shape
    assert got.tobytes() == oracle.tobytes()


def test_sr_net_keeps_no_state_across_calls():
    net = build_sr_net(PyramidSpec(levels=2, filters=2, feat_layers=3), seed=0)
    before = pickle.dumps(net)
    for shape in ((3, 4, 5), (6, 6, 6), (3, 4, 5)):
        net(np.random.default_rng(0).random(shape).astype(np.float32))
    assert pickle.dumps(net) == before
