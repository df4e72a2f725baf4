"""The shared training loop, through both trainers: the log after a resume,
the epoch checkpoints an earlier run left, the log handle after a failing
step, and the work done for capped epochs."""

import gc
import warnings

import numpy as np
import pytest

from skullsynth import checkpoint as ckpt_io
from skullsynth import cut, lapsrn, training
from skullsynth.volume_io import UNIT, Volume

CUT_NETS = dict(
    g_spec=cut.GeneratorSpec(base_filters=2, n_downsample=1, n_residual_blocks=1),
    d_spec=cut.DiscriminatorSpec(n_layers=1, base_filters=2),
    p_spec=cut.ProjectorSpec(n_layers=2, embed_dim=6),
    nce_cfg=cut.NCEConfig(num_patches=4),
)
SR_SPEC = lapsrn.PyramidSpec(levels=1, filters=3, feat_layers=3, recon_layers=2)


def unit_vols(seed, count):
    rng = np.random.default_rng(seed)
    return [Volume(rng.random((8, 8, 8)), (1, 1, 1), UNIT) for _ in range(count)]


def train_cut(run_dir, resume_from=None, **kw):
    # two draws of one: one optimizer step per epoch
    cfg = cut.CutTrainConfig(lr=1e-3, batch_size=2, plateau_patience_epochs=100, seed=11, **kw)
    nets = {} if resume_from else CUT_NETS
    return cut.train_cut(unit_vols(1, 2), unit_vols(2, 2), cfg, run_dir=str(run_dir),
                         resume_from=resume_from, **nets)


def train_sr(run_dir, resume_from=None, **kw):
    # 16 chunks of core 2 per epoch, 4 per step: four optimizer steps per epoch
    cfg = lapsrn.SRTrainConfig(lr=1e-3, grad_accum=4, plateau_patience_epochs=100,
                               core_size=2, halo=1, seed=7, **kw)
    return lapsrn.train_lapsrn(unit_vols(3, 2), cfg, SR_SPEC, run_dir=str(run_dir),
                               resume_from=resume_from)


TRAINERS = {"cut": train_cut, "sr": train_sr}
# a function each trainer's step calls through its module
STEP_CALLEES = {"cut": (cut, "gan_losses"), "sr": (lapsrn, "charbonnier_loss")}


# an optimizer setting of each trainer's config: its value for the first
# epoch, and for a resume
OPTIMIZER_SETTINGS = {"cut": ("adam_beta1", 0.5, 0.9), "sr": ("momentum", 0.9, 0.5)}


@pytest.mark.parametrize("prefix", ["cut", "sr"])
def test_resume_trains_with_the_callers_optimizer_settings(prefix, tmp_path):
    train, (name, first, then) = TRAINERS[prefix], OPTIMIZER_SETTINGS[prefix]
    same, _ = train(tmp_path / "same", max_epochs=2, **{name: first})
    train(tmp_path / "part", max_epochs=1, **{name: first})
    resumed, _ = train(tmp_path / "part", max_epochs=2, **{name: then},
                       resume_from=str(tmp_path / "part" / f"{prefix}_epoch0001.npz"))
    params = [ckpt_io.load_checkpoint(path, "param/")[1] for path in (same, resumed)]
    assert params[0].keys() == params[1].keys()
    assert any(not np.array_equal(params[0][k], params[1][k]) for k in params[0])
    meta = ckpt_io.load_checkpoint(resumed)[0]
    assert meta["train_config"][name] == then


@pytest.mark.parametrize("prefix", ["cut", "sr"])
def test_resume_in_same_run_dir_keeps_one_row_per_step(prefix, tmp_path):
    train = TRAINERS[prefix]
    log = tmp_path / f"{prefix}_log.csv"
    train(tmp_path, max_epochs=4)
    uninterrupted = log.read_bytes()
    train(tmp_path, max_epochs=4, resume_from=str(tmp_path / f"{prefix}_epoch0002.npz"))
    assert log.read_bytes() == uninterrupted


@pytest.mark.parametrize("prefix", ["cut", "sr"])
def test_fresh_run_drops_a_longer_runs_epoch_checkpoints(prefix, tmp_path):
    train = TRAINERS[prefix]
    train(tmp_path, max_epochs=4)
    _, rows = train(tmp_path, max_epochs=2)
    epochs = sorted(p.name for p in tmp_path.glob(f"{prefix}_epoch*.npz"))
    assert epochs == [f"{prefix}_epoch0001.npz", f"{prefix}_epoch0002.npz"]
    latest = training.latest_checkpoint(str(tmp_path), prefix)
    assert ckpt_io.load_checkpoint(latest)[0]["step"] == len(rows)


def test_latest_checkpoint_orders_epochs_by_number(tmp_path):
    for name in ("cut_epoch9999.npz", "cut_epoch10000.npz"):
        (tmp_path / name).touch()
    assert training.latest_checkpoint(str(tmp_path), "cut") == str(tmp_path / "cut_epoch10000.npz")


@pytest.mark.parametrize("prefix", ["cut", "sr"])
def test_failing_step_closes_the_log(prefix, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("step failed")

    monkeypatch.setattr(*STEP_CALLEES[prefix], boom)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="step failed"):
            TRAINERS[prefix](tmp_path, max_epochs=1)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert (tmp_path / f"{prefix}_log.csv").read_text().splitlines() == [
        ",".join(lapsrn.CSV_COLUMNS if prefix == "sr" else cut.CSV_COLUMNS)
    ]


@pytest.mark.parametrize("epochs", [1, 2])
def test_step_cap_at_epoch_boundary_prepares_only_trained_epochs(epochs, tmp_path, monkeypatch):
    prepared = []
    real = lapsrn._epoch_microbatches

    def counting(hr_set, cfg, spec, epoch):
        prepared.append(epoch)
        return real(hr_set, cfg, spec, epoch)

    monkeypatch.setattr(lapsrn, "_epoch_microbatches", counting)
    _, rows = train_sr(tmp_path, max_epochs=5, max_steps=4 * epochs)
    assert len(rows) == 4 * epochs
    assert prepared == list(range(epochs))
