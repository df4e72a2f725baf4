"""The shared training loop, through both trainers: the log after a resume,
the epoch checkpoints an earlier run left, the log handle after a failing
step, and the work done for capped epochs; and the shared optimizer step,
directly."""

import csv
import gc
import warnings

import numpy as np
import pytest

from skullsynth import checkpoint as ckpt_io
from skullsynth import cut, lapsrn, training
from skullsynth.engine.optim import SGD
from skullsynth.engine.tensor import Tensor
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


def train_cut(run_dir, resume_from=None, count=2, **kw):
    # two draws per step: one optimizer step per epoch of two volumes, two of three
    cfg = cut.CutTrainConfig(lr=1e-3, batch_size=2, plateau_patience_epochs=100, seed=11, **kw)
    nets = {} if resume_from else CUT_NETS
    return cut.train_cut(unit_vols(1, count), unit_vols(2, count), cfg, run_dir=str(run_dir),
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


# each trainer with two or more steps per epoch, and a step cap inside one:
# CUT on three volumes stops after step 3, in its second epoch of two steps;
# SR stops after step 2, in its first epoch of four
MID_EPOCH = {"cut": ({"count": 3, "max_epochs": 3}, 3), "sr": ({"max_epochs": 2}, 2)}


@pytest.mark.parametrize("into", ["same", "fresh"])
@pytest.mark.parametrize("prefix", ["cut", "sr"])
def test_resume_from_a_mid_epoch_stop_continues_its_epoch(prefix, into, tmp_path):
    (kw, cap), train = MID_EPOCH[prefix], TRAINERS[prefix]
    whole = tmp_path / "whole"
    _, rows = train(whole, **kw)
    stopped, _ = train(tmp_path / "same", max_steps=cap, **kw)
    run_dir = tmp_path / into
    _, resumed_rows = train(run_dir, resume_from=str(stopped), **kw)
    assert resumed_rows == rows[cap:]
    log = (whole / f"{prefix}_log.csv").read_text().splitlines()
    if into == "fresh":  # the stopped run's rows are in its own dir
        log = log[:1] + log[1 + cap:]
    assert (run_dir / f"{prefix}_log.csv").read_text().splitlines() == log

    def epochs(d):
        return {p.name for p in d.glob(f"{prefix}_epoch*.npz")}

    stopped_epoch = ckpt_io.load_checkpoint(stopped)[0]["epoch"]
    want = {n for n in epochs(whole) if into == "same" or int(n[-8:-4]) > stopped_epoch}
    assert epochs(run_dir) == want
    for name in (*want, f"{prefix}_final.npz"):
        (meta, arrays), (got_meta, got_arrays) = (ckpt_io.load_checkpoint(d / name)
                                                  for d in (whole, run_dir))
        for key in ("step", "epoch", "monitor", "optimizers"):
            assert got_meta[key] == meta[key], (name, key)
        assert got_arrays.keys() == arrays.keys()
        for key in arrays:
            np.testing.assert_array_equal(got_arrays[key], arrays[key], err_msg=f"{name} {key}")


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


def test_failed_log_rewrite_leaves_the_previous_log(tmp_path, monkeypatch):
    path = tmp_path / "sr_log.csv"
    path.write_text("step,loss\n" + "".join(f"{i},0.5\n" for i in range(1, 10)))
    before = path.read_bytes()
    real_writer = csv.writer

    class HeaderThenFail:
        """A csv writer that writes the first row it is given, then fails."""

        def __init__(self, fh):
            self.writer = real_writer(fh)

        def writerows(self, rows):
            self.writer.writerow(rows[0])
            raise OSError("no space left on device")

    monkeypatch.setattr(csv, "writer", HeaderThenFail)
    with pytest.raises(OSError, match="no space left"):
        training._truncate_log(str(path), ["step", "loss"], 5)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sr_log.csv"]


def test_failed_config_write_leaves_the_previous_config(tmp_path):
    (tmp_path / "config.ini").write_text("[run]\nseed = 1\n")
    before = (tmp_path / "config.ini").read_bytes()
    cfg = lapsrn.SRTrainConfig(core_size=2, halo=1, max_epochs=1)
    # a lone surrogate has no UTF-8 encoding: the write fails after the file is opened
    with pytest.raises(UnicodeEncodeError):
        lapsrn.train_lapsrn(unit_vols(3, 1), cfg, SR_SPEC, run_dir=str(tmp_path),
                            config_ini="[run]\nseed = 2\n\ud800\n")
    assert (tmp_path / "config.ini").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["config.ini"]


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


def _sgd(param):
    """Plain SGD at rate 1: a step subtracts the gradient."""
    return SGD([param], 1.0, momentum=0.0, weight_decay=0.0)


def test_optimizer_step_applies_the_mean_of_the_draws_gradients():
    # each draw has one loss per optimizer: the mean of c * p, gradient c / 3
    p, q = Tensor(np.zeros(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
    cs = [np.array([1.0, 2.0, 4.0]), np.array([8.0, -2.0, 0.5])]

    def draw(c):
        losses = ((p * c).mean(), (q * (2 * c)).mean())
        return losses, losses

    training.optimizer_step({"opt_p": _sgd(p), "opt_q": _sgd(q)},
                            [lambda c=c: draw(c) for c in cs])
    mean_grad = (cs[0] + cs[1]) / 2 / 3
    np.testing.assert_allclose(p.data, -mean_grad, rtol=1e-14)
    np.testing.assert_allclose(q.data, 1.0 - 2 * mean_grad, rtol=1e-14)


def test_optimizer_step_returns_float64_means_of_the_logged_values():
    p = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    logged = [np.float32(0.1), np.float32(0.7)], [np.float32(0.2), np.float32(1e-8)]

    def draw(values):
        loss = (p * 0.0).mean()
        return (loss,), [Tensor(np.asarray(v)) for v in values]

    means = training.optimizer_step({"opt": _sgd(p)}, [lambda v=v: draw(v) for v in logged])
    want = tuple((np.float64(a) + np.float64(b)) * 0.5 for a, b in zip(*logged))
    assert means == want
    assert all(type(m) is float for m in means)
    # a float32 sum would lose the 1e-8
    assert means[1] != float((logged[0][1] + logged[1][1]) * np.float32(0.5))


def test_optimizer_step_steps_the_runs_optimizers_in_order_and_clears_their_gradients():
    p, q = Tensor(np.zeros(2), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
    calls = []
    # the state's order, not the names' order, is the run's order
    state = {"net": object(), "opt_b": _sgd(q), "opt_a": _sgd(p), "cfg": None}
    for name in ("opt_b", "opt_a"):
        opt = state[name]
        for method in ("step", "zero_grad"):
            def record(_name=name, _method=method, _real=getattr(opt, method)):
                calls.append((_name, _method))
                _real()

            setattr(opt, method, record)

    def draw():
        losses = (p.mean(), q.mean())
        return losses, losses

    training.optimizer_step(state, [draw, draw])
    assert calls == [("opt_b", "step"), ("opt_b", "zero_grad"),
                     ("opt_a", "step"), ("opt_a", "zero_grad")]
    assert p.grad is None and q.grad is None
    assert not np.array_equal(p.data, np.zeros(2)) and not np.array_equal(q.data, np.zeros(2))


def test_cut_total_is_the_total_loss_of_the_logged_means(tmp_path):
    weights = dict(lambda_gan=0.3, lambda_syn=1.7, lambda_idt=0.9)
    _, rows = train_cut(tmp_path, max_epochs=3, **weights)
    cfg = cut.CutTrainConfig(**weights)
    with open(tmp_path / "cut_log.csv") as fh:
        logged = [[float(v) for v in line.split(",")] for line in fh.read().splitlines()[1:]]
    assert len(logged) == len(rows) == 3
    for row, line in zip(rows, logged):
        assert line == list(row)
        _, g_adv, nce_syn, nce_idt, total = line[2:7]
        assert total == cut.cut_total_loss(g_adv, nce_syn, nce_idt, cfg)
