"""Everything a training run does, for both trainers: dataset checks, resume
acceptance, the optimizer step, the CSV log, the learning-rate schedule, the
step cap, epoch checkpoints and the final save.  Run-dir files are named by a
prefix: ``config.ini``, ``<prefix>_log.csv``, ``<prefix>_epoch%04d.npz`` and
``<prefix>_final.npz``.  `start` writes none of them until a resume is
accepted, so a refused resume leaves the run dir as it was.  Each is written
whole through `checkpoint.replacing`, the one writer of the files a resume
reads back, except the log rows a run appends.
"""

import collections
import csv
import dataclasses
import glob
import itertools
import os

import numpy as np

from skullsynth import checkpoint as ckpt_io
from skullsynth.engine.optim import Optimizer, PlateauDecay
from skullsynth.volume_io import UNIT, require_domain


def _truncate_log(path, columns, step):
    """Rewrite the log as its header plus the rows of the first `step` steps.
    Later rows, which a resume from an earlier checkpoint writes again, and a
    row cut short by a crash are dropped."""
    kept = []
    if os.path.exists(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        kept = [r for r in rows if len(r) == len(columns) and int(r[0]) <= step]
    with ckpt_io.replacing(path, "w", newline="") as fh:
        csv.writer(fh).writerows([columns, *kept])


def check_config(cfg):
    """Refuse a learning rate that is not > 0 (NaN included) and a negative
    step or epoch count; a count of 0 keeps its meaning (no cap, say)."""
    if not cfg.lr > 0:
        raise ValueError("lr must be positive")
    for name in ("max_epochs", "max_steps", "checkpoint_every", "plateau_patience_epochs"):
        if getattr(cfg, name) < 0:
            raise ValueError(f"{name} must be >= 0")


# a trainer's run-dir file prefix, record and loader (see `checkpoint`), log columns and check
Trainer = collections.namedtuple("Trainer", "prefix kind keys build load columns check")


def start(trainer, run_dir, cfg, given, datasets, resume_from=None, config_ini=None):
    """The run `fit` trains, as the dict `checkpoint.load_run` returns.

    `cfg` is the trainer's first setting, the training config, and `given`
    the others, None for their defaults.  A fresh run builds
    ``build(cfg, *given)`` at step 0.  `resume_from` is a checkpoint path, or
    "latest" for the run dir's last epoch checkpoint.  A resume trains the
    state stored there, with optimizers built from `cfg`, which the run's
    checkpoints record; each of `given` that is not None must equal its
    stored setting.  A ValueError refuses a resume that differs, an empty
    dataset, and a volume of `datasets` not in UNIT or that
    ``check(settings, volume)`` refuses, before a fresh run builds anything.
    Only then is `config_ini`, if given, written as ``config.ini``.
    """
    prefix, _, keys, build, load, _, check = trainer
    if not all(datasets):
        raise ValueError("every training dataset must be nonempty: need at least one volume")
    volumes = [v for vs in datasets for v in vs]
    for v in volumes:
        require_domain(v, UNIT, f"{prefix} training")
    names = list(keys)[1:]  # the setting each of `given` is
    if resume_from is None:
        specs = [want if want is not None else keys[name][1]() for want, name in zip(given, names)]
        for v in volumes:
            check(dict(zip(names, specs)), v)
        nets, opts, settings = build(cfg, *specs)
        monitor = PlateauDecay(cfg.lr, cfg.plateau_patience_epochs, cfg.max_epochs)
        state = {**nets, **opts, **settings, "step": 0, "epoch": 0, "monitor": monitor.state()}
    else:
        path = latest_checkpoint(run_dir, prefix) if resume_from == "latest" else resume_from
        state = load(path, cfg)
        for want, name in zip(given, names):
            if want is None:
                continue
            have = state[name]
            for f in dataclasses.fields(have):
                a, b = getattr(want, f.name), getattr(have, f.name)
                if a != b:
                    raise ValueError(f"cannot resume from {path} with "
                                     f"{type(have).__name__}.{f.name}={a!r}: "
                                     f"the checkpoint's is {b!r}")
        for v in volumes:
            check(state, v)
    os.makedirs(run_dir, exist_ok=True)
    if config_ini is not None:
        with ckpt_io.replacing(os.path.join(run_dir, "config.ini"), "w", encoding="utf-8") as fh:
            fh.write(config_ini)
    return state


def optimizer_step(state, draws):
    """Backpropagate the losses of `draws`, each scaled by 1/len(draws), then
    step and zero each optimizer of the run `state` in order.  Each draw is
    a callable returning (loss Tensors, Tensors to log); return the float64
    means of the logged values."""
    inv = 1.0 / len(draws)
    acc = 0.0
    for losses, logged in (draw() for draw in draws):
        for loss in losses:
            (loss * inv).backward()
        acc = acc + np.array([v.item() for v in logged])
    for opt in (v for v in state.values() if isinstance(v, Optimizer)):  # in the run's order
        opt.step()
        opt.zero_grad()
    return tuple(float(v) for v in acc * inv)


def fit(trainer, cfg, run_dir, state, epoch_steps):
    """Train the run `state` from `start` to `cfg.max_epochs` or `cfg.max_steps`,
    saving its checkpoints; return (final checkpoint, log rows).

    `epoch_steps(epoch)` yields one callable per optimizer step, called with
    the steps taken and returning the log columns between ``epoch`` and
    ``lr``; the epoch mean of the last drives `PlateauDecay`.  A run stopped
    inside an epoch records that epoch's values so far, and its resume skips
    as many of the epoch's steps.
    """
    monitor = PlateauDecay(cfg.lr, cfg.plateau_patience_epochs, cfg.max_epochs)
    monitor.load(state["monitor"])
    step, epochs_done = state["step"], state["epoch"]

    def capped():
        return bool(cfg.max_steps) and step >= cfg.max_steps

    def save(path):
        state.update(step=step, epoch=epochs_done, monitor=monitor.state())
        ckpt_io.save_run(path, trainer.kind, trainer.keys, state)
        return path

    log_path = os.path.join(run_dir, f"{trainer.prefix}_log.csv")
    _truncate_log(log_path, trainer.columns, step)
    # like the log rows, the epoch checkpoints past the start are an earlier
    # run's; left in place, `latest_checkpoint` would pick one of them
    for epoch, path in _epoch_checkpoints(run_dir, trainer.prefix).items():
        if epoch > epochs_done:
            os.remove(path)
    rows = []
    with open(log_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        for epoch in range(epochs_done, cfg.max_epochs):
            if capped():
                break
            lr = monitor.lr_for_epoch(epoch)
            for opt in (v for v in state.values() if isinstance(v, Optimizer)):
                opt.lr = lr
            taken = len(monitor.epoch_values)  # nonzero only in a resumed epoch
            for run_step in itertools.islice(epoch_steps(epoch), taken, None):
                if capped():
                    break
                values = run_step(step)
                step += 1
                rows.append((step, epoch, *values, lr))
                monitor.epoch_values.append(values[-1])
                writer.writerow([repr(v) for v in rows[-1]])
                fh.flush()
            else:  # the epoch ran to its end; a capped one stops at the next check
                epochs_done = epoch + 1
                monitor.end_epoch(epochs_done)
                if cfg.checkpoint_every and epochs_done % cfg.checkpoint_every == 0:
                    save(os.path.join(run_dir, f"{trainer.prefix}_epoch{epochs_done:04d}.npz"))

    return save(os.path.join(run_dir, f"{trainer.prefix}_final.npz")), rows


def _epoch_checkpoints(run_dir, prefix):
    """{epoch: path} of the run dir's epoch checkpoints."""
    paths = glob.glob(os.path.join(run_dir, f"{prefix}_epoch*.npz"))
    epochs = [os.path.basename(p)[len(prefix) + len("_epoch") : -len(".npz")] for p in paths]
    return {int(e): p for e, p in zip(epochs, paths) if e.isdigit()}


def latest_checkpoint(run_dir, prefix):
    """Path of the run dir's checkpoint of the highest epoch, by number."""
    found = _epoch_checkpoints(run_dir, prefix)
    if not found:
        raise FileNotFoundError(f"no epoch checkpoints under {run_dir}")
    return found[max(found)]
