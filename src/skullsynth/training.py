"""Everything a training run does in its run dir, for both trainers: resume
acceptance, the CSV log, the learning-rate schedule, the step cap, epoch
checkpoints and the final save.  Run-dir files are named by a prefix:
``config.ini``, ``<prefix>_log.csv``, ``<prefix>_epoch%04d.npz`` and
``<prefix>_final.npz``.  `start` writes none of them until a resume is
accepted, so a refused resume leaves the run dir as it was.
"""

import csv
import dataclasses
import glob
import os

import numpy as np

from skullsynth.engine.optim import PlateauDecay


def _truncate_log(path, columns, step):
    """Rewrite the log as its header plus the rows of the first `step` steps.
    Later rows, which a resume from an earlier checkpoint writes again, and a
    row cut short by a crash are dropped."""
    kept = []
    if os.path.exists(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        kept = [r for r in rows if len(r) == len(columns) and int(r[0]) <= step]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([columns, *kept])


def check_config(cfg):
    """Refuse a learning rate that is not > 0 (NaN included) and a negative
    step or epoch count; a count of 0 keeps its meaning (no cap, say)."""
    if not cfg.lr > 0:
        raise ValueError("lr must be positive")
    for name in ("max_epochs", "max_steps", "checkpoint_every", "plateau_patience_epochs"):
        if getattr(cfg, name) < 0:
            raise ValueError(f"{name} must be >= 0")


def start(run_dir, prefix, keys, build, load, cfg, given, resume_from=None, config_ini=None,
          check=None):
    """The networks, optimizers and settings a run trains, as the dict
    `checkpoint.load_run` returns.

    `keys` and `build` are the trainer's record (see `checkpoint`) and `load`
    its loader; `cfg` is its first setting, the training config, and `given`
    the others, None for their defaults.  A fresh run builds
    ``build(cfg, *given)``.  `resume_from` is a checkpoint path, or "latest"
    for the run dir's last epoch checkpoint.  A resume trains the networks
    and optimizer state stored there, with optimizers built from `cfg`, which
    the run's checkpoints record, and the stored settings for the rest: each
    of `given` that is not None must equal its stored setting.  Raises
    ValueError naming the field otherwise.  `check`, if given, may refuse
    the run by raising too; it is called with a dict that holds every
    setting by name, before a fresh run builds its networks.  Only then is
    `config_ini`, if given, written as the run dir's ``config.ini``.
    """
    names = list(keys)[1:]  # the setting each of `given` is
    if resume_from is None:
        specs = [want if want is not None else keys[name][1]() for want, name in zip(given, names)]
        if check is not None:
            check(dict(zip(names, specs)))
        nets, opts, settings = build(cfg, *specs)
        state = {**nets, **opts, **settings}
    else:
        path = latest_checkpoint(run_dir, prefix) if resume_from == "latest" else resume_from
        if not os.path.isfile(path):
            raise FileNotFoundError(path)
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
        if check is not None:
            check(state)
    os.makedirs(run_dir, exist_ok=True)
    if config_ini is not None:
        with open(os.path.join(run_dir, "config.ini"), "w", encoding="utf-8") as fh:
            fh.write(config_ini)
    return state


def fit(cfg, run_dir, prefix, columns, optimizers, epoch_steps, save, resumed):
    """Train to `cfg.max_epochs` or `cfg.max_steps`; return (final checkpoint, log rows).

    `epoch_steps(epoch)` yields one callable per optimizer step, called as
    ``(steps taken, epoch, lr)`` and returning (losses, monitored): the log
    columns between ``epoch`` and ``lr``, and the loss whose epoch mean drives
    `PlateauDecay`.  `save(path, step, epoch, monitor_state)` writes a
    checkpoint; `resumed` is the state `start` loaded, or None for a fresh run.
    """
    monitor = PlateauDecay(cfg.lr, cfg.plateau_patience_epochs, cfg.max_epochs)
    step = epochs_done = 0
    if resumed:
        step, epochs_done = resumed["step"], resumed["epoch"]
        monitor.load(resumed["monitor"])

    def capped():
        return bool(cfg.max_steps) and step >= cfg.max_steps

    log_path = os.path.join(run_dir, f"{prefix}_log.csv")
    _truncate_log(log_path, columns, step)
    # like the log rows, the epoch checkpoints past the start are an earlier
    # run's; left in place, `latest_checkpoint` would pick one of them
    for epoch, path in _epoch_checkpoints(run_dir, prefix).items():
        if epoch > epochs_done:
            os.remove(path)
    rows = []
    with open(log_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        for epoch in range(epochs_done, cfg.max_epochs):
            if capped():
                break
            lr = monitor.lr_for_epoch(epoch)
            for opt in optimizers:
                opt.lr = lr
            monitored = []
            for run_step in epoch_steps(epoch):
                if capped():
                    break
                losses, loss = run_step(step, epoch, lr)
                step += 1
                rows.append((step, epoch, *losses, lr))
                monitored.append(loss)
                writer.writerow([repr(v) for v in rows[-1]])
                fh.flush()
            else:  # the epoch ran to its end; a capped one stops at the next check
                epochs_done = epoch + 1
                if monitored:
                    monitor.observe(float(np.mean(monitored)), epochs_done)
                if cfg.checkpoint_every and epochs_done % cfg.checkpoint_every == 0:
                    save(os.path.join(run_dir, f"{prefix}_epoch{epochs_done:04d}.npz"),
                         step, epochs_done, monitor.state())

    final = os.path.join(run_dir, f"{prefix}_final.npz")
    save(final, step, epochs_done, monitor.state())
    return final, rows


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
