"""The epoch loop both trainers share: resume, CSV log, learning-rate schedule,
step cap, epoch checkpoints and the final save.  Artifacts are named by a
prefix: ``<prefix>_log.csv``, ``<prefix>_epoch%04d.npz``, ``<prefix>_final.npz``.
"""

import csv
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


def fit(cfg, run_dir, prefix, columns, optimizers, epoch_steps, save, resumed):
    """Train to `cfg.max_epochs` or `cfg.max_steps`; return (final checkpoint, log rows).

    `epoch_steps(epoch)` yields one callable per optimizer step, called as
    ``(steps taken, epoch, lr)`` and returning (losses, monitored): the log
    columns between ``epoch`` and ``lr``, and the loss whose epoch mean drives
    `PlateauDecay`.  `save(path, step, epoch, monitor_state)` writes a
    checkpoint; `resumed` is a loaded checkpoint state or None.
    """
    os.makedirs(run_dir, exist_ok=True)
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
    for path in glob.glob(os.path.join(run_dir, f"{prefix}_epoch*.npz")):
        epoch = os.path.basename(path)[len(prefix) + len("_epoch") : -len(".npz")]
        if epoch.isdigit() and int(epoch) > epochs_done:
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


def latest_checkpoint(run_dir, prefix):
    paths = sorted(glob.glob(os.path.join(run_dir, f"{prefix}_epoch*.npz")))
    if not paths:
        raise FileNotFoundError(f"no epoch checkpoints under {run_dir}")
    return paths[-1]
