"""Digest the training artifacts of a fixed small CLI scenario.

Usage: python tools/artifact_digest.py CHECKOUT

Runs the CLI of the checkout at CHECKOUT (its ``src`` on PYTHONPATH) in a
fresh temp dir, with relative paths throughout:

- ``phantom-gen``, then ``preprocess`` of the MR and of the CT volumes;
- ``train-cut`` in ``log`` and in ``lsgan`` mode, each followed by a
  ``--resume latest`` that trains one more epoch;
- ``train-sr`` with all five ``aug_*`` switches on, then a ``--resume latest``;
  one epoch of it with a halo of 4, twice the pyramid's receptive radius; and
  one epoch of it with every ``aug_*`` switch off;
- ``phantom-gen`` and ``preprocess`` of the MR volumes again, as NIfTI files;
- ``infer`` of one preprocessed MR case from the ``log`` run's final
  checkpoint, matched against another case's raw CT: once without
  ``--sr-ckpt``, so with no super-resolution, and once with the SR run's
  final checkpoint; and once more from the halo-4 SR run, whose inference
  chunks overlap by the radius, not by the stored halo;
- ``infer`` twice more without SR and with no opening: with a ``ball``
  structuring element, and with the default cube.  A ball's closing goes
  offset by offset, where a cube's goes by axis passes.  The opening is off
  because it empties this barely trained model's mask, and so the default
  SR-free mask above;
- ``evaluate`` against that case's phantom mask: of the SR-free mask at the
  default surface-Dice tolerance, of the ``ball`` mask at 3 mm, whose
  dilations take 123 steps, and of the cube mask at the default tolerance;
- ``infer`` without SR of the first NIfTI MR case from the ``log`` run,
  matched against the other NIfTI case's raw CT.

Prints one ``<sha256>  <path>`` line per checkpoint, log, ``config.ini``,
``infer`` output file and evaluation report, by path.  A checkpoint's digest
covers its metadata and every array's name, dtype, shape and bytes; any other
file's covers its bytes.  Two checkouts train and infer bit for bit alike on
this scenario when their outputs are equal.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np

CUT = {
    "cut.base_filters": 2, "cut.n_downsample": 1, "cut.n_residual_blocks": 1,
    "cut.d_layers": 1, "cut.d_base_filters": 2, "cut.proj_layers": 1, "cut.embed_dim": 4,
    "cut.num_patches": 4, "cut.batch_size": 2,
}
SR = {
    "lapsrn.filters": 2, "lapsrn.feat_layers": 3, "lapsrn.core_size": 4, "lapsrn.halo": 2,
    "lapsrn.grad_accum": 4,
    **{f"lapsrn.aug_{name}": "true" for name in ("flip", "affine", "ghost", "blur", "gamma")},
}


def _scenario():
    """The CLI argument lists, in order."""
    runs = [
        ["phantom-gen", "--out", "raw", "--count", "3", "--shape", "16",
         "--noise-mr", "0.02", "--noise-ct", "20"],
        ["preprocess", "--in-dir", "raw", "--out-dir", "mr", "--kind", "mr"],
        ["preprocess", "--in-dir", "raw", "--out-dir", "ct", "--kind", "ct"],
    ]
    for mode in ("log", "lsgan"):
        train = ["train-cut", "--mr-dir", "mr", "--ct-dir", "ct",
                 *_settings({**CUT, "cut.gan_mode": mode, "run.output_dir": f"cut_{mode}"})]
        runs += [train + ["--set", "cut.max_epochs=2"],
                 train + ["--set", "cut.max_epochs=3", "--resume", "latest"]]
    train = ["train-sr", "--hr-dir", "ct", *_settings({**SR, "run.output_dir": "sr"})]
    runs += [train + ["--set", "lapsrn.max_epochs=1"],
             train + ["--set", "lapsrn.max_epochs=2", "--resume", "latest"],
             ["train-sr", "--hr-dir", "ct", *_settings({
                 **SR, "lapsrn.halo": 4, "lapsrn.max_epochs": 1, "run.output_dir": "sr_halo4"})],
             ["train-sr", "--hr-dir", "ct", *_settings({
                 **SR, **{k: "false" for k in SR if k.startswith("lapsrn.aug_")},
                 "lapsrn.max_epochs": 1, "run.output_dir": "sr_noaug"})],
             ["phantom-gen", "--out", "raw_nii", "--count", "2", "--shape", "16",
              "--noise-mr", "0.02", "--noise-ct", "20", "--set", "data.format=nifti"],
             ["preprocess", "--in-dir", "raw_nii", "--out-dir", "mr_nii", "--kind", "mr",
              "--set", "data.format=nifti"]]
    infer = ["infer", "--mr", "mr/case000_mr.raw", "--cut-ckpt", "cut_log/cut_final.npz",
             "--reference-ct", "raw/case001_ct.raw"]
    runs += [infer + ["--out", "infer_skip_sr"],
             infer + ["--sr-ckpt", "sr/sr_final.npz", "--out", "infer_sr"],
             infer + ["--sr-ckpt", "sr_halo4/sr_final.npz", "--out", "infer_sr_halo4"],
             infer + ["--out", "infer_ball",
                      *_settings({"postprocess.structuring_element": "ball",
                                  "postprocess.opening_radius": 0})],
             infer + ["--out", "infer_cube", "--set", "postprocess.opening_radius=0"],
             ["evaluate", "--pred-dir", "pred", "--gt-dir", "truth",
              "--out", "eval/evaluation.csv"],
             ["evaluate", "--pred-dir", "pred_ball", "--gt-dir", "truth",
              "--out", "eval/evaluation_ball_3mm.csv", "--set", "metrics.sdsc_tolerance_mm=3"],
             ["evaluate", "--pred-dir", "pred_cube", "--gt-dir", "truth",
              "--out", "eval/evaluation_cube.csv"],
             ["infer", "--mr", "mr_nii/case000_mr.nii.gz", "--cut-ckpt", "cut_log/cut_final.npz",
              "--reference-ct", "raw_nii/case001_ct.nii.gz",
              "--set", "data.format=nifti", "--out", "infer_nifti"]]
    return runs


def _pair_masks(work):
    """Copy the SR-free mask to ``pred/``, the ``ball`` and cube masks
    to ``pred_ball/`` and ``pred_cube/``, and case000's phantom mask to
    ``truth/``, each as ``mask.raw``, so each ``evaluate`` scores one pair."""
    for name, src in (("pred", "infer_skip_sr/mask"), ("pred_ball", "infer_ball/mask"),
                      ("pred_cube", "infer_cube/mask"), ("truth", "raw/case000_mask")):
        os.makedirs(os.path.join(work, name), exist_ok=True)
        for ext in (".raw", ".raw.meta"):
            shutil.copyfile(os.path.join(work, src + ext), os.path.join(work, name, "mask" + ext))


def _settings(values):
    return [f"--set={k}={v}" for k, v in values.items()]


def _checkpoint_digest(path):
    h = hashlib.sha256()
    with np.load(path) as npz:
        for name in sorted(npz.files):
            arr = npz[name]
            h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def digests(work):
    """{relative path: sha256} of the run dirs' artifacts and the ``infer``
    outputs under `work`."""
    out = {}
    for path in sorted(pathlib.Path(work).glob("*/*")):
        if path.suffix == ".npz":
            out[str(path.relative_to(work))] = _checkpoint_digest(path)
        elif (path.suffix == ".csv" or path.name == "config.ini"
              or path.parent.name.startswith("infer_")):
            out[str(path.relative_to(work))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = os.path.join(os.path.abspath(argv[0]), "src")
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as work:
        for args in _scenario():
            if args[0] == "evaluate":
                _pair_masks(work)
            subprocess.run([sys.executable, "-m", "skullsynth.cli", *args], cwd=work, env=env,
                           check=True, stdout=subprocess.DEVNULL)
        for name, digest in digests(work).items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
