"""CLI exit codes: 0 success, 1 runtime failure, 2 usage or configuration error."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import skullsynth
from skullsynth import checkpoint as ckpt_io
from skullsynth import config, cut, lapsrn, metrics, postprocess
from skullsynth import volume_io as vio
from skullsynth.cli import main
from skullsynth.engine import kernels

CONV_KERNELS = ("conv3d_forward", "conv3d_backward_input", "conv3d_backward_weight",
                "tconv3d_forward", "tconv3d_backward_input", "tconv3d_backward_weight")

# one optimizer step of each trainer on 8^3 volumes
TINY_RUN = {
    "cut.base_filters": 2, "cut.n_downsample": 1, "cut.n_residual_blocks": 1,
    "cut.d_layers": 1, "cut.d_base_filters": 2, "cut.proj_layers": 1, "cut.embed_dim": 4,
    "cut.num_patches": 4, "cut.max_steps": 1,
    "lapsrn.filters": 2, "lapsrn.feat_layers": 3, "lapsrn.core_size": 4, "lapsrn.halo": 2,
    "lapsrn.max_steps": 1,
}


@pytest.fixture(scope="module")
def phantoms(tmp_path_factory):
    """One and two phantom cases (MR, CT and mask of each) in two directories;
    the one case in the unit domain (`unit`); the final checkpoints of both
    trainers run on it (`run`), the CUT one with a parameter array dropped
    (`cut_broken.npz`) and the SR one with a halo below its pyramid's
    receptive radius (`sr_short_halo.npz`)."""
    root = tmp_path_factory.mktemp("phantoms")
    for count in (1, 2):
        assert main(["phantom-gen", "--out", str(root / f"n{count}"),
                     "--count", str(count), "--shape", "8"]) == 0
    assert main(["preprocess", "--in-dir", str(root / "n1"), "--out-dir", str(root / "unit"),
                 "--kind", "mr"]) == 0
    settings = [f"--set={k}={v}" for k, v in {**TINY_RUN, "run.output_dir": root / "run"}.items()]
    unit = str(root / "unit")
    assert main(["train-cut", "--mr-dir", unit, "--ct-dir", unit, *settings]) == 0
    assert main(["train-sr", "--hr-dir", unit, *settings]) == 0
    meta, arrays = ckpt_io.load_checkpoint(root / "run" / "cut_final.npz")
    del arrays["param/g/stem.weight"]
    ckpt_io.save_checkpoint(root / "cut_broken.npz", meta, arrays)
    meta, arrays = ckpt_io.load_checkpoint(root / "run" / "sr_final.npz")
    meta["train_config"]["halo"] = TINY_RUN["lapsrn.halo"] - 1
    ckpt_io.save_checkpoint(root / "sr_short_halo.npz", meta, arrays)
    return root


def _infer(d, p, cut_ckpt, sr_ckpt):
    return ["infer", "--mr", p + "/unit/case000_mr.raw", "--cut-ckpt", cut_ckpt,
            "--sr-ckpt", sr_ckpt, "--reference-ct", p + "/n1/case000_ct.raw", "--out", d]


def _infer_odd_mr(d, p):
    """`infer` without SR into <d>/run of the fixture's MR cropped to 7^3,
    which the fixture's generator, with one downsampling, cannot take."""
    mr = vio.load_volume(p + "/unit/case000_mr.raw")
    os.makedirs(d, exist_ok=True)
    vio.save_volume(vio.Volume(mr.data[:7, :7, :7], mr.spacing, mr.domain), d + "/mr.raw")
    return ["infer", "--mr", d + "/mr.raw", "--cut-ckpt", p + "/run/cut_final.npz",
            "--reference-ct", p + "/n1/case000_ct.raw", "--out", d + "/run"]


def _infer_into_run(d, p, sr_ckpt="/run/sr_final.npz", sidecar=True):
    """`_infer` into <d>/run from the fixture's CUT checkpoint and its file
    `sr_ckpt`; without `sidecar`, the reference CT is a copy of the
    fixture's volume file alone, in <d>."""
    argv = _infer(d + "/run", p, p + "/run/cut_final.npz", p + sr_ckpt)
    if not sidecar:
        os.makedirs(d, exist_ok=True)
        shutil.copyfile(p + "/n1/case000_ct.raw", d + "/ct.raw")
        argv[argv.index("--reference-ct") + 1] = d + "/ct.raw"
    return argv


def _missing(argv, flag, d, directory=False, under_file=False):
    """`argv` with the file after `flag` replaced by <d>/none, which does not
    exist, or with `directory`, is an empty directory; with `under_file`, by
    <d>/none/none, whose <d>/none is a regular file."""
    if directory:
        os.makedirs(d + "/none")
    elif under_file:
        _regular_file(argv, flag, d)
    argv[argv.index(flag) + 1] = d + ("/none/none" if under_file else "/none")
    return argv


def _regular_file(argv, flag, d):
    """`argv` with the directory after `flag` replaced by <d>/none, a regular file."""
    os.makedirs(d, exist_ok=True)
    open(d + "/none", "w").close()
    argv[argv.index(flag) + 1] = d + "/none"
    return argv


def _empty_dir(argv, flag, d):
    """`argv` with the directory after `flag` replaced by <d>/empty, an empty directory."""
    os.makedirs(d + "/empty")
    argv[argv.index(flag) + 1] = d + "/empty"
    return argv


def _config_not_utf8(d, p):
    """`_phantom_gen` with --config <d>/bad.ini, whose first byte is not UTF-8."""
    os.makedirs(d, exist_ok=True)
    with open(d + "/bad.ini", "wb") as fh:
        fh.write(b"\xff[run]\n")
    return _phantom_gen(d, "--config", d + "/bad.ini")


def _infer_unit_reference(d, p):
    """`_infer_into_run` with the fixture's unit-domain MR as the reference CT."""
    argv = _infer_into_run(d, p)
    argv[argv.index("--reference-ct") + 1] = p + "/unit/case000_mr.raw"
    return argv


def _evaluate(d, pred, truth):
    """`evaluate` of the one case `pred` against `truth`, reporting to <d>/run."""
    for name, v in (("gt", truth), ("pred", pred)):
        os.makedirs(f"{d}/{name}")
        vio.save_volume(v, f"{d}/{name}/case000.raw")
    return ["evaluate", "--pred-dir", d + "/pred", "--gt-dir", d + "/gt", "--out", d + "/run/e.csv"]


def _evaluate_dirs(d, p):
    """`evaluate` of the one-case phantom dir against itself, reporting to <d>/run."""
    return ["evaluate", "--pred-dir", p + "/n1", "--gt-dir", p + "/n1", "--out", d + "/run/e.csv"]


def _evaluate_at_scale(d, p, scale):
    """`_evaluate` of the one-case phantom mask against itself saved with its
    spacing times `scale`."""
    truth = vio.load_volume(p + "/n1/case000_mask.raw")
    scaled = tuple(s * scale for s in truth.spacing)
    return _evaluate(d, vio.Volume(truth.data, scaled, truth.domain), truth)


def _evaluate_cropped(d, p):
    """`_evaluate` of the phantom mask cropped to 4^3 against it cropped to 4x4x5."""
    truth = vio.load_volume(p + "/n1/case000_mask.raw")
    return _evaluate(d, *(vio.Volume(truth.data[:4, :4, :n], truth.spacing, truth.domain)
                          for n in (4, 5)))


def _preprocess(d, p, setting, kind="mr"):
    return ["preprocess", "--in-dir", p + "/n1", "--out-dir", d + "/run", "--kind", kind,
            "--set", setting]


def _train_cut(d, p, setting):
    return ["train-cut", "--mr-dir", p + "/unit", "--ct-dir", p + "/unit", "--set", setting,
            "--set", f"run.output_dir={d}/run"]


def _tiny(d, p, prefix, changed=()):
    """`train-cut` or `train-sr` on the fixture's unit volumes with TINY_RUN's
    settings, `changed` applied."""
    settings = {**TINY_RUN, **dict(changed), "run.output_dir": f"{d}/run"}
    data = ["--mr-dir", p + "/unit", "--ct-dir", p + "/unit"] if prefix == "cut" else [
        "--hr-dir", p + "/unit"]
    return [f"train-{prefix}", *data, *(f"--set={k}={v}" for k, v in settings.items())]


def _resume(d, p, prefix, changed=()):
    """`_tiny` resuming the fixture's final checkpoint."""
    return _tiny(d, p, prefix, changed) + ["--resume", f"{p}/run/{prefix}_final.npz"]


def _train_cut_other_ct_shape(d, p, resume=False):
    """`_tiny` train-cut, or its resume of the fixture's checkpoint, with the
    CT volume cropped to 6^3 in <d>/ct, a shape the fixture's D and G take."""
    v = vio.load_volume(p + "/unit/case000_mr.raw")
    os.makedirs(d + "/ct")
    vio.save_volume(vio.Volume(v.data[:6, :6, :6], v.spacing, v.domain), d + "/ct/case000.raw")
    argv = _resume(d, p, "cut") if resume else _tiny(d, p, "cut")
    argv[argv.index("--ct-dir") + 1] = d + "/ct"
    return argv


def _phantom_gen(d, *flags):
    return ["phantom-gen", "--out", d + "/run", "--count", "1", *flags]


def _preprocess_truncated_nifti(d, p):
    """`preprocess --kind mr` into <d>/run of <d>/in, which holds the
    fixture's MR as a .nii.gz cut in half."""
    os.makedirs(d + "/in")
    path = d + "/in/case000_mr.nii.gz"
    vio.save_volume(vio.load_volume(p + "/unit/case000_mr.raw"), path, vio.NIFTI)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)
    return ["preprocess", "--in-dir", d + "/in", "--out-dir", d + "/run", "--kind", "mr",
            "--set", "data.format=nifti"]


def test_phantom_gen_writes_every_case(phantoms):
    assert sorted(p.name for p in (phantoms / "n2").iterdir()) == [
        f"case00{i}_{kind}.raw{ext}"
        for i in range(2) for kind in ("ct", "mask", "mr") for ext in ("", ".meta")
    ]


def test_phantom_gen_shells_survive_default_masking(tmp_path):
    """The default masking (radius-1 opening and closing) keeps the shells
    phantom-gen draws: masking its CT recovers the truth mask."""
    assert main(["phantom-gen", "--out", str(tmp_path), "--count", "2", "--shape", "32",
                 "--noise-ct", "20"]) == 0
    params = config.segmentation_settings(config.load_config())
    for case in ("case000", "case001"):
        ct = vio.load_volume(str(tmp_path / f"{case}_ct.raw"))
        truth = vio.mask_from_volume(vio.load_volume(str(tmp_path / f"{case}_mask.raw")))
        assert metrics.dice(postprocess.segment_from_matched(ct, params), truth) >= 0.95, case


EXIT_CODES = [
    ("phantom-gen", 0, lambda d, p: ["phantom-gen", "--out", d, "--count", "1", "--shape", "8"]),
    ("no arguments", 2, lambda d, p: []),
    ("typo'd --set key", 2, lambda d, p: ["phantom-gen", "--out", d, "--set", "cut.lerning_rate=1"]),
    ("missing --config", 2, lambda d, p: ["phantom-gen", "--out", d, "--config", d + "/none.ini"]),
    ("a directory as --config", 2,
     lambda d, p: _missing(_phantom_gen(d, "--config", ""), "--config", d, directory=True)),
    ("a regular file in --config's path", 2,
     lambda d, p: _missing(_phantom_gen(d, "--config", ""), "--config", d, under_file=True)),
    ("--config not UTF-8", 2, _config_not_utf8),
    ("missing --mr-dir", 2, lambda d, p: ["train-cut", "--mr-dir", d + "/none", "--ct-dir", p + "/n1"]),
    ("bad data.format", 2, lambda d, p: ["phantom-gen", "--out", d, "--set", "data.format=dicom"]),
    ("non-int value", 2, lambda d, p: ["phantom-gen", "--out", d, "--set", "cut.batch_size=two"]),
    ("levels=0", 2, lambda d, p: ["train-sr", "--hr-dir", p + "/n1", "--set", "lapsrn.levels=0",
                                  "--set", f"run.output_dir={d}/run"]),
    ("resample_shape=24,40", 2, lambda d, p: _preprocess(d, p, "data.resample_shape=24,40")),
    ("resample_shape=0,8,8", 2, lambda d, p: _preprocess(d, p, "data.resample_shape=0,8,8")),
    ("preprocess, truncated .nii.gz", 1, _preprocess_truncated_nifti),
    ("data.floor_hu=nan", 2, lambda d, p: _preprocess(d, p, "data.floor_hu=nan", kind="ct")),
    ("sdsc_tolerance_mm=-1", 2, lambda d, p: ["evaluate", "--pred-dir", p + "/n1", "--gt-dir",
                                              p + "/n1", "--out", d + "/run/e.csv", "--set",
                                              "metrics.sdsc_tolerance_mm=-1"]),
    ("evaluate case-id mismatch", 1, lambda d, p: ["evaluate", "--pred-dir", p + "/n1",
                                                   "--gt-dir", p + "/n2", "--out", d + "/e.csv"]),
    ("evaluate", 0, lambda d, p: _evaluate_at_scale(d, p, 1.0)),
    ("evaluate, spacings differ", 1, lambda d, p: _evaluate_at_scale(d, p, 0.5)),
    ("evaluate, shapes differ", 1, _evaluate_cropped),
    ("temperature=0", 2, lambda d, p: _train_cut(d, p, "cut.temperature=0")),
    ("temperature=-1", 2, lambda d, p: _train_cut(d, p, "cut.temperature=-1")),
    ("batch_size=0", 2, lambda d, p: _train_cut(d, p, "cut.batch_size=0")),
    ("batch_size=-2", 2, lambda d, p: _train_cut(d, p, "cut.batch_size=-2")),
    ("tap_layers=-1", 2, lambda d, p: _train_cut(d, p, "cut.tap_layers=-1")),
    ("adam_beta2=1.0", 2, lambda d, p: _tiny(d, p, "cut", {"cut.adam_beta2": 1.0})),
    ("adam_beta1=-0.5", 2, lambda d, p: _tiny(d, p, "cut", {"cut.adam_beta1": -0.5})),
    ("cut.learning_rate=nan", 2, lambda d, p: _tiny(d, p, "cut", {"cut.learning_rate": "nan"})),
    ("lambda_gan=nan", 2, lambda d, p: _tiny(d, p, "cut", {"cut.lambda_gan": "nan"})),
    ("lapsrn.learning_rate=nan", 2,
     lambda d, p: _tiny(d, p, "sr", {"lapsrn.learning_rate": "nan"})),
    ("eps_charbonnier=nan", 2, lambda d, p: _tiny(d, p, "sr", {"lapsrn.eps_charbonnier": "nan"})),
    ("cut.temperature=nan", 2, lambda d, p: _tiny(d, p, "cut", {"cut.temperature": "nan"})),
    ("lapsrn.momentum=nan", 2, lambda d, p: _tiny(d, p, "sr", {"lapsrn.momentum": "nan"})),
    ("lapsrn.weight_decay=nan", 2, lambda d, p: _tiny(d, p, "sr", {"lapsrn.weight_decay": "nan"})),
    ("cut.learning_rate=inf", 2, lambda d, p: _tiny(d, p, "cut", {"cut.learning_rate": "inf"})),
    ("lapsrn.learning_rate=inf", 2,
     lambda d, p: _tiny(d, p, "sr", {"lapsrn.learning_rate": "inf"})),
    ("cut.max_steps=-1", 2, lambda d, p: _tiny(d, p, "cut", {"cut.max_steps": -1})),
    ("cut.checkpoint_every=-1", 2, lambda d, p: _tiny(d, p, "cut", {"cut.checkpoint_every": -1})),
    ("lapsrn.max_epochs=-2", 2, lambda d, p: _tiny(d, p, "sr", {"lapsrn.max_epochs": -2})),
    ("lapsrn.plateau_patience_epochs=-1", 2,
     lambda d, p: _tiny(d, p, "sr", {"lapsrn.plateau_patience_epochs": -1})),
    ("lapsrn.halo=-1", 2, lambda d, p: _tiny(d, p, "sr", {"lapsrn.halo": -1})),
    ("train-sr, halo 0", 0, lambda d, p: _tiny(d, p, "sr", {"lapsrn.halo": 0})),
    ("run.seed=-1", 2, lambda d, p: ["phantom-gen", "--out", d + "/run", "--set", "run.seed=-1"]),
    ("phantom-gen --shape 0", 2, lambda d, p: _phantom_gen(d, "--shape", "0")),
    ("phantom-gen --shape -4", 2, lambda d, p: _phantom_gen(d, "--shape", "-4")),
    ("phantom-gen --noise-mr -0.5", 2, lambda d, p: _phantom_gen(d, "--noise-mr", "-0.5")),
    ("phantom-gen --noise-ct -1", 2, lambda d, p: _phantom_gen(d, "--noise-ct", "-1")),
    ("phantom-gen --noise-ct inf", 2, lambda d, p: _phantom_gen(d, "--noise-ct", "inf")),
    ("phantom-gen --defect-radius -2", 2,
     lambda d, p: _phantom_gen(d, "--shape", "8", "--defect-radius", "-2")),
    ("phantom-gen --count 0", 2, lambda d, p: _phantom_gen(d, "--count", "0")),
    ("phantom-gen --count -1", 2, lambda d, p: _phantom_gen(d, "--count", "-1")),
    ("train-cut, volumes below D's smallest edge", 1,
     lambda d, p: _tiny(d, p, "cut", {"cut.d_layers": 3})),
    ("train-cut, edges not divisible by G's downsampling", 1,
     lambda d, p: _tiny(d, p, "cut", {"cut.n_downsample": 4})),
    ("train-sr, edges not divisible by the scale", 1,
     lambda d, p: _tiny(d, p, "sr", {"lapsrn.levels": 4, "lapsrn.halo": 4})),
    ("train-cut, MR and CT shapes differ", 1, _train_cut_other_ct_shape),
    ("train-cut, no --ct-dir and no [data] ct_dir", 2,
     lambda d, p: ["train-cut", "--mr-dir", p + "/unit", "--set", f"run.output_dir={d}/run"]),
    ("train-sr, --hr-dir holds no volumes", 2,
     lambda d, p: _empty_dir(_tiny(d, p, "sr"), "--hr-dir", d)),
    ("train-cut, --ct-dir holds no volumes", 2,
     lambda d, p: _empty_dir(_tiny(d, p, "cut"), "--ct-dir", d)),
    ("preprocess, --in-dir holds no volumes", 2,
     lambda d, p: _empty_dir(_preprocess(d, p, "data.floor_hu=-500"), "--in-dir", d)),
    ("evaluate, --pred-dir holds no volumes", 2,
     lambda d, p: _empty_dir(_evaluate_dirs(d, p), "--pred-dir", d)),
    ("evaluate, --gt-dir holds no volumes", 2,
     lambda d, p: _empty_dir(_evaluate_dirs(d, p), "--gt-dir", d)),
    ("train-cut resume, MR and CT shapes differ", 1,
     lambda d, p: _train_cut_other_ct_shape(d, p, resume=True)),
    ("train-cut resume", 0, lambda d, p: _resume(d, p, "cut")),
    ("train-cut resume, other base_filters", 1,
     lambda d, p: _resume(d, p, "cut", {"cut.base_filters": 3})),
    ("train-sr resume", 0, lambda d, p: _resume(d, p, "sr")),
    ("train-sr resume, other filters", 1, lambda d, p: _resume(d, p, "sr", {"lapsrn.filters": 3})),
    ("train-cut resume, no --resume file", 2,
     lambda d, p: _missing(_resume(d, p, "cut"), "--resume", d)),
    ("train-sr resume, no --resume file", 2,
     lambda d, p: _missing(_resume(d, p, "sr"), "--resume", d)),
    ("train-sr resume, --resume is a directory", 2,
     lambda d, p: _missing(_resume(d, p, "sr"), "--resume", d, directory=True)),
    ("train-cut resume, a regular file in --resume's path", 2,
     lambda d, p: _missing(_resume(d, p, "cut"), "--resume", d, under_file=True)),
    ("train-sr resume, a regular file in --resume's path", 2,
     lambda d, p: _missing(_resume(d, p, "sr"), "--resume", d, under_file=True)),
    ("train-cut, regular file as --mr-dir", 2,
     lambda d, p: _regular_file(_tiny(d, p, "cut"), "--mr-dir", d)),
    ("train-cut, regular file as --ct-dir", 2,
     lambda d, p: _regular_file(_tiny(d, p, "cut"), "--ct-dir", d)),
    ("train-sr, regular file as --hr-dir", 2,
     lambda d, p: _regular_file(_tiny(d, p, "sr"), "--hr-dir", d)),
    ("preprocess, regular file as --in-dir", 2,
     lambda d, p: _regular_file(_preprocess(d, p, "data.floor_hu=-500"), "--in-dir", d)),
    ("evaluate, regular file as --pred-dir", 2,
     lambda d, p: _regular_file(_evaluate_dirs(d, p), "--pred-dir", d)),
    ("evaluate, regular file as --gt-dir", 2,
     lambda d, p: _regular_file(_evaluate_dirs(d, p), "--gt-dir", d)),
    ("preprocess --kind ct, a UNIT volume", 1,
     lambda d, p: ["preprocess", "--in-dir", p + "/unit", "--out-dir", d + "/out",
                   "--kind", "ct"]),
    ("train-sr, volumes not in UNIT", 1,
     lambda d, p: ["train-sr", "--hr-dir", p + "/n1", "--set", f"run.output_dir={d}/run"]),
    ("infer", 0, lambda d, p: _infer(d, p, p + "/run/cut_final.npz", p + "/run/sr_final.npz")),
    ("infer, checkpoints swapped", 1,
     lambda d, p: _infer(d, p, p + "/run/sr_final.npz", p + "/run/cut_final.npz")),
    ("infer, parameter array missing", 1,
     lambda d, p: _infer(d, p, p + "/cut_broken.npz", p + "/run/sr_final.npz")),
    ("infer, MR edges not divisible by G's downsampling", 1, lambda d, p: _infer_odd_mr(d, p)),
    ("infer, new --out, CUT checkpoint as --sr-ckpt", 1,
     lambda d, p: _infer_into_run(d, p, "/run/cut_final.npz")),
    ("infer, new --out, reference CT without its sidecar", 1,
     lambda d, p: _infer_into_run(d, p, sidecar=False)),
    ("infer, new --out, reference CT not in HU", 1, _infer_unit_reference),
    ("infer, new --out, no --mr file", 2, lambda d, p: _missing(_infer_into_run(d, p), "--mr", d)),
    ("infer, new --out, no --cut-ckpt file", 2,
     lambda d, p: _missing(_infer_into_run(d, p), "--cut-ckpt", d)),
    ("infer, new --out, no --sr-ckpt file", 2,
     lambda d, p: _missing(_infer_into_run(d, p), "--sr-ckpt", d)),
    ("infer, new --out, no --reference-ct file", 2,
     lambda d, p: _missing(_infer_into_run(d, p), "--reference-ct", d)),
    ("infer, new --out, --mr is a directory", 2,
     lambda d, p: _missing(_infer_into_run(d, p), "--mr", d, directory=True)),
    ("infer, new --out, --cut-ckpt is a directory", 2,
     lambda d, p: _missing(_infer_into_run(d, p), "--cut-ckpt", d, directory=True)),
    *((f"infer, new --out, a regular file in {flag}'s path", 2,
       lambda d, p, flag=flag: _missing(_infer_into_run(d, p), flag, d, under_file=True))
      for flag in ("--mr", "--cut-ckpt", "--sr-ckpt", "--reference-ct")),
    ("infer, postprocess.bone_threshold_hu=nan", 2,
     lambda d, p: _infer_into_run(d, p) + ["--set", "postprocess.bone_threshold_hu=nan"]),
]


@pytest.mark.parametrize("argv,code", [(a, c) for _, c, a in EXIT_CODES],
                         ids=[name for name, _, _ in EXIT_CODES])
def test_exit_code(argv, code, phantoms, tmp_path, capsys):
    assert main(argv(str(tmp_path), str(phantoms))) == code
    err = capsys.readouterr().err
    assert bool(err) == bool(code)  # every failure says why on stderr


def test_evaluate_names_the_case_and_both_spacings(phantoms, tmp_path, capsys):
    assert main(_evaluate_at_scale(str(tmp_path), str(phantoms), 0.5)) == 1
    err = capsys.readouterr().err
    assert "case000" in err and "(0.5, 0.5, 0.5)" in err and "(1.0, 1.0, 1.0)" in err
    assert not (tmp_path / "run").exists()


def test_evaluate_shape_error_names_the_case(phantoms, tmp_path, capsys):
    assert main(_evaluate_cropped(str(tmp_path), str(phantoms))) == 1
    assert "case case000: shape mismatch: (4, 4, 4) vs (4, 4, 5)" in capsys.readouterr().err


def test_resume_names_the_changed_setting_and_both_values(phantoms, tmp_path, capsys):
    assert main(_resume(str(tmp_path), str(phantoms), "cut", {"cut.base_filters": 3})) == 1
    err = capsys.readouterr().err
    assert "GeneratorSpec.base_filters=3" in err and "the checkpoint's is 2" in err


@pytest.mark.parametrize("prefix,changed", [("cut", {"cut.base_filters": 3}),
                                             ("sr", {"lapsrn.filters": 3})], ids=["cut", "sr"])
def test_refused_resume_leaves_the_run_dir_as_it_was(phantoms, tmp_path, prefix, changed):
    assert main(_resume(str(tmp_path), str(phantoms), prefix)) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert "config.ini" in before
    assert main(_resume(str(tmp_path), str(phantoms), prefix, changed)) == 1
    assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == before


@pytest.mark.parametrize("prefix,section", [("cut", "cut"), ("sr", "lapsrn")])
def test_run_resumes_from_its_own_config(phantoms, tmp_path, prefix, section):
    """config.ini names the data dirs the run read, so a resume from it
    alone, with no dir flags, trains one more epoch."""
    d, p = str(tmp_path), str(phantoms)
    assert main(_tiny(d, p, prefix, {f"{section}.max_steps": 0,
                                     f"{section}.max_epochs": 1})) == 0
    data = config.load_config(d + "/run/config.ini")["data"]
    keys = ("mr_dir", "ct_dir") if prefix == "cut" else ("hr_dir",)
    assert {k: data[k] for k in keys} == dict.fromkeys(keys, p + "/unit")
    assert main([f"train-{prefix}", "--config", d + "/run/config.ini",
                 "--set", f"{section}.max_epochs=2", "--resume", "latest"]) == 0
    meta, _ = ckpt_io.load_checkpoint(f"{d}/run/{prefix}_final.npz")
    assert meta["epoch"] == 2


def test_volumes_too_small_for_d_leave_the_run_dir_empty(phantoms, tmp_path, capsys):
    # three stride-2 convs and two k4 stride-1 convs leave no logit of an 8^3 volume
    assert main(_tiny(str(tmp_path), str(phantoms), "cut", {"cut.d_layers": 3})) == 1
    err = capsys.readouterr().err
    assert "(8, 8, 8) is too small for the discriminator" in err
    assert "every edge must be at least 24" in err
    assert not list((tmp_path / "run").glob("*"))


# the EXIT_CODES cases refused for their volumes' shape or spacing, with the
# message; each would write to <d>/run
SHAPE_ERRORS = {
    "evaluate, spacings differ":
        "prediction spacing (0.5, 0.5, 0.5) differs from truth spacing (1.0, 1.0, 1.0)",
    "evaluate, shapes differ": "shape mismatch: (4, 4, 4) vs (4, 4, 5)",
    "train-cut, edges not divisible by G's downsampling":
        "volume shape (8, 8, 8) not divisible by the generator's downsampling factor 16",
    "train-sr, edges not divisible by the scale": "volume shape (8, 8, 8) not divisible by scale 16",
    "infer, MR edges not divisible by G's downsampling":
        "input shape (7, 7, 7) not divisible by downsampling factor 2",
    "train-cut, MR and CT shapes differ": "MR shapes [(8, 8, 8)] and CT shapes [(6, 6, 6)] differ",
    "train-cut resume, MR and CT shapes differ":
        "MR shapes [(8, 8, 8)] and CT shapes [(6, 6, 6)] differ",
}


def test_shape_error_leaves_no_run_dir(phantoms, tmp_path, capsys):
    for name, _, argv in EXIT_CODES:
        if name in SHAPE_ERRORS:
            d = tmp_path / name
            assert main(argv(str(d), str(phantoms))) == 1
            assert SHAPE_ERRORS[name] in capsys.readouterr().err
            assert not (d / "run").exists()


# the EXIT_CODES cases a command refuses for its data dirs, with the
# message ({d} is the case's dir); each would write to <d>/run
DATA_DIR_ERRORS = {
    "train-cut, no --ct-dir and no [data] ct_dir":
        "train-cut needs [data] mr_dir and ct_dir (or --mr-dir/--ct-dir)",
    "train-sr, --hr-dir holds no volumes": "empty dataset: {d}/empty has 0",
    **{f"{command}, --{flag}-dir holds no volumes": "empty dataset: {d}/empty has 0 raw volumes"
       for command, flag in (("train-cut", "ct"), ("preprocess", "in"), ("evaluate", "pred"),
                             ("evaluate", "gt"))},
}


def test_refused_data_dir_leaves_no_run_dir(phantoms, tmp_path, capsys):
    for name, _, argv in EXIT_CODES:
        if name in DATA_DIR_ERRORS:
            d = tmp_path / name
            assert main(argv(str(d), str(phantoms))) == 2
            assert DATA_DIR_ERRORS[name].format(d=d) in capsys.readouterr().err
            assert not (d / "run").exists()


# the EXIT_CODES cases `infer` refuses for an input it loads, with the
# message; each would write to <d>/run
INFER_INPUT_ERRORS = {
    "infer, new --out, CUT checkpoint as --sr-ckpt": "is not a 'lapsrn' checkpoint (kind='cut')",
    "infer, new --out, reference CT without its sidecar": "missing sidecar",
    "infer, new --out, reference CT not in HU": "--reference-ct needs a HU volume, got UNIT",
}


def test_refused_infer_input_leaves_no_run_dir(phantoms, tmp_path, capsys):
    for name, _, argv in EXIT_CODES:
        if name in INFER_INPUT_ERRORS:
            d = tmp_path / name
            assert main(argv(str(d), str(phantoms))) == 1
            assert INFER_INPUT_ERRORS[name] in capsys.readouterr().err
            assert not (d / "run").exists()


# the EXIT_CODES cases with an input file, <d>/none, that does not exist or
# is a directory; each would write to <d>/run
MISSING_INPUTS = [name for name, _, _ in EXIT_CODES if name.endswith((" file", " directory"))]


def test_missing_input_is_named_and_leaves_no_run_dir(phantoms, tmp_path, capsys):
    assert len(MISSING_INPUTS) == 9
    for name in MISSING_INPUTS:
        argv = next(a for n, _, a in EXIT_CODES if n == name)
        d = tmp_path / name
        assert main(argv(str(d), str(phantoms))) == 2
        why = "is a directory" if name.endswith(" directory") else "no such file or directory"
        assert capsys.readouterr().err == f"error: {why}: {d}/none\n"
        assert not (d / "run").exists()


# the EXIT_CODES cases with a regular file, <d>/none, as a directory flag;
# each would write to <d>/run
FILES_AS_DIRS = [name for name, _, _ in EXIT_CODES if ", regular file as --" in name]


def test_file_as_directory_is_named_and_leaves_no_run_dir(phantoms, tmp_path, capsys):
    """A directory flag given a regular file says so; with nothing at the
    path it says that there is no such file or directory."""
    assert len(FILES_AS_DIRS) == 6
    for name in FILES_AS_DIRS:
        argv = next(a for n, _, a in EXIT_CODES if n == name)
        d = tmp_path / name
        argv = argv(str(d), str(phantoms))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: not a directory: {d}/none\n"
        os.remove(d / "none")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: no such file or directory: {d}/none\n"
        assert not (d / "run").exists()


# the EXIT_CODES cases with an input path under a regular file, <d>/none, or
# a --config that is a directory or not UTF-8, with the whole of stderr ({d}
# is the case's dir); each would write to <d>/run
PATH_ERRORS = {
    **{name: "error: not a directory: {d}/none/none" for name, _, _ in EXIT_CODES
       if "a regular file in --" in name},
    "a directory as --config": "error: is a directory: {d}/none",
    "--config not UTF-8": "config error: cannot parse config {d}/bad.ini: 'utf-8' codec "
                          "can't decode byte 0xff in position 0: invalid start byte",
}


def test_path_error_is_named_and_leaves_no_run_dir(phantoms, tmp_path, capsys):
    assert len(PATH_ERRORS) == 9
    for name, message in PATH_ERRORS.items():
        argv = next(a for n, _, a in EXIT_CODES if n == name)
        d = tmp_path / name
        assert main(argv(str(d), str(phantoms))) == 2
        assert capsys.readouterr().err == message.format(d=d) + "\n"
        assert not (d / "run").exists()


def test_refused_preprocess_leaves_no_out_dir(phantoms, tmp_path, capsys):
    """A CT dir whose second volume is not in HU is refused before the first is saved."""
    os.makedirs(tmp_path / "in")
    for case, src in (("case000", "n1/case000_ct.raw"), ("case001", "unit/case000_mr.raw")):
        for ext in ("", ".meta"):
            shutil.copyfile(f"{phantoms}/{src}{ext}", f"{tmp_path}/in/{case}_ct.raw{ext}")
    assert main(["preprocess", "--in-dir", str(tmp_path / "in"), "--out-dir",
                 str(tmp_path / "run"), "--kind", "ct"]) == 1
    assert capsys.readouterr().err == "error: hounsfield_floor needs a HU volume, got UNIT\n"
    assert not (tmp_path / "run").exists()


# the EXIT_CODES cases a stage refuses for a volume's intensity domain, with
# the message
DOMAIN_ERRORS = {
    "infer, new --out, reference CT not in HU": "error: --reference-ct needs a HU volume, got UNIT",
    "preprocess --kind ct, a UNIT volume": "error: hounsfield_floor needs a HU volume, got UNIT",
    "train-sr, volumes not in UNIT": "error: sr training needs a UNIT volume, got HU",
}


def test_domain_error_names_its_stage(phantoms, tmp_path, capsys):
    for name, _, argv in EXIT_CODES:
        if name in DOMAIN_ERRORS:
            assert main(argv(str(tmp_path / name), str(phantoms))) == 1
            assert capsys.readouterr().err == DOMAIN_ERRORS[name] + "\n"


def test_resume_latest_without_an_epoch_checkpoint_names_the_run_dir(phantoms, tmp_path,
                                                                      capsys):
    run = tmp_path / "run"
    run.mkdir()
    assert main(_tiny(str(tmp_path), str(phantoms), "sr") + ["--resume", "latest"]) == 2
    assert capsys.readouterr().err == f"error: no epoch checkpoints under {run}\n"
    assert not any(run.iterdir())


@pytest.mark.parametrize("module,stage", [(lapsrn, "super_resolve"),
                                          (postprocess, "histogram_match"),
                                          (postprocess, "segment_from_matched")],
                         ids=["super_resolve", "histogram_match", "segment_from_matched"])
def test_infer_failing_after_translation_leaves_no_out_dir(phantoms, tmp_path, capsys,
                                                          monkeypatch, module, stage):
    def fail(*args, **kwargs):
        raise RuntimeError(f"{stage} failed")

    monkeypatch.setattr(module, stage, fail)
    assert main(_infer_into_run(str(tmp_path), str(phantoms))) == 1
    assert capsys.readouterr().err == f"error: {stage} failed\n"
    assert not (tmp_path / "run").exists()


def test_infer_without_sr_ckpt_runs_no_super_resolution(phantoms, tmp_path):
    argv = _infer_into_run(str(tmp_path), str(phantoms))
    at = argv.index("--sr-ckpt")
    del argv[at : at + 2]
    assert main(argv) == 0
    assert sorted(f.name for f in (tmp_path / "run").iterdir()) == [
        f"{n}.raw{ext}" for n in ("mask", "matched_ct", "syn_ct") for ext in ("", ".meta")]
    # the mask is on the MR's grid, not the SR grid of twice its edges
    assert vio.load_volume(str(tmp_path / "run" / "mask.raw")).data.shape == (8, 8, 8)


def test_infer_ignores_the_stored_halo(phantoms, tmp_path):
    """The same SR weights with their training halo (2, the pyramid's
    receptive radius) and with a halo below it give the same outputs."""
    p = str(phantoms)
    outputs = []
    for sr_ckpt in ("run/sr_final", "sr_short_halo"):
        d = tmp_path / sr_ckpt.replace("/", "_")
        assert main(_infer(str(d), p, p + "/run/cut_final.npz", f"{p}/{sr_ckpt}.npz")) == 0
        outputs.append([(d / f"{n}.raw").read_bytes() for n in ("sr_ct", "matched_ct", "mask")])
    assert outputs[0] == outputs[1]


# the run record of format 3 for TINY_RUN's networks: metadata keys, then
# parameter arrays and each optimizer's parameter count
RECORDS = {
    "cut": ({"discriminator_spec", "epoch", "format_version", "generator_spec", "kind",
             "monitor", "nce_config", "optimizers", "projector_spec", "step", "tap_ids",
             "train_config"},
            {"d": ("convs.0.bias", "convs.0.weight", "convs.1.bias", "convs.1.weight",
                   "final.bias", "final.weight", "norms.0.beta", "norms.0.gamma"),
             "f": ("mlps.0.bias", "mlps.0.weight", "mlps.1.bias", "mlps.1.weight",
                   "mlps.2.bias", "mlps.2.weight"),
             "g": ("blocks.0.conv1.bias", "blocks.0.conv1.weight", "blocks.0.conv2.bias",
                   "blocks.0.conv2.weight", "blocks.0.norm1.beta", "blocks.0.norm1.gamma",
                   "blocks.0.norm2.beta", "blocks.0.norm2.gamma", "down_norms.0.beta",
                   "down_norms.0.gamma", "downs.0.bias", "downs.0.weight", "head.bias",
                   "head.weight", "stem.bias", "stem.weight", "stem_norm.beta",
                   "stem_norm.gamma", "up_norms.0.beta", "up_norms.0.gamma", "ups.0.bias",
                   "ups.0.weight")},
            {"opt_d": (("m", "v"), 8), "opt_g": (("m", "v"), 28)}),
    "sr": ({"epoch", "format_version", "kind", "monitor", "optimizers", "pyramid_spec", "step",
            "train_config"},
           {"net": tuple(f"levels.0.{layer}.{p}" for layer in (
               "feat_convs.0", "feat_head", "feat_up", "recon_convs.0", "recon_up")
               for p in ("bias", "weight"))},
           {"opt": (("buf",), 10)}),
}


@pytest.mark.parametrize("prefix", list(RECORDS))
def test_checkpoint_record_is_pinned(phantoms, prefix):
    meta_keys, params, opts = RECORDS[prefix]
    meta, arrays = ckpt_io.load_checkpoint(phantoms / "run" / f"{prefix}_final.npz")
    assert set(meta) == meta_keys
    assert set(arrays) == (
        {f"param/{net}/{name}" for net, names in params.items() for name in names}
        | {f"opt/{opt}/{slot}/{i}" for opt, (slots, n) in opts.items()
           for slot in slots for i in range(n)})


def _python(code):
    """The stdout lines of `code` run by a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(skullsynth.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    return run.stdout.splitlines()


def test_cli_import_leaves_scipy_submodules_unloaded():
    """`scipy.ndimage` loads only when augmentation runs, and no stage loads
    `scipy.spatial`; neither loads with the CLI."""
    code = ("import sys, skullsynth.cli; "
            "print(sorted(m for m in ('scipy.ndimage', 'scipy.spatial') if m in sys.modules))")
    assert _python(code) == ["[]"]


def test_evaluate_leaves_scipy_spatial_unloaded(phantoms, tmp_path):
    # the prediction is the truth shifted a voxel, so the boundaries differ
    truth = vio.load_volume(str(phantoms / "n1/case000_mask.raw"))
    for name, data in (("gt", truth.data), ("pred", np.roll(truth.data, 1, axis=0))):
        os.makedirs(tmp_path / name)
        vio.save_volume(vio.Volume(data, truth.spacing, truth.domain),
                        str(tmp_path / name / "case000.raw"))
    d = str(tmp_path)
    argv = ["evaluate", "--pred-dir", d + "/pred", "--gt-dir", d + "/gt", "--out", d + "/e.csv"]
    code = ("import sys; from skullsynth.cli import main; "
            f"assert main({argv!r}) == 0; print('scipy.spatial' in sys.modules)")
    assert _python(code)[-1] == "False"


# the EXIT_CODES cases a spec rejects, with its message; each would write to <d>/run
SPEC_ERRORS = {
    "levels=0": "levels must be >= 1",
    "temperature=0": "temperature must be > 0",
    "temperature=-1": "temperature must be > 0",
    "batch_size=0": "batch_size must be >= 1",
    "batch_size=-2": "batch_size must be >= 1",
    "tap_layers=-1": "tap_layers must be >= 0",
    "lapsrn.halo=-1": "halo >= 0",
    "resample_shape=24,40": "resample_shape must be 3 sizes >= 1, got (24, 40)",
    "resample_shape=0,8,8": "resample_shape must be 3 sizes >= 1, got (0, 8, 8)",
    "data.floor_hu=nan": "[data] floor_hu must be finite, got nan",
    "sdsc_tolerance_mm=-1": "sdsc_tolerance_mm must be >= 0",
    "adam_beta2=1.0": "adam_beta1 and adam_beta2 must be in [0, 1)",
    "adam_beta1=-0.5": "adam_beta1 and adam_beta2 must be in [0, 1)",
    "cut.learning_rate=nan": "lr must be positive",
    "lambda_gan=nan": "loss weights must be >= 0",
    "lapsrn.learning_rate=nan": "lr must be positive",
    "eps_charbonnier=nan": "eps_charbonnier must be positive",
    "cut.temperature=nan": "temperature must be > 0",
    "lapsrn.momentum=nan": "momentum and weight_decay must be >= 0",
    "lapsrn.weight_decay=nan": "momentum and weight_decay must be >= 0",
    "cut.learning_rate=inf": "[cut] learning_rate must be finite, got inf",
    "lapsrn.learning_rate=inf": "[lapsrn] learning_rate must be finite, got inf",
    "infer, postprocess.bone_threshold_hu=nan":
        "[postprocess] bone_threshold_hu must be finite, got nan",
    "cut.max_steps=-1": "max_steps must be >= 0",
    "cut.checkpoint_every=-1": "checkpoint_every must be >= 0",
    "lapsrn.max_epochs=-2": "max_epochs must be >= 0",
    "lapsrn.plateau_patience_epochs=-1": "plateau_patience_epochs must be >= 0",
    "run.seed=-1": "seed must be >= 0",
    "phantom-gen --shape 0": "shape must be 3 sizes >= 1, got (0, 0, 0)",
    "phantom-gen --shape -4": "shape must be 3 sizes >= 1, got (-4, -4, -4)",
    "phantom-gen --noise-mr -0.5": "noise_sigma_mr, noise_sigma_ct and defect_radius must be >= 0",
    "phantom-gen --noise-ct -1": "noise_sigma_mr, noise_sigma_ct and defect_radius must be >= 0",
    "phantom-gen --noise-ct inf": "noise_sigma_ct must be finite, got inf",
    "phantom-gen --defect-radius -2":
        "noise_sigma_mr, noise_sigma_ct and defect_radius must be >= 0",
    "phantom-gen --count 0": "--count must be >= 1, got 0",
    "phantom-gen --count -1": "--count must be >= 1, got -1",
}


def test_spec_error_leaves_no_run_dir(phantoms, tmp_path, capsys):
    for name, _, argv in EXIT_CODES:
        if name in SPEC_ERRORS:
            d = tmp_path / name
            assert main(argv(str(d), str(phantoms))) == 2
            assert SPEC_ERRORS[name] in capsys.readouterr().err
            assert not (d / "run").exists()


@pytest.mark.parametrize("kind", ["mr", "ct"])
def test_preprocess_takes_the_requested_kind(phantoms, tmp_path, kind, capsys):
    # a phantom-gen directory holds the MR, CT and mask of each case
    argv = ["preprocess", "--in-dir", str(phantoms / "n1"), "--out-dir", str(tmp_path),
            "--kind", kind]
    assert main(argv) == 0
    assert f"preprocessed 1 {kind} volume(s)" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.glob("*.raw")) == [f"case000_{kind}.raw"]


def _train_both(p, run_dir):
    settings = [f"--set={k}={v}" for k, v in {**TINY_RUN, "run.output_dir": run_dir}.items()]
    assert main(["train-cut", "--mr-dir", p + "/unit", "--ct-dir", p + "/unit", *settings]) == 0
    assert main(["train-sr", "--hr-dir", p + "/unit", *settings]) == 0


def test_no_float64_reaches_a_conv_kernel(phantoms, tmp_path, monkeypatch):
    # wrap the kernels where `ops` and `lapsrn` look them up, as a tracer does
    seen = {}
    for name in CONV_KERNELS:
        def wrapped(*args, _name=name, _kernel=getattr(kernels, name), **kwargs):
            operands = [*args, *kwargs.values()]
            seen.setdefault(_name, set()).update(a.dtype for a in operands if isinstance(a, np.ndarray))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, name, wrapped)
    p = str(phantoms)
    _train_both(p, tmp_path / "run")
    run = str(tmp_path / "run")
    assert main(_infer(str(tmp_path / "out"), p, run + "/cut_final.npz", run + "/sr_final.npz")) == 0
    assert seen == {name: {np.dtype(np.float32)} for name in CONV_KERNELS}


def test_float64_checkpoints_load_as_float32(phantoms, tmp_path, engine_dtype):
    """Checkpoints of format 3 written in float64 load by casting every
    array to its parameter's dtype, and `infer` runs from them."""
    p = str(phantoms)
    engine_dtype(np.float64)
    _train_both(p, tmp_path / "run")
    engine_dtype(np.float32)
    for prefix, load, nets, opts in (
        ("cut", cut.load_cut_checkpoint, ("g", "d", "f"), ("opt_d", "opt_g")),
        ("sr", lapsrn.load_sr_checkpoint, ("net",), ("opt",)),
    ):
        path = tmp_path / "run" / f"{prefix}_final.npz"
        _, saved = ckpt_io.load_checkpoint(path)
        assert {a.dtype for a in saved.values()} == {np.dtype(np.float64)}
        state = load(path)
        ckpt_io.save_state(tmp_path / "resaved.npz", {}, {n: state[n] for n in nets},
                           {n: state[n] for n in opts})
        _, resaved = ckpt_io.load_checkpoint(tmp_path / "resaved.npz")
        assert resaved.keys() == saved.keys()
        for key, arr in resaved.items():
            assert arr.dtype == np.float32, key
            np.testing.assert_array_equal(arr, saved[key].astype(np.float32), err_msg=key)
    run = str(tmp_path / "run")
    assert main(_infer(str(tmp_path / "out"), p, run + "/cut_final.npz", run + "/sr_final.npz")) == 0


def _pipeline(root, fmt):
    """phantom-gen -> preprocess -> train-cut -> train-sr -> infer -> evaluate
    on one 8^3 case with TINY_RUN's networks and no opening, every volume
    file in `fmt`: the four volumes `infer` wrote, and the evaluation report."""
    ext, r = vio.EXTENSIONS[fmt][0], str(root)
    settings = [f"--set={k}={v}" for k, v in
                {**TINY_RUN, "run.output_dir": r + "/run", "data.format": fmt,
                 "postprocess.opening_radius": 0}.items()]
    assert main(["phantom-gen", "--out", r + "/gen", "--count", "1", "--shape", "8",
                 "--noise-ct", "20", *settings]) == 0
    for kind in ("mr", "ct"):
        assert main(["preprocess", "--in-dir", r + "/gen", "--out-dir", f"{r}/{kind}",
                     "--kind", kind, *settings]) == 0
    assert main(["train-cut", "--mr-dir", r + "/mr", "--ct-dir", r + "/ct", *settings]) == 0
    assert main(["train-sr", "--hr-dir", r + "/ct", *settings]) == 0
    assert main(["infer", "--mr", f"{r}/mr/case000_mr{ext}", "--cut-ckpt", r + "/run/cut_final.npz",
                 "--sr-ckpt", r + "/run/sr_final.npz", "--reference-ct", f"{r}/gen/case000_ct{ext}",
                 "--out", r + "/out", *settings]) == 0
    # the truth mask on the SR grid: each voxel split into 2^3
    truth = vio.load_volume(f"{r}/gen/case000_mask{ext}", fmt)
    truth = vio.Volume(truth.data.repeat(2, 0).repeat(2, 1).repeat(2, 2),
                       tuple(s / 2 for s in truth.spacing), truth.domain)
    for name, v in (("pred", vio.load_volume(f"{r}/out/mask{ext}", fmt)), ("gt", truth)):
        os.makedirs(f"{r}/{name}")
        vio.save_volume(v, f"{r}/{name}/case000{ext}", fmt)
    assert main(["evaluate", "--pred-dir", r + "/pred", "--gt-dir", r + "/gt",
                 "--out", r + "/evaluation.csv", *settings]) == 0
    outputs = {n: vio.load_volume(f"{r}/out/{n}{ext}", fmt)
               for n in ("syn_ct", "sr_ct", "matched_ct", "mask")}
    return outputs, (root / "evaluation.csv").read_text()


def test_nifti_and_raw_files_give_the_same_results(tmp_path):
    """The whole CLI run on NIfTI files, the format real MR and CT come in,
    gives what it gives on raw files."""
    nifti, nifti_report = _pipeline(tmp_path / "nifti", vio.NIFTI)
    raw, raw_report = _pipeline(tmp_path / "raw", vio.RAW_F32)
    assert sorted(p.name for p in (tmp_path / "nifti" / "out").iterdir()) == [
        f"{n}.nii.gz" for n in ("mask", "matched_ct", "sr_ct", "syn_ct")]
    assert nifti["mask"].data.any()
    for name, v in nifti.items():
        np.testing.assert_array_equal(v.data, raw[name].data, err_msg=name)
        assert (v.spacing, v.domain) == (raw[name].spacing, raw[name].domain), name
    assert nifti_report == raw_report
