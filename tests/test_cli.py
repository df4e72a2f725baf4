"""CLI exit codes: 0 success, 1 runtime failure, 2 usage or configuration error."""

import os
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
    """`infer --skip-sr` into <d>/run of the fixture's MR cropped to 7^3,
    which the fixture's generator, with one downsampling, cannot take."""
    mr = vio.load_volume(p + "/unit/case000_mr.raw")
    os.makedirs(d, exist_ok=True)
    vio.save_volume(vio.Volume(mr.data[:7, :7, :7], mr.spacing, mr.domain), d + "/mr.raw")
    return ["infer", "--mr", d + "/mr.raw", "--cut-ckpt", p + "/run/cut_final.npz", "--skip-sr",
            "--reference-ct", p + "/n1/case000_ct.raw", "--out", d + "/run"]


def _evaluate_at_scale(d, p, scale):
    """`evaluate` of the one-case phantom mask against itself saved with its
    spacing times `scale`."""
    truth = vio.load_volume(p + "/n1/case000_mask.raw")
    scaled = tuple(s * scale for s in truth.spacing)
    for name, spacing in (("gt", truth.spacing), ("pred", scaled)):
        os.makedirs(f"{d}/{name}")
        vio.save_volume(vio.Volume(truth.data, spacing, truth.domain), f"{d}/{name}/case000.raw")
    return ["evaluate", "--pred-dir", d + "/pred", "--gt-dir", d + "/gt", "--out", d + "/e.csv"]


def _preprocess(d, p, setting):
    return ["preprocess", "--in-dir", p + "/n1", "--out-dir", d + "/run", "--kind", "mr",
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
    ("missing --mr-dir", 2, lambda d, p: ["train-cut", "--mr-dir", d + "/none", "--ct-dir", p + "/n1"]),
    ("bad data.format", 2, lambda d, p: ["phantom-gen", "--out", d, "--set", "data.format=dicom"]),
    ("non-int value", 2, lambda d, p: ["phantom-gen", "--out", d, "--set", "cut.batch_size=two"]),
    ("levels=0", 2, lambda d, p: ["train-sr", "--hr-dir", p + "/n1", "--set", "lapsrn.levels=0",
                                  "--set", f"run.output_dir={d}/run"]),
    ("halo=6", 2, lambda d, p: ["train-sr", "--hr-dir", p + "/n1", "--set", "lapsrn.halo=6",
                                "--set", f"run.output_dir={d}/run"]),
    ("resample_shape=24,40", 2, lambda d, p: _preprocess(d, p, "data.resample_shape=24,40")),
    ("resample_shape=0,8,8", 2, lambda d, p: _preprocess(d, p, "data.resample_shape=0,8,8")),
    ("sdsc_tolerance_mm=-1", 2, lambda d, p: ["evaluate", "--pred-dir", p + "/n1", "--gt-dir",
                                              p + "/n1", "--out", d + "/run/e.csv", "--set",
                                              "metrics.sdsc_tolerance_mm=-1"]),
    ("evaluate case-id mismatch", 1, lambda d, p: ["evaluate", "--pred-dir", p + "/n1",
                                                   "--gt-dir", p + "/n2", "--out", d + "/e.csv"]),
    ("evaluate", 0, lambda d, p: _evaluate_at_scale(d, p, 1.0)),
    ("evaluate, spacings differ", 1, lambda d, p: _evaluate_at_scale(d, p, 0.5)),
    ("temperature=0", 2, lambda d, p: _train_cut(d, p, "cut.temperature=0")),
    ("temperature=-1", 2, lambda d, p: _train_cut(d, p, "cut.temperature=-1")),
    ("batch_size=0", 2, lambda d, p: _train_cut(d, p, "cut.batch_size=0")),
    ("batch_size=-2", 2, lambda d, p: _train_cut(d, p, "cut.batch_size=-2")),
    ("tap_layers=-1", 2, lambda d, p: _train_cut(d, p, "cut.tap_layers=-1")),
    ("train-cut, volumes below D's smallest edge", 1,
     lambda d, p: _tiny(d, p, "cut", {"cut.d_layers": 3})),
    ("train-cut, edges not divisible by G's downsampling", 1,
     lambda d, p: _tiny(d, p, "cut", {"cut.n_downsample": 4})),
    ("train-sr, edges not divisible by the scale", 1,
     lambda d, p: _tiny(d, p, "sr", {"lapsrn.levels": 4, "lapsrn.halo": 4})),
    ("train-cut resume", 0, lambda d, p: _resume(d, p, "cut")),
    ("train-cut resume, other base_filters", 1,
     lambda d, p: _resume(d, p, "cut", {"cut.base_filters": 3})),
    ("train-sr resume", 0, lambda d, p: _resume(d, p, "sr")),
    ("train-sr resume, other filters", 1, lambda d, p: _resume(d, p, "sr", {"lapsrn.filters": 3})),
    ("infer", 0, lambda d, p: _infer(d, p, p + "/run/cut_final.npz", p + "/run/sr_final.npz")),
    ("infer, checkpoints swapped", 1,
     lambda d, p: _infer(d, p, p + "/run/sr_final.npz", p + "/run/cut_final.npz")),
    ("infer, parameter array missing", 1,
     lambda d, p: _infer(d, p, p + "/cut_broken.npz", p + "/run/sr_final.npz")),
    ("infer, halo below the receptive radius", 1,
     lambda d, p: _infer(d, p, p + "/run/cut_final.npz", p + "/sr_short_halo.npz")),
    ("infer, MR edges not divisible by G's downsampling", 1, lambda d, p: _infer_odd_mr(d, p)),
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
    assert not (tmp_path / "e.csv").exists()


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


def test_volumes_too_small_for_d_leave_the_run_dir_empty(phantoms, tmp_path, capsys):
    # three stride-2 convs and two k4 stride-1 convs leave no logit of an 8^3 volume
    assert main(_tiny(str(tmp_path), str(phantoms), "cut", {"cut.d_layers": 3})) == 1
    err = capsys.readouterr().err
    assert "(8, 8, 8) is too small for the discriminator" in err
    assert "every edge must be at least 24" in err
    assert not list((tmp_path / "run").glob("*"))


# the EXIT_CODES cases refused for their volumes' shape, with the message;
# each would write to <d>/run
SHAPE_ERRORS = {
    "train-cut, edges not divisible by G's downsampling":
        "volume shape (8, 8, 8) not divisible by the generator's downsampling factor 16",
    "train-sr, edges not divisible by the scale": "volume shape (8, 8, 8) not divisible by scale 16",
    "infer, MR edges not divisible by G's downsampling":
        "input shape (7, 7, 7) not divisible by downsampling factor 2",
}


def test_shape_error_leaves_no_run_dir(phantoms, tmp_path, capsys):
    for name, _, argv in EXIT_CODES:
        if name in SHAPE_ERRORS:
            d = tmp_path / name
            assert main(argv(str(d), str(phantoms))) == 1
            assert SHAPE_ERRORS[name] in capsys.readouterr().err
            assert not (d / "run").exists()


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
    "halo=6": "lapsrn.halo 6 is below this pyramid's receptive radius 7",
    "resample_shape=24,40": "resample_shape must be 3 sizes >= 1, got (24, 40)",
    "resample_shape=0,8,8": "resample_shape must be 3 sizes >= 1, got (0, 8, 8)",
    "sdsc_tolerance_mm=-1": "sdsc_tolerance_mm must be >= 0",
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
