"""CLI exit codes: 0 success, 1 runtime failure, 2 usage or configuration error."""

import pytest

from skullsynth import checkpoint as ckpt_io
from skullsynth.cli import main

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
    trainers run on it (`run`), and the CUT one with a parameter array
    dropped (`cut_broken.npz`)."""
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
    return root


def _infer(d, p, cut_ckpt, sr_ckpt):
    return ["infer", "--mr", p + "/unit/case000_mr.raw", "--cut-ckpt", cut_ckpt,
            "--sr-ckpt", sr_ckpt, "--reference-ct", p + "/n1/case000_ct.raw", "--out", d]


def test_phantom_gen_writes_every_case(phantoms):
    assert sorted(p.name for p in (phantoms / "n2").iterdir()) == [
        f"case00{i}_{kind}.raw{ext}"
        for i in range(2) for kind in ("ct", "mask", "mr") for ext in ("", ".meta")
    ]


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
    ("evaluate case-id mismatch", 1, lambda d, p: ["evaluate", "--pred-dir", p + "/n1",
                                                   "--gt-dir", p + "/n2", "--out", d + "/e.csv"]),
    ("infer", 0, lambda d, p: _infer(d, p, p + "/run/cut_final.npz", p + "/run/sr_final.npz")),
    ("infer, checkpoints swapped", 1,
     lambda d, p: _infer(d, p, p + "/run/sr_final.npz", p + "/run/cut_final.npz")),
    ("infer, parameter array missing", 1,
     lambda d, p: _infer(d, p, p + "/cut_broken.npz", p + "/run/sr_final.npz")),
]


@pytest.mark.parametrize("argv,code", [(a, c) for _, c, a in EXIT_CODES],
                         ids=[name for name, _, _ in EXIT_CODES])
def test_exit_code(argv, code, phantoms, tmp_path, capsys):
    assert main(argv(str(tmp_path), str(phantoms))) == code
    err = capsys.readouterr().err
    assert bool(err) == bool(code)  # every failure says why on stderr


def test_spec_error_leaves_no_run_dir(phantoms, tmp_path, capsys):
    run_dir = tmp_path / "run"
    argv = ["train-sr", "--hr-dir", str(phantoms / "n1"), "--set", "lapsrn.levels=0",
            "--set", f"run.output_dir={run_dir}"]
    assert main(argv) == 2
    assert "levels must be >= 1" in capsys.readouterr().err
    assert not run_dir.exists()
