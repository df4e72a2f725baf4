"""CLI exit codes: 0 success, 1 runtime failure, 2 usage or configuration error."""

import pytest

from skullsynth.cli import main


@pytest.fixture(scope="module")
def phantoms(tmp_path_factory):
    """One and two phantom cases (MR, CT and mask of each) in two directories."""
    root = tmp_path_factory.mktemp("phantoms")
    for count in (1, 2):
        assert main(["phantom-gen", "--out", str(root / f"n{count}"),
                     "--count", str(count), "--shape", "8"]) == 0
    return root


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
