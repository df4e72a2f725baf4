"""The paper's pipeline end to end through the CLI, on tiny phantoms and specs:
phantom-gen -> preprocess -> train-cut -> train-sr -> infer -> evaluate.

Every command must exit 0 and write every artifact it promises.  Masking the
ground-truth CT with `infer`'s postprocess (histogram matching against the
same case's raw CT, then `segment_from_matched`) must recover the truth mask
with Dice and surface Dice of at least 0.95 (Nikolov et al. 2018,
arXiv:1809.04430).  The trained path's Dice and the SR PSNR against trilinear
upsampling (Lai et al. 2017, arXiv:1704.03915) are reported, not gated: a few
steps of tiny networks are not expected to reach the paper's numbers.  So is
the baseline the trained path has to beat: the raw MR thresholded below
MR_THRESHOLD, then the default opening and closing.
"""

import csv

import numpy as np

from skullsynth import config, lapsrn, metrics, postprocess
from skullsynth import volume_io as vio
from skullsynth.cli import main

EDGE = 32
CASES = ("case000", "case001")
FLOOR = 0.95
MR_THRESHOLD = 0.10  # between the phantom's MR shell (0.05) and its exterior (0.15)
# a few optimizer steps of each trainer: CUT takes one step per epoch on two
# cases, SR four (16 chunks of the two 16^3 inputs, 4 per step)
SETTINGS = {
    "cut.base_filters": 4, "cut.n_residual_blocks": 1, "cut.d_base_filters": 4,
    "cut.embed_dim": 8, "cut.num_patches": 16, "cut.max_steps": 2,
    "lapsrn.filters": 4, "lapsrn.feat_layers": 3, "lapsrn.core_size": 8, "lapsrn.halo": 2,
    "lapsrn.grad_accum": 4, "lapsrn.max_steps": 4,
}


def _evaluate(tmp_path, name, pred, truth):
    """`evaluate` on one case; its (dice, surface dice) row."""
    for kind, vol in (("pred", pred), ("gt", truth)):
        (tmp_path / f"{name}_{kind}").mkdir()
        vio.save_volume(vol, str(tmp_path / f"{name}_{kind}" / "case000.raw"))
    report = tmp_path / f"{name}.csv"
    assert main(["evaluate", "--pred-dir", str(tmp_path / f"{name}_pred"),
                 "--gt-dir", str(tmp_path / f"{name}_gt"), "--out", str(report)]) == 0
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["case", "dice", "surface_dice"] and [r[0] for r in rows[1:]] == [
        "case000", "mean"]
    return float(rows[1][1]), float(rows[1][2])


def test_pipeline_through_the_cli(tmp_path, capsys):
    raw, mr, ct, run, out = (str(tmp_path / d) for d in ("raw", "mr", "ct", "run", "out"))
    sets = [f"--set={k}={v}" for k, v in {**SETTINGS, "run.output_dir": run}.items()]

    assert main(["phantom-gen", "--out", raw, "--count", str(len(CASES)), "--shape", str(EDGE),
                 "--noise-mr", "0.02", "--noise-ct", "20"]) == 0
    assert sorted(p.name for p in (tmp_path / "raw").iterdir()) == [
        f"{c}_{kind}.raw{ext}" for c in CASES for kind in ("ct", "mask", "mr") for ext in ("", ".meta")]
    for kind, d in (("mr", mr), ("ct", ct)):
        assert main(["preprocess", "--in-dir", raw, "--out-dir", d, "--kind", kind]) == 0
        assert sorted(p.name for p in (tmp_path / kind).iterdir()) == [
            f"{c}_{kind}.raw{ext}" for c in CASES for ext in ("", ".meta")]

    assert main(["train-cut", "--mr-dir", mr, "--ct-dir", ct, *sets]) == 0
    assert main(["train-sr", "--hr-dir", ct, *sets]) == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "config.ini", "cut_epoch0001.npz", "cut_epoch0002.npz", "cut_final.npz", "cut_log.csv",
        "sr_epoch0001.npz", "sr_final.npz", "sr_log.csv"]
    for log, steps in (("cut_log.csv", 2), ("sr_log.csv", 4)):
        with open(tmp_path / "run" / log, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [int(r[0]) for r in rows[1:]] == list(range(1, steps + 1))
        assert all(np.isfinite(float(v)) for r in rows[1:] for v in r[2:])

    reference = f"{raw}/case000_ct.raw"
    assert main(["infer", "--mr", f"{mr}/case000_mr.raw", "--cut-ckpt", f"{run}/cut_final.npz",
                 "--sr-ckpt", f"{run}/sr_final.npz", "--reference-ct", reference,
                 "--out", out]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        f"{name}.raw{ext}" for name in ("mask", "matched_ct", "sr_ct", "syn_ct")
        for ext in ("", ".meta")]
    result = {name: vio.load_volume(f"{out}/{name}.raw")
              for name in ("syn_ct", "sr_ct", "matched_ct", "mask")}
    assert result["syn_ct"].data.shape == (EDGE,) * 3
    for name in ("sr_ct", "matched_ct", "mask"):
        assert result[name].data.shape == (2 * EDGE,) * 3
    for name in ("syn_ct", "sr_ct"):
        assert 0.0 <= result[name].data.min() and result[name].data.max() <= 1.0
    assert np.isin(result["mask"].data, (0.0, 1.0)).all()

    # the oracle path: infer's postprocess on the ground-truth CT
    truth = vio.load_volume(f"{raw}/case000_mask.raw")
    params = config.segmentation_settings(config.load_config())
    matched = postprocess.histogram_match(vio.load_volume(f"{ct}/case000_ct.raw"),
                                          vio.load_volume(reference))
    oracle = postprocess.segment_from_matched(matched, params).to_volume()
    dice, surface_dice = _evaluate(tmp_path, "oracle", oracle, truth)
    assert dice >= FLOOR and surface_dice >= FLOOR, (dice, surface_dice)

    # reported only: the MR-intensity baseline, with no network
    raw_mr = vio.load_volume(f"{raw}/case000_mr.raw")
    dark = vio.SegmentationMask((raw_mr.data < MR_THRESHOLD).astype(np.uint8), raw_mr.spacing)
    mr_mask = postprocess.binary_close(postprocess.binary_open(dark, params), params)
    mr_baseline = _evaluate(tmp_path, "mr_threshold", mr_mask.to_volume(), truth)

    # reported only: the trained path's mask against the truth at SR resolution
    up = np.repeat(np.repeat(np.repeat(truth.data, 2, 0), 2, 1), 2, 2)
    truth_sr = vio.Volume(up, result["mask"].spacing, truth.domain)
    trained = _evaluate(tmp_path, "trained", result["mask"], truth_sr)
    hr = vio.load_volume(f"{ct}/case000_ct.raw")
    lr = lapsrn.make_lr_hr_pairs(hr)[0]
    sr_psnr = metrics.psnr(lapsrn.super_resolve(f"{run}/sr_final.npz", lr), hr)
    baseline_psnr = metrics.psnr(lapsrn.trilinear_baseline(lr), hr)
    with capsys.disabled():
        print(f"\noracle mask: dice {dice:.4f} surface dice {surface_dice:.4f}; "
              f"trained mask: dice {trained[0]:.4f} surface dice {trained[1]:.4f}; "
              f"MR < {MR_THRESHOLD} mask: dice {mr_baseline[0]:.4f} "
              f"surface dice {mr_baseline[1]:.4f}; "
              f"SR PSNR {sr_psnr:.2f} dB, trilinear {baseline_psnr:.2f} dB")
