"""Command-line entry point tying the pipeline stages together.

Subcommands: phantom-gen, preprocess, train-cut, train-sr, infer, evaluate.
Every command reads the same INI config; repeated `--set section.key=value`
flags override file values.  Exit codes: 0 success, 1 runtime failure,
2 usage or configuration error (including missing input files).
"""

import argparse
import csv
import os
import sys

import numpy as np

from skullsynth import config as config_mod
from skullsynth import cut, lapsrn, metrics, phantom, postprocess, seeding
from skullsynth import volume_io as vio
from skullsynth.config import ConfigError


def _volume_paths(directory, fmt):
    if not os.path.isdir(directory):
        raise FileNotFoundError(directory)
    names = sorted(n for n in os.listdir(directory) if n.endswith(vio.EXTENSIONS[fmt]))
    return [os.path.join(directory, n) for n in names]


def _case_id(path):
    name = os.path.basename(path)
    ext = next(e for exts in vio.EXTENSIONS.values() for e in exts if name.endswith(e))
    return name[: -len(ext)]


def _require_file(path):
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    return path


def _load_dir(directory, fmt):
    return [vio.load_volume(p, fmt) for p in _volume_paths(directory, fmt)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_phantom_gen(args, cfg):
    seed = cfg["run"]["seed"]
    fmt = config_mod.data_settings(cfg).format
    ext = vio.EXTENSIONS[fmt][0]
    os.makedirs(args.out, exist_ok=True)
    shape = (args.shape,) * 3
    for i in range(args.count):
        jitter = seeding.stream(seed, "phantom.case", i)
        semi = tuple(float(f * n) for f, n in zip(jitter.uniform(0.32, 0.42, 3), shape))
        spec = phantom.PhantomSpec(
            shape=shape,
            semi_axes=semi,
            thickness=float(jitter.uniform(4.0, 5.0)),
            noise_sigma_mr=args.noise_mr,
            noise_sigma_ct=args.noise_ct,
            defect_radius=args.defect_radius,
            seed=seed + i,
        )
        mr, ct, mask = phantom.make_phantom(spec)
        stem = os.path.join(args.out, f"case{i:03d}")
        vio.save_volume(mr, stem + "_mr" + ext, fmt)
        vio.save_volume(ct, stem + "_ct" + ext, fmt)
        vio.save_volume(mask.to_volume(), stem + "_mask" + ext, fmt)
    print(f"wrote {args.count} phantom case(s) under {args.out}")
    return 0


def cmd_preprocess(args, cfg):
    data = config_mod.data_settings(cfg)
    fmt = data.format
    paths = _volume_paths(args.in_dir, fmt)
    if not paths:
        raise ConfigError(f"no {fmt} volumes found in {args.in_dir}")
    # a phantom-gen directory holds every kind of a case: keep the requested one
    by_kind = {k: [p for p in paths if _case_id(p).endswith("_" + k)] for k in ("mr", "ct")}
    if all(by_kind.values()):
        paths = by_kind[args.kind]
    os.makedirs(args.out_dir, exist_ok=True)
    for path in paths:
        v = vio.load_volume(path, fmt)
        if args.kind == "ct":
            v = vio.hounsfield_floor(v, data.floor_hu)
        v = vio.minmax_normalize(v)
        if data.resample_shape is not None:
            v = vio.resample(v, data.resample_shape)
        vio.save_volume(v, os.path.join(args.out_dir, os.path.basename(path)), fmt)
    print(f"preprocessed {len(paths)} {args.kind} volume(s) into {args.out_dir}")
    return 0


def cmd_train_cut(args, cfg):
    g_spec, d_spec, p_spec, nce, train_cfg = config_mod.cut_settings(cfg)
    fmt = config_mod.data_settings(cfg).format
    mr_dir = args.mr_dir or cfg["data"]["mr_dir"]
    ct_dir = args.ct_dir or cfg["data"]["ct_dir"]
    if not mr_dir or not ct_dir:
        raise ConfigError("train-cut needs [data] mr_dir and ct_dir (or --mr-dir/--ct-dir)")
    mr_set = _load_dir(mr_dir, fmt)
    ct_set = _load_dir(ct_dir, fmt)
    if not mr_set or not ct_set:
        raise ConfigError(f"empty dataset: {mr_dir} has {len(mr_set)}, {ct_dir} has {len(ct_set)}")
    final, rows = cut.train_cut(
        mr_set, ct_set, train_cfg, g_spec, d_spec, p_spec, nce, run_dir=cfg["run"]["output_dir"],
        resume_from=args.resume, config_ini=config_mod.dump_config(cfg),
    )
    print(f"trained {len(rows)} step(s); final checkpoint {final}")
    return 0


def cmd_train_sr(args, cfg):
    spec, train_cfg = config_mod.sr_settings(cfg)
    fmt = config_mod.data_settings(cfg).format
    hr_dir = args.hr_dir or cfg["data"]["hr_dir"]
    if not hr_dir:
        raise ConfigError("train-sr needs [data] hr_dir (or --hr-dir)")
    hr_set = _load_dir(hr_dir, fmt)
    if not hr_set:
        raise ConfigError(f"empty dataset: no volumes in {hr_dir}")
    final, rows = lapsrn.train_lapsrn(
        hr_set, train_cfg, spec, run_dir=cfg["run"]["output_dir"], resume_from=args.resume,
        config_ini=config_mod.dump_config(cfg),
    )
    print(f"trained {len(rows)} step(s); final checkpoint {final}")
    return 0


def cmd_infer(args, cfg):
    params = config_mod.segmentation_settings(cfg)
    fmt = config_mod.data_settings(cfg).format
    ext = vio.EXTENSIONS[fmt][0]
    _require_file(args.mr)
    _require_file(args.cut_ckpt)
    if not args.skip_sr:
        if args.sr_ckpt is None:
            raise ConfigError("infer needs --sr-ckpt unless --skip-sr is given")
        _require_file(args.sr_ckpt)
    _require_file(args.reference_ct)
    out_dir = args.out or cfg["run"]["output_dir"]

    mr = vio.load_volume(args.mr, fmt)
    syn = cut.translate(args.cut_ckpt, mr)
    os.makedirs(out_dir, exist_ok=True)
    vio.save_volume(syn, os.path.join(out_dir, "syn_ct" + ext), fmt)
    src = syn
    if not args.skip_sr:
        src = lapsrn.super_resolve(args.sr_ckpt, syn)
        vio.save_volume(src, os.path.join(out_dir, "sr_ct" + ext), fmt)
    reference = vio.load_volume(args.reference_ct, fmt)
    matched = postprocess.histogram_match(src, reference)
    vio.save_volume(matched, os.path.join(out_dir, "matched_ct" + ext), fmt)
    mask = postprocess.segment_from_matched(matched, params)
    vio.save_volume(mask.to_volume(), os.path.join(out_dir, "mask" + ext), fmt)
    print(f"wrote syn_ct, {'sr_ct, ' if not args.skip_sr else ''}matched_ct, mask under {out_dir}")
    return 0


def cmd_evaluate(args, cfg):
    tol = config_mod.metrics_settings(cfg).sdsc_tolerance_mm
    fmt = config_mod.data_settings(cfg).format
    pred_paths = {_case_id(p): p for p in _volume_paths(args.pred_dir, fmt)}
    gt_paths = {_case_id(p): p for p in _volume_paths(args.gt_dir, fmt)}
    if set(pred_paths) != set(gt_paths):
        only_pred = sorted(set(pred_paths) - set(gt_paths))
        only_gt = sorted(set(gt_paths) - set(pred_paths))
        raise RuntimeError(
            f"case ids do not match: only in predictions {only_pred[:4]}, only in truth {only_gt[:4]}"
        )
    if not pred_paths:
        raise ConfigError(f"no volumes to evaluate in {args.pred_dir}")
    out_path = args.out or os.path.join(cfg["run"]["output_dir"], "evaluation.csv")
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    rows = []
    for case in sorted(pred_paths):
        pred_vol = vio.load_volume(pred_paths[case], fmt)
        gt_vol = vio.load_volume(gt_paths[case], fmt)
        if pred_vol.spacing != gt_vol.spacing:
            raise RuntimeError(
                f"case {case}: prediction spacing {pred_vol.spacing} differs from "
                f"truth spacing {gt_vol.spacing}"
            )
        pred = vio.mask_from_volume(pred_vol)
        gt = vio.mask_from_volume(gt_vol)
        d = metrics.dice(pred, gt)
        s = metrics.surface_dice(pred, gt, tol, spacing=gt_vol.spacing)
        rows.append((case, d, s))
    mean_d = float(np.mean([r[1] for r in rows]))
    mean_s = float(np.mean([r[2] for r in rows]))
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("case", "dice", "surface_dice"))
        for case, d, s in rows:
            writer.writerow((case, repr(float(d)), repr(float(s))))
        writer.writerow(("mean", repr(mean_d), repr(mean_s)))
    for case, d, s in rows:
        print(f"{case}: dice {d:.4f} surface_dice {s:.4f}")
    print(f"mean: dice {mean_d:.4f} surface_dice {mean_s:.4f}")
    print(f"report written to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skullsynth",
        description="MR-to-CT synthesis, super-resolution, and skull segmentation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable; wins over the file)",
        )

    p = sub.add_parser("phantom-gen", help="write synthetic MR/CT/mask triplets")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--shape", type=int, default=32, help="cubic edge length in voxels")
    p.add_argument("--defect-radius", type=float, default=0.0)
    p.add_argument("--noise-mr", type=float, default=0.0)
    p.add_argument("--noise-ct", type=float, default=0.0)
    p.set_defaults(func=cmd_phantom_gen)

    p = sub.add_parser("preprocess", help="floor CT, normalize to [0,1], optional resample")
    common(p)
    p.add_argument("--in-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--kind", choices=("mr", "ct"), required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train-cut", help="train the MR-to-CT translation networks")
    common(p)
    p.add_argument("--mr-dir", default=None)
    p.add_argument("--ct-dir", default=None)
    p.add_argument("--resume", default=None, help="checkpoint path, or 'latest'")
    p.set_defaults(func=cmd_train_cut)

    p = sub.add_parser("train-sr", help="train the super-resolution pyramid")
    common(p)
    p.add_argument("--hr-dir", default=None)
    p.add_argument("--resume", default=None, help="checkpoint path, or 'latest'")
    p.set_defaults(func=cmd_train_sr)

    p = sub.add_parser("infer", help="MR -> synthetic CT -> SR -> matching -> skull mask")
    common(p)
    p.add_argument("--mr", required=True)
    p.add_argument("--cut-ckpt", required=True)
    p.add_argument("--sr-ckpt", default=None)
    p.add_argument("--reference-ct", required=True)
    p.add_argument("--out", default=None, help="output directory (default: [run] output_dir)")
    p.add_argument("--skip-sr", action="store_true", help="omit the super-resolution stage")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="score predicted masks against ground truth")
    common(p)
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--out", default=None, help="report CSV path")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        cfg = config_mod.load_config(args.config, args.set)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else str(exc)
        print(f"error: no such file or directory: {missing}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:  # FormatError and DomainError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
