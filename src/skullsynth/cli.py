"""Command-line entry point tying the pipeline stages together.

Subcommands: phantom-gen, preprocess, train-cut, train-sr, infer, evaluate.
Every command reads the same INI config; repeated `--set section.key=value`
flags override file values.  A training run writes its resolved config, data
dirs included, to `<run>/config.ini`, so `--config <run>/config.ini --resume
latest` continues it.  `infer` runs super-resolution exactly when
`--sr-ckpt` is given, and writes its outputs only once every stage has run,
so a run that fails writes nothing.  Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error.  A missing input file or directory,
a directory given as a file, and a file given as a directory are exit 2,
reported by the code that opens them as "no such file or directory", "is a
directory" or "not a directory", before anything is written.
"""

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from skullsynth import config as config_mod
from skullsynth import cut, lapsrn, metrics, phantom, postprocess, seeding
from skullsynth import volume_io as vio
from skullsynth.config import ConfigError


def _volume_paths(directory, fmt):
    names = sorted(n for n in os.listdir(directory) if n.endswith(vio.EXTENSIONS[fmt]))
    return [os.path.join(directory, n) for n in names]


def _case_id(path):
    name = os.path.basename(path)
    ext = next(e for exts in vio.EXTENSIONS.values() for e in exts if name.endswith(e))
    return name[: -len(ext)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_phantom_gen(args, cfg):
    seed = config_mod.run_settings(cfg).seed
    fmt = config_mod.data_settings(cfg).format
    ext = vio.EXTENSIONS[fmt][0]
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    try:  # the flags are every case's: check them once, before writing anything
        flags = phantom.PhantomSpec(shape=(args.shape,) * 3, noise_sigma_mr=args.noise_mr,
                                    noise_sigma_ct=args.noise_ct, defect_radius=args.defect_radius)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        jitter = seeding.stream(seed, "phantom.case", i)
        semi = tuple(float(f * n) for f, n in zip(jitter.uniform(0.32, 0.42, 3), flags.shape))
        mr, ct, mask = phantom.make_phantom(dataclasses.replace(
            flags, semi_axes=semi, thickness=float(jitter.uniform(4.0, 5.0)), seed=seed + i))
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


def _train(args, cfg, train, keys, settings):
    """Call `train` with the volumes of each `[data]` dir in `keys` (its flag
    wins over the config), then `settings`; the dirs go into config.ini."""
    fmt = config_mod.data_settings(cfg).format
    dirs = [getattr(args, key) or cfg["data"][key] for key in keys]
    if not all(dirs):
        raise ConfigError(f"{args.command} needs [data] {' and '.join(keys)} "
                          f"(or {'/'.join('--' + k.replace('_', '-') for k in keys)})")
    datasets = [[vio.load_volume(p, fmt) for p in _volume_paths(d, fmt)] for d in dirs]
    for d, volumes in zip(dirs, datasets):
        if not volumes:
            raise ConfigError(f"empty dataset: {d} has 0")
    cfg["data"].update(zip(keys, dirs))
    final, rows = train(*datasets, *settings, run_dir=config_mod.run_settings(cfg).output_dir,
                        resume_from=args.resume, config_ini=config_mod.dump_config(cfg))
    print(f"trained {len(rows)} step(s); final checkpoint {final}")
    return 0


def cmd_train_cut(args, cfg):
    g_spec, d_spec, p_spec, nce, train_cfg = config_mod.cut_settings(cfg)
    return _train(args, cfg, cut.train_cut, ("mr_dir", "ct_dir"),
                  (train_cfg, g_spec, d_spec, p_spec, nce))


def cmd_train_sr(args, cfg):
    spec, train_cfg = config_mod.sr_settings(cfg)
    return _train(args, cfg, lapsrn.train_lapsrn, ("hr_dir",), (train_cfg, spec))


def cmd_infer(args, cfg):
    params = config_mod.segmentation_settings(cfg)
    fmt = config_mod.data_settings(cfg).format
    ext = vio.EXTENSIONS[fmt][0]
    out_dir = args.out or config_mod.run_settings(cfg).output_dir

    # every stage runs before anything is written
    mr = vio.load_volume(args.mr, fmt)
    reference = vio.load_volume(args.reference_ct, fmt)
    vio.require_domain(reference, vio.HU, "--reference-ct")
    outputs = {"syn_ct": cut.translate(args.cut_ckpt, mr)}
    src = outputs["syn_ct"]
    if args.sr_ckpt is not None:
        src = outputs["sr_ct"] = lapsrn.super_resolve(args.sr_ckpt, src)
    outputs["matched_ct"] = postprocess.histogram_match(src, reference)
    outputs["mask"] = postprocess.segment_from_matched(outputs["matched_ct"], params).to_volume()
    os.makedirs(out_dir, exist_ok=True)
    for name, v in outputs.items():
        vio.save_volume(v, os.path.join(out_dir, name + ext), fmt)
    print(f"wrote {', '.join(outputs)} under {out_dir}")
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
    out_path = args.out or os.path.join(config_mod.run_settings(cfg).output_dir, "evaluation.csv")
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
        try:
            d = metrics.dice(pred, gt)
            s = metrics.surface_dice(pred, gt, tol, spacing=gt_vol.spacing)
        except ValueError as exc:
            raise ValueError(f"case {case}: {exc}") from exc
        rows.append((case, d, s))
    mean_d = float(np.mean([r[1] for r in rows]))
    mean_s = float(np.mean([r[2] for r in rows]))
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
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
    p.add_argument("--sr-ckpt", default=None,
                   help="super-resolution checkpoint; SR runs exactly when it is given")
    p.add_argument("--reference-ct", required=True)
    p.add_argument("--out", default=None, help="output directory (default: [run] output_dir)")
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
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        # an input path that names nothing, or the wrong kind of thing
        why = {FileNotFoundError: "no such file or directory", IsADirectoryError: "is a directory",
               NotADirectoryError: "not a directory"}[type(exc)]
        print(f"error: {why}: {exc.filename}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:  # FormatError and DomainError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
