"""The benchmark's workloads: inputs made from a seed, the operation each one
times, and the checks on the program's outputs.

Every workload has ``setup(work, seed)``, which writes its inputs under
``work``; ``checks()``, run once after setup, returning (name, passed) pairs;
``run(i)``, which performs operation ``i`` and returns its wall seconds per
unit (``units_per_op`` units: optimizer steps, or one volume) with a result;
and ``verify(i, result)``, which returns (failures, figures) outside the timed
and traced region.  Operation ``i`` is the same work for the same ``i``, so a
traced pass can repeat an untraced one.  CLI stages run in-process through
``skullsynth.cli.main``; the mask stage calls the public functions the
``evaluate`` and ``infer`` commands use.
"""

import contextlib
import csv
import glob
import io
import math
import os
import shutil
import time

import numpy as np

from skullsynth import cli, config, cut, lapsrn, metrics, phantom, postprocess, seeding
from skullsynth import volume_io as vio
from skullsynth.chunks import ChunkGrid
from skullsynth.engine.optim import SGD, Adam, PlateauDecay

# Sized at the seed commit on 2 cores (numpy 2.4.6, OpenBLAS, float64).
CUT_EDGE = 32
CUT_SETTINGS = {
    # paper topology (2 downsamples, 3-layer D, 2-layer projector, default
    # NCE settings) at reduced width and depth
    "cut.base_filters": 8,
    "cut.n_residual_blocks": 2,
    "cut.d_base_filters": 8,
    "cut.batch_size": 1,
    "cut.max_steps": 2,  # one epoch of two draws: an epoch checkpoint and the final one
}
SR_EDGE = 32
SR_SETTINGS = {
    "lapsrn.filters": 16,
    "lapsrn.feat_layers": 4,
    "lapsrn.core_size": 8,
    "lapsrn.halo": 4,
    "lapsrn.grad_accum": 4,
    "lapsrn.max_steps": 4,  # 16 chunks / 4 per step: one epoch
    "lapsrn.aug_flip": "true",
    "lapsrn.aug_affine": "true",
    "lapsrn.aug_ghost": "true",
    "lapsrn.aug_blur": "true",
    "lapsrn.aug_gamma": "true",
}
INFER_EDGE = 40
INFER_CASES = 3
INFER_CORE, INFER_HALO = 24, 5
HALO_CHECK_EDGE = 32  # a crop with interior chunk seams, cheaper than a whole case
MASK_EDGE = 128
MASK_CASES = 3
MASK_NOISE_HU = 100.0
# phantom-gen's 1.6-2.6 voxel shells do not survive the radius-1 opening
# (Dice 0.0), so mask_eval draws its own phantoms with the shell scaled to
# the volume: 6 voxels at 128^3.
MASK_SHELL_PER_VOXEL = 6.0 / 128
DICE_FLOOR = 0.95
SURFACE_DICE_FLOOR = 0.95


class SetupError(RuntimeError):
    pass


def _cli(*argv):
    """One CLI command in-process, its progress lines swallowed; the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _must(rc, what):
    if rc != 0:
        raise SetupError(f"{what} exited with code {rc}")


def _settings(values, seed, run_dir):
    argv = []
    for key, value in values.items():
        argv += ["--set", f"{key}={value}"]
    return argv + ["--set", f"run.seed={seed}", "--set", f"run.output_dir={run_dir}"]


def _phantoms(work, seed, count, edge):
    """phantom-gen into ``work/raw``; returns that directory."""
    raw = os.path.join(work, "raw")
    _must(
        _cli("phantom-gen", "--out", raw, "--count", count, "--shape", edge,
             "--noise-mr", 0.02, "--noise-ct", 20.0, "--set", f"run.seed={seed}"),
        "phantom-gen",
    )
    return raw


def _raw_path(raw, case, kind):
    return os.path.join(raw, f"case{case:03d}_{kind}.raw")


def _preprocess(work, raw, kind, cases):
    """Preprocess the ``kind`` volumes of ``cases``; returns the output directory.

    phantom-gen writes MR, CT and mask into one directory and preprocess
    reads every volume of its input directory, so the chosen files are moved
    into a directory of their own first.
    """
    src = os.path.join(work, f"raw_{kind}")
    os.makedirs(src)
    for case in cases:
        for path in glob.glob(_raw_path(raw, case, kind) + "*"):  # volume and sidecar
            shutil.move(path, src)
    out = os.path.join(work, kind)
    _must(_cli("preprocess", "--in-dir", src, "--out-dir", out, "--kind", kind), "preprocess")
    return out


def _resolved(settings):
    """The CLI's config after the workload's --set overrides."""
    return config.load_config(overrides=[f"{k}={v}" for k, v in settings.items()])


def _chunk_edges(edge, core, halo):
    """Distinct chunk edges of a cubic volume cut with ``core`` and ``halo``."""
    grid = ChunkGrid.build((edge,) * 3, core, halo)
    return tuple(sorted({sl.stop - sl.start for o in grid.origins for sl in grid.chunk_slices(o)}))


def _log_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class _Training:
    """A training stage driven through its CLI command; one op is one call."""

    command = ""
    steps_key = ""
    log_name = ""
    loss_column = ""
    figure = ""
    settings = {}

    def __init__(self):
        self.first_loss = None  # kept across set-ups: they rebuild the same inputs

    def _data_args(self):
        raise NotImplementedError

    def checks(self):
        return []

    @property
    def units_per_op(self):
        return self.settings[self.steps_key]

    def run(self, i):
        run_dir = os.path.join(self.work, f"run{i}")
        t0 = time.perf_counter()
        rc = _cli(self.command, *self._data_args(), *_settings(self.settings, self.seed, run_dir))
        return (time.perf_counter() - t0) / self.units_per_op, (rc, run_dir)

    def verify(self, i, result):
        rc, run_dir = result
        if rc != 0:
            return [f"{self.command} exit code {rc}"], {}
        rows = _log_rows(os.path.join(run_dir, self.log_name))
        shutil.rmtree(run_dir)
        failures = []
        if len(rows) != self.units_per_op:
            failures.append(f"{len(rows)} log rows for {self.units_per_op} steps")
        loss = float(rows[-1][self.loss_column]) if rows else math.nan
        if not math.isfinite(loss):
            failures.append(f"final loss {loss}")
        # calls with the same inputs and seed must reproduce the loss bitwise
        if self.first_loss is None:
            self.first_loss = loss
        elif loss != self.first_loss:
            failures.append(f"final loss {loss!r} differs from the first call's {self.first_loss!r}")
        return failures, {self.figure: loss}


class TrainCut(_Training):
    """`train-cut` on unpaired 32^3 phantoms: MR of two cases, CT of two others."""

    command = "train-cut"
    steps_key = "cut.max_steps"
    log_name = "cut_log.csv"
    loss_column = "total"
    figure = "cut_loss_final"
    settings = CUT_SETTINGS
    paper_nets = "cut"
    unit = "optimizer step"
    # the networks and input edges the traced pass runs, for the shape-walk check
    net_specs = config.cut_settings(_resolved(CUT_SETTINGS))[:2]
    net_edges = (CUT_EDGE,)

    def setup(self, work, seed):
        self.work, self.seed = work, seed
        raw = _phantoms(work, seed, 4, CUT_EDGE)
        self.mr_dir = _preprocess(work, raw, "mr", (0, 1))
        self.ct_dir = _preprocess(work, raw, "ct", (2, 3))

    def _data_args(self):
        return ["--mr-dir", self.mr_dir, "--ct-dir", self.ct_dir]


class TrainSR(_Training):
    """`train-sr` on two 32^3 CT phantoms with every augmentation stage on."""

    command = "train-sr"
    steps_key = "lapsrn.max_steps"
    log_name = "sr_log.csv"
    loss_column = "charbonnier"
    figure = "sr_loss_final"
    settings = SR_SETTINGS
    paper_nets = "sr"
    unit = "optimizer step"
    net_specs = config.sr_settings(_resolved(SR_SETTINGS))[:1]
    net_edges = _chunk_edges(
        SR_EDGE // net_specs[0].scale, SR_SETTINGS["lapsrn.core_size"], SR_SETTINGS["lapsrn.halo"]
    )

    def setup(self, work, seed):
        self.work, self.seed = work, seed
        raw = _phantoms(work, seed, 2, SR_EDGE)
        self.hr_dir = _preprocess(work, raw, "ct", (0, 1))

    def _data_args(self):
        return ["--hr-dir", self.hr_dir]


class Infer:
    """One `infer` call per held-out 40^3 MR volume: checkpoint loads,
    translation, chunked super-resolution to 80^3, matching and masking.

    40^3 rather than 48^3: at 48^3 only three or four calls fit in a 20 s
    run and the run-to-run spread of their median reached the bound."""

    paper_nets = None
    unit = "volume"
    units_per_op = 1

    def setup(self, work, seed):
        self.work = work
        raw = _phantoms(work, seed, INFER_CASES, INFER_EDGE)
        mr_dir = _preprocess(work, raw, "mr", range(INFER_CASES))
        self.mr = sorted(glob.glob(os.path.join(mr_dir, "*.raw")))
        self.reference = [_raw_path(raw, c, "ct") for c in range(INFER_CASES)]
        self.cut_ckpt = os.path.join(work, "cut.npz")
        self.sr_ckpt = os.path.join(work, "sr.npz")

        # untrained networks of the training workloads' widths
        g_spec, d_spec, p_spec, nce, cut_cfg = config.cut_settings(
            _resolved({**CUT_SETTINGS, "run.seed": seed})
        )
        g, d, f, taps = cut.build_networks(g_spec, d_spec, p_spec, nce, seed)
        monitor = PlateauDecay(cut_cfg.lr, cut_cfg.plateau_patience_epochs, cut_cfg.max_epochs)
        cut.save_cut_checkpoint(
            self.cut_ckpt, g, d, f, Adam(d.parameters(), cut_cfg.lr),
            Adam(g.parameters() + f.parameters(), cut_cfg.lr), cut_cfg,
            g_spec, d_spec, p_spec, nce, taps, 0, 0, monitor.state(),
        )
        # `infer` takes core and halo from the SR checkpoint and ignores
        # --set lapsrn.*, so they are fixed here.
        spec, sr_cfg = config.sr_settings(_resolved({
            **SR_SETTINGS, "lapsrn.core_size": INFER_CORE, "lapsrn.halo": INFER_HALO,
            "run.seed": seed,
        }))
        net = lapsrn.build_sr_net(spec, seed)
        monitor = PlateauDecay(sr_cfg.lr, sr_cfg.plateau_patience_epochs, sr_cfg.max_epochs)
        lapsrn.save_sr_checkpoint(
            self.sr_ckpt, net, SGD(net.parameters(), sr_cfg.lr), sr_cfg, spec, 0, 0,
            monitor.state(),
        )

    def checks(self):
        """Chunked SR at the infer halo equals the whole-volume pass; with no
        halo it must not, or the check could not fail."""
        state = lapsrn.load_sr_checkpoint(self.sr_ckpt)
        lo = (INFER_EDGE - HALO_CHECK_EDGE) // 2
        crop = vio.load_volume(self.mr[0]).data[tuple([slice(lo, lo + HALO_CHECK_EDGE)] * 3)]
        vol = vio.Volume(crop, (1.0, 1.0, 1.0), vio.UNIT)
        whole = lapsrn.super_resolve(state, vol, core_size=HALO_CHECK_EDGE, halo=0).data
        chunked = lapsrn.super_resolve(state, vol, core_size=INFER_CORE, halo=INFER_HALO).data
        no_halo = lapsrn.super_resolve(state, vol, core_size=INFER_CORE, halo=0).data
        return [
            (f"chunked SR (core {INFER_CORE}, halo {INFER_HALO}) equals the whole-volume pass",
             bool(np.array_equal(chunked, whole))),
            ("chunked SR without halo differs from the whole-volume pass",
             not np.array_equal(no_halo, whole)),
        ]

    def run(self, i):
        case = i % INFER_CASES
        out = os.path.join(self.work, f"out{i}")
        t0 = time.perf_counter()
        rc = _cli(
            "infer", "--mr", self.mr[case], "--cut-ckpt", self.cut_ckpt,
            "--sr-ckpt", self.sr_ckpt, "--reference-ct", self.reference[(case + 1) % INFER_CASES],
            "--out", out,
        )
        return time.perf_counter() - t0, (rc, out)

    def verify(self, i, result):
        rc, out = result
        if rc != 0:
            return [f"infer exit code {rc}"], {}
        failures = []
        expected = {"syn_ct": INFER_EDGE, "sr_ct": 2 * INFER_EDGE, "mask": 2 * INFER_EDGE}
        data = {}
        for name, edge in expected.items():
            data[name] = vio.load_volume(os.path.join(out, name + ".raw")).data
            if data[name].shape != (edge,) * 3:
                failures.append(f"{name} shape {data[name].shape}")
        for name in ("syn_ct", "sr_ct"):
            if data[name].min() < 0.0 or data[name].max() > 1.0:
                failures.append(f"{name} outside [0, 1]")
        if not np.isin(data["mask"], (0.0, 1.0)).all():
            failures.append("mask is not binary")
        shutil.rmtree(out)
        return failures, {}


class MaskEval:
    """histogram_match, segment_from_matched (paper parameters), Dice and
    surface Dice on 128^3 noisy CT phantoms; no network runs."""

    paper_nets = None
    unit = "volume"
    units_per_op = 1

    def setup(self, work, seed):
        cfg = config.load_config()  # the defaults are the paper's parameters
        self.params = config.segmentation_settings(cfg)
        self.tolerance = cfg["metrics"]["sdsc_tolerance_mm"]
        shape = (MASK_EDGE,) * 3
        self.cases = []
        for c in range(MASK_CASES):
            draw = seeding.stream(seed, "perfbench.mask_eval", c)
            spec = phantom.PhantomSpec(
                shape=shape,
                semi_axes=tuple(float(f * MASK_EDGE) for f in draw.uniform(0.32, 0.42, 3)),
                thickness=MASK_SHELL_PER_VOXEL * MASK_EDGE,
                noise_sigma_ct=MASK_NOISE_HU,
                seed=int(draw.integers(2**31)),
            )
            _, ct, truth = phantom.make_phantom(spec)
            source = vio.minmax_normalize(vio.hounsfield_floor(ct, cfg["data"]["floor_hu"]))
            # The reference is a rescan of the same head (another noise draw).
            # Matching against a head of another shape maps part of the shell
            # below the bone threshold: Dice fell to 0.11 on such a pair.
            spec.seed += 1
            _, reference, _ = phantom.make_phantom(spec)
            self.cases.append((source, reference, truth))

    def checks(self):
        return []

    def run(self, i):
        source, reference, truth = self.cases[i % MASK_CASES]
        t0 = time.perf_counter()
        matched = postprocess.histogram_match(source, reference)
        mask = postprocess.segment_from_matched(matched, self.params)
        dice = metrics.dice(mask, truth)
        surface = metrics.surface_dice(mask, truth, self.tolerance, spacing=truth.spacing)
        return time.perf_counter() - t0, (mask, dice, surface)

    def verify(self, i, result):
        mask, dice, surface = result
        failures = []
        if not np.isin(mask.data, (0, 1)).all():
            failures.append("mask is not binary")
        if not dice >= DICE_FLOOR:
            failures.append(f"Dice {dice:.4f} below {DICE_FLOOR}")
        if not surface >= SURFACE_DICE_FLOOR:
            failures.append(f"surface Dice {surface:.4f} below {SURFACE_DICE_FLOOR}")
        return failures, {"mask_dice": dice, "mask_surface_dice": surface}


WORKLOADS = {
    "train_cut": TrainCut,
    "train_sr": TrainSR,
    "infer": Infer,
    "mask_eval": MaskEval,
}
