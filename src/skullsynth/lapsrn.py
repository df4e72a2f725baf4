"""Laplacian-pyramid super-resolution: a per-level residual branch predicting
high-frequency detail on top of a learned upsampling branch.

Each pyramid level doubles resolution.  The reconstruction branch starts as an
exact edge-clamped trilinear upsampler (identity convs, trilinear deconv,
border renormalization) so the residual branch only has to learn detail.
Training runs on overlapping cubic chunks of the configured core and halo,
with gradient accumulation.  Inference cuts the volume into full-width
z-slabs, as few as keep each slab's widest activation within SLAB_ELEMS
entries, or into cubes of the configured core where no slab fits or slabs
would compute more; its halo is the pyramid's receptive radius, and each
chunk's core then matches the unchunked forward pass bit for bit.
"""

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from skullsynth import checkpoint as ckpt_io
from skullsynth import seeding, training
from skullsynth.augment import AugmentationConfig, augment
from skullsynth.chunks import Chunk, ChunkGrid, assemble_chunks, chunk_volume
from skullsynth.engine import ops
from skullsynth.engine.layers import Conv3d, ConvTranspose3d, Module
from skullsynth.engine.optim import SGD
from skullsynth.engine.tensor import DTYPE, Tensor, as_tensor
from skullsynth.volume_io import UNIT, Volume, require_domain, resample

# Entries of the widest activation (the last level's features) that one
# inference slab may hold: 24 MiB in float32.
SLAB_ELEMS = 6 << 20


@dataclass
class PyramidSpec:
    levels: int = 1  # each level doubles resolution
    filters: int = 64
    feat_layers: int = 8  # every layer of the residual branch, head included
    recon_layers: int = 2  # every layer of the reconstruction branch

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.feat_layers < 3:
            raise ValueError("feat_layers must be >= 3 (conv, deconv, head)")
        if self.recon_layers < 2:
            raise ValueError("recon_layers must be >= 2 (conv, deconv)")
        if self.filters < 1:
            raise ValueError("filters must be >= 1")

    @property
    def scale(self):
        return 2**self.levels

    @property
    def receptive_radius(self):
        """Smallest chunk halo, in input voxels, at which chunked inference
        equals the whole-volume pass.

        At a chunk face the zero padding stands in for the missing
        neighbours, so wrong values reach inwards.  Per level, in that
        level's input voxels: each 3^3 conv adds one voxel of reach, the
        k4/s2/p1 transposed conv doubles it and adds one, and the head conv
        at the doubled resolution adds one more.
        """
        reach = 0
        for _ in range(self.levels):
            residual = 2 * (reach + self.feat_layers - 2) + 1 + 1
            upsample = 2 * (reach + self.recon_layers - 1) + 1
            reach = max(residual, upsample)
        return -(-reach // self.scale)


@dataclass
class SRTrainConfig:
    lr: float = 1e-5
    momentum: float = 0.9
    weight_decay: float = 1e-4
    eps_charbonnier: float = 1e-3
    grad_accum: int = 16  # chunks per optimizer step
    plateau_patience_epochs: int = 5
    max_epochs: int = 100
    max_steps: int = 0  # 0 = no cap
    # chunk core edge, in low-res voxels: training's, and inference's cube
    # where no full-width slab fits or slabs would compute more
    core_size: int = 64
    # training chunk overlap, in low-res voxels; inference overlaps by the
    # pyramid's receptive radius instead
    halo: int = 8
    checkpoint_every: int = 1  # epochs
    seed: int = 0
    augment: AugmentationConfig = field(default_factory=AugmentationConfig)

    def __post_init__(self):
        if not self.eps_charbonnier > 0:
            raise ValueError("eps_charbonnier must be positive")
        if not (self.momentum >= 0 and self.weight_decay >= 0):
            raise ValueError("momentum and weight_decay must be >= 0")
        training.check_config(self)
        if self.grad_accum < 1:
            raise ValueError("grad_accum must be >= 1")
        if self.core_size < 1 or self.halo < 0:
            raise ValueError("need core_size >= 1 and halo >= 0")


class _LevelNet(Module):
    """One pyramid level: residual detail branch plus upsampling branch."""

    def __init__(self, spec: PyramidSpec, rng):
        f = spec.filters
        convs = [Conv3d(1, f, 3, rng=rng)]
        for _ in range(spec.feat_layers - 3):
            convs.append(Conv3d(f, f, 3, rng=rng))
        self.feat_convs = convs
        self.feat_up = ConvTranspose3d(f, f, rng=rng, init="trilinear")
        self.feat_head = Conv3d(f, 1, 3, rng=rng)
        self.feat_head.weight.data[:] = 0.0  # the untrained net is its upsampling branch
        recon = []
        for _ in range(spec.recon_layers - 1):
            conv = Conv3d(1, 1, 3, rng=rng)
            conv.weight.data[:] = 0.0
            conv.weight.data[0, 0, 1, 1, 1] = 1.0  # start as the identity map
            recon.append(conv)
        self.recon_convs = recon
        self.recon_up = ConvTranspose3d(1, 1, rng=rng, init="trilinear")

    def residual(self, x):
        h = x
        for conv in self.feat_convs:
            h = ops.leaky_relu(conv(h), 0.2, inplace=True)
        h = ops.leaky_relu(self.feat_up(h), 0.2, inplace=True)
        return self.feat_head(h)

    def upsample(self, x):
        h = x
        for conv in self.recon_convs:
            h = ops.leaky_relu(conv(h), 0.2, inplace=True)
        return self.recon_up(h) * _inv_border_weights(x.data.shape[1:])


def _inv_border_weights(shape):
    """1 / the trilinear upsampler's response to all-ones input of `shape`.

    Its 1-D taps are (1/4, 3/4, 3/4, 1/4), so each output voxel of the
    stride-2 transposed conv sums two taps to 1, except an axis's two end
    voxels, which get one, 3/4.  The response is the product of the axes'
    weights, exact in float32; dividing by it restores the edge-clamped
    interpolation at the border.  Interior entries are exactly 1.0, so
    chunked inference still matches the whole-volume pass.
    """
    axes = [np.ones(2 * n, DTYPE) for n in shape]
    for w in axes:
        w[[0, -1]] = 0.75
    wz, wy, wx = np.ix_(*axes)
    return Tensor(1.0 / (wz * wy * wx)[None])


class SRNet(Module):
    """Stack of pyramid levels; forward returns one prediction per level."""

    def __init__(self, spec: PyramidSpec, rng):
        self.spec = spec
        self.levels = [_LevelNet(spec, rng) for _ in range(spec.levels)]

    def __call__(self, x):
        outs = []
        img = as_tensor(x)
        for level in self.levels:
            img = level.upsample(img) + level.residual(img)
            outs.append(img)
        return outs


def charbonnier_loss(preds, targets, eps: float = 1e-3):
    """Sum over pyramid levels of the voxel-mean sqrt((pred-target)^2 + eps^2).

    A perfect prediction therefore floors at levels*eps rather than zero.
    """
    if len(preds) != len(targets):
        raise ValueError(f"{len(preds)} predictions vs {len(targets)} targets")
    total = None
    for pred, target in zip(preds, targets):
        t = target if isinstance(target, Tensor) else Tensor(target)
        if pred.data.shape != t.data.shape:
            raise ValueError(f"shape mismatch {pred.data.shape} vs {t.data.shape}")
        d = pred - t
        level = ((d * d + eps * eps) ** 0.5).mean()
        total = level if total is None else total + level
    return total


def make_lr_hr_pairs(hr: Volume, levels: int = 1):
    """Self-supervision pairs: the low-res input plus one target per level.

    The input is the volume downsampled by 2^levels; targets climb back up
    the pyramid, the last being the original volume.
    """
    shape = hr.data.shape
    factor = 2**levels
    if any(n % factor for n in shape):
        raise ValueError(f"volume shape {shape} not divisible by scale {factor}")
    lr = resample(hr, tuple(n // factor for n in shape))
    targets = []
    for s in range(1, levels):
        targets.append(resample(hr, tuple(n // 2 ** (levels - s) for n in shape)))
    targets.append(hr)
    return lr, targets


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("step", "epoch", "charbonnier", "lr")


def build_sr_net(spec: PyramidSpec, seed: int) -> SRNet:
    return SRNet(spec, seeding.stream(seed, "sr.init"))


def _train_config(augment, **stored):
    """The stored `SRTrainConfig`.  Files written before the augmentation
    ranges became constants store None for "all off", or the switches next to
    the ranges."""
    switches = {f.name: (augment or {}).get(f.name, False) for f in fields(AugmentationConfig)}
    return SRTrainConfig(augment=AugmentationConfig(**switches), **stored)


# the metadata key and type of each setting, in `_build`'s argument order
_SETTINGS = {"cfg": ("train_config", _train_config), "spec": ("pyramid_spec", PyramidSpec)}


def _build(cfg, spec):
    net = build_sr_net(spec, cfg.seed)
    opt = SGD(net.parameters(), cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    return {"net": net}, {"opt": opt}, {"cfg": cfg, "spec": spec}


def save_sr_checkpoint(path, net, opt, cfg, spec, step, epoch, monitor):
    ckpt_io.save_run(path, "lapsrn", _SETTINGS, dict(
        net=net, opt=opt, cfg=cfg, spec=spec, step=step, epoch=epoch, monitor=monitor))


def load_sr_checkpoint(path, cfg=None):
    return ckpt_io.load_run(path, "lapsrn", _SETTINGS, _build, cfg=cfg)


def _epoch_microbatches(hr_set, cfg, spec, epoch):
    """All (lr chunk, per-level target chunks) pairs for one epoch, shuffled.

    Augmentation is re-drawn per epoch and volume, so the chunk census can
    change between epochs only through it (shapes are preserved)."""
    micros = []
    for v_idx, vol in enumerate(hr_set):
        aug_seed = int(seeding.stream(cfg.seed, "sr.augment", epoch, v_idx).integers(2**63))
        hr = augment(vol, cfg.augment, aug_seed)
        lr, targets = make_lr_hr_pairs(hr, spec.levels)
        grid = ChunkGrid.build(lr.data.shape, cfg.core_size, cfg.halo)
        lr_chunks = chunk_volume(lr, grid)
        target_chunks = [
            chunk_volume(t, grid.scaled(2**s)) for s, t in enumerate(targets, start=1)
        ]
        for i, c in enumerate(lr_chunks):
            micros.append((c.data, [tc[i].data[None] for tc in target_chunks]))
    order = seeding.stream(cfg.seed, "sr.order", epoch).permutation(len(micros))
    return [micros[i] for i in order]


def _check_volume(settings, v):
    scale = settings["spec"].scale
    if any(n % scale for n in v.data.shape):
        raise ValueError(f"volume shape {v.data.shape} not divisible by scale {scale}")


_TRAINER = training.Trainer("sr", "lapsrn", _SETTINGS, _build, load_sr_checkpoint, CSV_COLUMNS,
                            _check_volume)


def train_lapsrn(hr_set, cfg: SRTrainConfig, spec: PyramidSpec = None,
                 run_dir=".", resume_from=None, config_ini=None):
    """Chunked SGD training against self-downsampled volumes.

    Each optimizer step averages the loss of `grad_accum` consecutive chunks
    (fewer in an epoch's trailing group).  Emits one CSV row per step and an
    epoch-stamped checkpoint.  Returns (final checkpoint path, rows) where
    each row is (step, epoch, charbonnier, lr).
    """
    state = training.start(_TRAINER, run_dir, cfg, (spec,), (hr_set,), resume_from, config_ini)
    net, spec = state["net"], state["spec"]

    def draw(lr_chunk, target_chunks):
        loss = charbonnier_loss(net(lr_chunk), target_chunks, cfg.eps_charbonnier)
        return (loss,), (loss,)

    def epoch_steps(epoch):
        micros = _epoch_microbatches(hr_set, cfg, spec, epoch)
        for start in range(0, len(micros), cfg.grad_accum):
            draws = [functools.partial(draw, *m) for m in micros[start : start + cfg.grad_accum]]
            yield lambda step, draws=draws: training.optimizer_step(state, draws)

    return training.fit(_TRAINER, cfg, run_dir, state, epoch_steps)


def _inference_grid(shape, spec, cube_core, halo):
    """The fewest equal full-width z-slabs whose widest activation,
    ``filters * scale^3`` entries per plane of its chunk, fits SLAB_ELEMS,
    when they span no more input voxels than cubes of ``cube_core``; those
    cubes otherwise, and where no slab fits.  A grid spans the product over
    its axes of the summed chunk extents; more slabs never span fewer voxels,
    so the fewest that fit decide."""

    def extents(n, core):  # of each chunk along an axis of n voxels, halo included
        return [min(o + core + halo, n) - max(o - halo, 0) for o in range(0, n, core)]

    d, h, w = shape
    per_plane = spec.filters * spec.scale**3 * h * w
    for core in (-(-d // n) for n in range(1, d + 1)):  # planes per slab, fewest slabs first
        z = extents(d, core)
        if per_plane * max(z) <= SLAB_ELEMS:
            cubes = math.prod(sum(extents(e, cube_core)) for e in shape)
            if sum(z) * h * w <= cubes:
                return ChunkGrid.build(shape, (core, h, w), halo)
            break
    return ChunkGrid.build(shape, cube_core, halo)


def super_resolve(checkpoint, vol: Volume, core_size=None, halo=None) -> Volume:
    """Chunked inference: upsample a UNIT volume by the net's pyramid scale;
    accepts a checkpoint path or a loaded state.

    Without ``core_size`` the volume is cut into full-width z-slabs, as few
    as keep each slab's widest activation (the last level's ``filters``
    channels at full scale, halo included) within SLAB_ELEMS entries.  Where
    no slab fits (one plane and its halo already exceed SLAB_ELEMS, as at the
    paper's width on planes of 29x29 or more), or the slabs would span more
    voxels than cubes of the checkpoint's stored core, those cubes are cut
    instead, so the default call never computes more than they do.  An
    explicit ``core_size`` cuts cubes of that edge.  The checkpoint's stored
    halo is training's and plays no part.

    Without ``halo`` the chunks overlap by the pyramid's receptive radius, the
    smallest halo that gives the whole-volume bits.  An explicit ``halo`` is
    an unchecked override.
    """
    state = load_sr_checkpoint(checkpoint) if not isinstance(checkpoint, dict) else checkpoint
    net, cfg, spec = state["net"], state["cfg"], state["spec"]
    require_domain(vol, UNIT, "super_resolve")
    if halo is None:
        halo = spec.receptive_radius
    scale = spec.scale
    if core_size is None:
        grid = _inference_grid(vol.data.shape, spec, cfg.core_size, halo)
    else:
        grid = ChunkGrid.build(vol.data.shape, core_size, halo)
    with net.frozen():
        out_chunks = [Chunk(net(c.data)[-1].data[0]) for c in chunk_volume(vol, grid)]
    data = assemble_chunks(out_chunks, grid.scaled(scale))
    np.clip(data, 0.0, 1.0, out=data)
    spacing = tuple(s / scale for s in vol.spacing)
    return Volume(data, spacing, UNIT)


def trilinear_baseline(vol: Volume, levels: int = 1) -> Volume:
    """The no-learning reference: plain trilinear upsampling by 2^levels."""
    return resample(vol, tuple(n * 2**levels for n in vol.data.shape))
