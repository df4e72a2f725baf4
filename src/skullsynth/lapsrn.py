"""Laplacian-pyramid super-resolution: a per-level residual branch predicting
high-frequency detail on top of a learned upsampling branch.

Each pyramid level doubles resolution.  The reconstruction branch starts as an
exact edge-clamped trilinear upsampler (identity convs, trilinear deconv,
border renormalization) so the residual branch only has to learn detail.
Training runs on overlapping chunks with gradient accumulation; inference
re-chunks the volume and keeps each chunk's core, which matches the unchunked
forward pass wherever the halo covers the receptive field.
"""

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from skullsynth import checkpoint as ckpt_io
from skullsynth import seeding, training
from skullsynth.augment import AugmentationConfig, augment
from skullsynth.chunks import Chunk, ChunkGrid, assemble_chunks, chunk_volume
from skullsynth.engine import kernels, ops
from skullsynth.engine.layers import Conv3d, ConvTranspose3d, Module, trilinear_filter
from skullsynth.engine.optim import SGD
from skullsynth.engine.tensor import DTYPE, Tensor, as_tensor
from skullsynth.volume_io import UNIT, Volume, resample


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

    def check_halo(self, halo):
        if halo < self.receptive_radius:
            raise ValueError(
                f"halo {halo} is below this pyramid's receptive radius {self.receptive_radius}: "
                "chunked inference would differ from the whole-volume pass"
            )


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
    core_size: int = 64  # chunk core edge, in low-res voxels
    halo: int = 8  # chunk overlap, in low-res voxels
    checkpoint_every: int = 1  # epochs
    seed: int = 0
    augment: AugmentationConfig = field(default_factory=AugmentationConfig)

    def __post_init__(self):
        if self.lr <= 0 or self.eps_charbonnier <= 0:
            raise ValueError("lr and eps_charbonnier must be positive")
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
            h = ops.leaky_relu(conv(h), 0.2)
        h = ops.leaky_relu(self.feat_up(h), 0.2)
        return self.feat_head(h)

    def upsample(self, x, inv_norm):
        h = x
        for conv in self.recon_convs:
            h = ops.leaky_relu(conv(h), 0.2)
        return self.recon_up(h) * inv_norm


class SRNet(Module):
    """Stack of pyramid levels; forward returns one prediction per level."""

    def __init__(self, spec: PyramidSpec, rng):
        self.spec = spec
        self.levels = [_LevelNet(spec, rng) for _ in range(spec.levels)]
        self._inv_norm_cache = {}

    def _inv_norm(self, shape):
        # A transposed conv under-weights border voxels where the kernel
        # hangs off the grid; dividing by its response to all-ones restores
        # the edge-clamped interpolation there.  Interior entries are
        # exactly 1.0 (the filter taps sum to one), so interior voxels keep
        # their bits and chunked inference still matches the global pass.
        if shape not in self._inv_norm_cache:
            ones = np.ones((1,) + tuple(shape), dtype=DTYPE)
            w = trilinear_filter()[None, None].astype(DTYPE)
            norm = kernels.tconv3d_forward(ones, w, 2, 1)
            self._inv_norm_cache[shape] = Tensor(1.0 / norm)
        return self._inv_norm_cache[shape]

    def __call__(self, x):
        outs = []
        img = as_tensor(x)
        for level in self.levels:
            up = level.upsample(img, self._inv_norm(img.data.shape[1:]))
            img = up + level.residual(img)
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
    ckpt_io.save_run(path, "lapsrn", _SETTINGS, {"cfg": cfg, "spec": spec}, step, epoch, monitor,
                     {"net": net}, {"opt": opt})


def load_sr_checkpoint(path, cfg=None):
    return ckpt_io.load_run(path, "lapsrn", _SETTINGS, _build, cfg=cfg)


def _epoch_microbatches(hr_set, cfg, spec, epoch):
    """All (lr chunk, per-level target chunks) pairs for one epoch, shuffled.

    Augmentation is re-drawn per epoch and volume, so the chunk census can
    change between epochs only through it (shapes are preserved)."""
    micros = []
    for v_idx, vol in enumerate(hr_set):
        hr = vol
        if cfg.augment.enabled():
            aug_seed = int(
                seeding.stream(cfg.seed, "sr.augment", epoch, v_idx).integers(2**63)
            )
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


def train_lapsrn(hr_set, cfg: SRTrainConfig, spec: PyramidSpec = None,
                 run_dir=".", resume_from=None, config_ini=None):
    """Chunked SGD training against self-downsampled volumes.

    Each optimizer step averages the loss of `grad_accum` consecutive chunks
    (fewer in an epoch's trailing group).  Emits one CSV row per step and an
    epoch-stamped checkpoint.  Returns (final checkpoint path, rows) where
    each row is (step, epoch, charbonnier, lr).
    """
    if not hr_set:
        raise ValueError("need at least one training volume")
    for v in hr_set:
        if v.domain != UNIT:
            raise ValueError(f"training volumes must be UNIT domain, got {v.domain}")

    def check(settings):
        scale = settings["spec"].scale
        for v in hr_set:
            if any(n % scale for n in v.data.shape):
                raise ValueError(f"volume shape {v.data.shape} not divisible by scale {scale}")

    state = training.start(run_dir, "sr", _SETTINGS, _build, load_sr_checkpoint, cfg, (spec,),
                           resume_from, config_ini, check)
    net, opt, spec = state["net"], state["opt"], state["spec"]

    def run_group(group, step, epoch, lr):
        inv = 1.0 / len(group)
        acc = 0.0
        for lr_chunk, target_chunks in group:
            loss = charbonnier_loss(net(lr_chunk), target_chunks, cfg.eps_charbonnier)
            (loss * inv).backward()
            acc += loss.item()
        opt.step()
        opt.zero_grad()
        mean_loss = float(acc * inv)
        return (mean_loss,), mean_loss

    def epoch_steps(epoch):
        micros = _epoch_microbatches(hr_set, cfg, spec, epoch)
        for start in range(0, len(micros), cfg.grad_accum):
            yield functools.partial(run_group, micros[start : start + cfg.grad_accum])

    def save(path, step, epoch, monitor):
        save_sr_checkpoint(path, net, opt, cfg, spec, step, epoch, monitor)

    return training.fit(cfg, run_dir, "sr", CSV_COLUMNS, (opt,), epoch_steps, save,
                        state if resume_from else None)


def super_resolve(checkpoint, vol: Volume, core_size=None, halo=None) -> Volume:
    """Chunked inference: upsample a UNIT volume by the net's pyramid scale.

    Without ``halo`` the checkpoint's halo is used, and refused when it is
    below the pyramid's receptive radius; an explicit ``halo`` is not checked.
    """
    state = load_sr_checkpoint(checkpoint) if not isinstance(checkpoint, dict) else checkpoint
    net, cfg, spec = state["net"], state["cfg"], state["spec"]
    if vol.domain != UNIT:
        raise ValueError(f"super-resolution input must be UNIT domain, got {vol.domain}")
    core_size = core_size or cfg.core_size
    if halo is None:
        halo = cfg.halo
        spec.check_halo(halo)
    scale = spec.scale
    grid = ChunkGrid.build(vol.data.shape, core_size, halo)
    out_grid = grid.scaled(scale)
    out_chunks = [Chunk(net(c.data)[-1].data[0], origin)
                  for c, origin in zip(chunk_volume(vol, grid), out_grid.origins)]
    data = assemble_chunks(out_chunks, out_grid)
    np.clip(data, 0.0, 1.0, out=data)
    spacing = tuple(s / scale for s in vol.spacing)
    return Volume(data, spacing, UNIT)


def trilinear_baseline(vol: Volume, levels: int = 1) -> Volume:
    """The no-learning reference: plain trilinear upsampling by 2^levels."""
    return resample(vol, tuple(n * 2**levels for n in vol.data.shape))
