"""Contrastive unpaired MR-to-CT translation: networks, losses, training loop.

Three networks: a ResNet-style encoder-decoder generator with instance norm
and a tanh decision layer, a PatchGAN discriminator emitting a grid of patch
logits, and a per-tap-layer MLP feature projector.  The generator's encoder
exposes tap features (stem, downsampling convs, then residual blocks) from
which patches are sampled at shared spatial locations across the source and
translated stacks.

Losses: log GAN loss with the non-saturating generator form (least-squares
variant behind ``gan_mode``), and the patchwise contrastive loss in its
synthesis and identity roles.  Embeddings are unit-normalized before the dot
product so similarities stay in [-1, 1].
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from skullsynth import checkpoint as ckpt_io
from skullsynth import seeding, training
from skullsynth.engine import ops
from skullsynth.engine.layers import Conv3d, ConvTranspose3d, InstanceNorm3d, Linear, Module
from skullsynth.engine.optim import Adam
from skullsynth.engine.tensor import Tensor, as_tensor
from skullsynth.volume_io import UNIT, Volume, require_domain


@dataclass
class GeneratorSpec:
    base_filters: int = 64
    n_downsample: int = 2
    n_residual_blocks: int = 9

    def __post_init__(self):
        if self.base_filters < 1:
            raise ValueError("base_filters must be >= 1")
        if self.n_residual_blocks < 1 or self.n_downsample < 1:
            raise ValueError("need n_residual_blocks >= 1 and n_downsample >= 1")


@dataclass
class DiscriminatorSpec:
    n_layers: int = 3
    base_filters: int = 64
    KERNEL, PAD = 4, 1  # of every conv; not fields

    def __post_init__(self):
        if self.n_layers < 1 or self.base_filters < 1:
            raise ValueError("need n_layers >= 1 and base_filters >= 1")

    def strides(self):
        """The stride of each of D's convs, in order."""
        return (2,) * self.n_layers + (1, 1)

    def min_edge(self):
        """The smallest input edge that D's convs leave at least one logit along."""
        edge = 1
        for s in reversed(self.strides()):
            # the smallest n with (n + 2 * PAD - KERNEL) // s + 1 >= edge
            edge = s * (edge - 1) + self.KERNEL - 2 * self.PAD
        return edge


@dataclass
class ProjectorSpec:
    n_layers: int = 2
    embed_dim: int = 256

    def __post_init__(self):
        if self.n_layers < 1 or self.embed_dim < 1:
            raise ValueError("need n_layers >= 1 and embed_dim >= 1")


@dataclass
class NCEConfig:
    num_patches: int = 64
    tap_layers: Optional[tuple] = None  # None = all eligible taps, capped at 9
    temperature: float = 1.0

    def __post_init__(self):
        if self.num_patches < 2:
            raise ValueError("num_patches must be >= 2 (at least one negative)")
        if not self.temperature > 0:
            raise ValueError("temperature must be > 0")
        if self.tap_layers is not None:
            self.tap_layers = tuple(int(t) for t in self.tap_layers)
            if any(t < 0 for t in self.tap_layers):
                raise ValueError(f"tap_layers must be >= 0, got {self.tap_layers}")


@dataclass
class CutTrainConfig:
    lambda_gan: float = 1.0
    lambda_syn: float = 1.0
    lambda_idt: float = 1.0
    lr: float = 2e-4
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    batch_size: int = 8  # gradient-accumulation draws per optimizer step
    gan_mode: str = "log"  # or "lsgan"
    plateau_patience_epochs: int = 50
    max_epochs: int = 100
    max_steps: int = 0  # 0 = no cap
    checkpoint_every: int = 1  # epochs
    seed: int = 0

    def __post_init__(self):
        if not all(w >= 0 for w in (self.lambda_gan, self.lambda_syn, self.lambda_idt)):
            raise ValueError("loss weights must be >= 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam_beta1 and adam_beta2 must be in [0, 1)")
        training.check_config(self)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.gan_mode not in ("log", "lsgan"):
            raise ValueError(f"unknown gan_mode {self.gan_mode!r}")


@dataclass
class FeatureStack:
    tap_ids: tuple
    locations: list  # per tap layer, flat spatial indices (S,)
    embeddings: list  # per tap layer, Tensor (S, E), rows unit-norm


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------


class ResBlock(Module):
    def __init__(self, c, rng):
        self.conv1 = Conv3d(c, c, 3, rng=rng)
        self.norm1 = InstanceNorm3d(c)
        self.conv2 = Conv3d(c, c, 3, rng=rng)
        self.norm2 = InstanceNorm3d(c)

    def __call__(self, x):
        h = ops.relu(self.norm1(self.conv1(x)), inplace=True)
        return x + self.norm2(self.conv2(h))


class Generator(Module):
    """Encoder-decoder with residual blocks between down- and upsampling stages."""

    def __init__(self, spec: GeneratorSpec, rng):
        self.spec = spec
        f = spec.base_filters
        self.stem = Conv3d(1, f, 3, rng=rng)
        self.stem_norm = InstanceNorm3d(f)
        downs, down_norms = [], []
        c = f
        for _ in range(spec.n_downsample):
            downs.append(Conv3d(c, 2 * c, 3, stride=2, rng=rng))
            down_norms.append(InstanceNorm3d(2 * c))
            c *= 2
        self.downs = downs
        self.down_norms = down_norms
        self.blocks = [ResBlock(c, rng) for _ in range(spec.n_residual_blocks)]
        ups, up_norms = [], []
        for _ in range(spec.n_downsample):
            ups.append(ConvTranspose3d(c, c // 2, rng=rng))
            up_norms.append(InstanceNorm3d(c // 2))
            c //= 2
        self.ups = ups
        self.up_norms = up_norms
        self.head = Conv3d(c, 1, 3, rng=rng)

    def _stages(self):
        """The encoder in tap order, as (output channels, stage): the stem and
        each downsampling conv, each with its norm and ReLU, then each residual block."""
        convs = [(self.stem, self.stem_norm), *zip(self.downs, self.down_norms)]
        stages = [(conv.weight.data.shape[0],
                   lambda h, c=conv, n=norm: ops.relu(n(c(h)), inplace=True))
                  for conv, norm in convs]
        return stages + [(block.conv2.weight.data.shape[0], block) for block in self.blocks]

    def eligible_taps(self):
        """Channel count per encoder tap: stem, each downsample, each residual block."""
        return [c for c, _ in self._stages()]

    def default_tap_ids(self):
        return tuple(range(min(9, len(self.eligible_taps()))))

    def _encode(self, x, tap_ids, stop=None):
        """Run the encoder's first `stop` stages (all for None); return the
        last one's output and the features at `tap_ids`."""
        factor = 2**self.spec.n_downsample
        if any(n % factor for n in x.data.shape[1:]):
            raise ValueError(
                f"input shape {x.data.shape[1:]} not divisible by downsampling factor {factor}"
            )
        stages = self._stages()
        bad = set(tap_ids) - set(range(len(stages)))
        if bad:
            raise ValueError(f"invalid tap ids {sorted(bad)}")
        feats = {}
        h = x
        for tap, (_, stage) in enumerate(stages[:stop]):
            h = stage(h)
            if tap in tap_ids:
                feats[tap] = h
        return h, [feats[i] for i in tap_ids]

    def encode(self, x, tap_ids):
        """Encoder-only pass returning the requested tap features; runs no
        stage past the last of them."""
        return self._encode(x, tap_ids, max(tap_ids, default=-1) + 1)[1]

    def __call__(self, x, tap_ids=()):
        """Full pass; returns (output in [0,1], list of tap features)."""
        h, feats = self._encode(x, tap_ids)
        for tconv, norm in zip(self.ups, self.up_norms):
            h = ops.relu(norm(tconv(h)), inplace=True)
        out = (ops.tanh(self.head(h)) + 1.0) * 0.5
        return out, feats


class Discriminator(Module):
    """PatchGAN: strided conv stack ending in a 3-D grid of patch logits."""

    def __init__(self, spec: DiscriminatorSpec, rng):
        self.spec = spec
        f = spec.base_filters
        chans = [1] + [min(f * 2**i, f * 8) for i in range(spec.n_layers)]
        chans += [min(chans[-1] * 2, f * 8), 1]
        convs = [Conv3d(c, nxt, spec.KERNEL, stride=s, pad=spec.PAD, rng=rng)
                 for c, nxt, s in zip(chans, chans[1:], spec.strides())]
        # the first conv is not normalized, the final one gives the logits
        self.convs = convs[:-1]
        self.norms = [InstanceNorm3d(c) for c in chans[2:-1]]
        self.final = convs[-1]

    def __call__(self, x):
        h = ops.leaky_relu(self.convs[0](x), 0.2, inplace=True)
        for conv, norm in zip(self.convs[1:], self.norms):
            h = ops.leaky_relu(norm(conv(h)), 0.2, inplace=True)
        return self.final(h)


class FeatureProjector(Module):
    """Per-tap-layer MLP mapping gathered patch features to the shared embedding space."""

    def __init__(self, tap_channels, spec: ProjectorSpec, rng):
        self.spec = spec
        mlps = []  # spec.n_layers consecutive layers per tap
        for c in tap_channels:
            cin = c
            for _ in range(spec.n_layers):
                mlps.append(Linear(cin, spec.embed_dim, rng=rng))
                cin = spec.embed_dim
        self.mlps = mlps

    def project(self, patches, tap_index):
        """(S, C) patch features -> (S, E) unit-norm embeddings."""
        n = self.spec.n_layers
        h = patches
        for i, lin in enumerate(self.mlps[tap_index * n : (tap_index + 1) * n]):
            if i:
                h = ops.relu(h)
            h = lin(h)
        return ops.l2_normalize_rows(h)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def sample_locations(feature_shapes, num_patches, rng):
    """Uniform distinct flat sites per tap layer; layers smaller than num_patches use all sites."""
    locations = []
    for shape in feature_shapes:
        n_sites = int(np.prod(shape))
        k = min(num_patches, n_sites)
        locs = np.sort(rng.choice(n_sites, size=k, replace=False))
        locations.append(locs)
    return locations


def project_features(f, feats, tap_ids, cfg, rng=None, locations=None) -> FeatureStack:
    spatial = [t.data.shape[1:] for t in feats]
    if locations is None:
        if rng is None:
            raise ValueError("need an RNG to sample locations")
        locations = sample_locations(spatial, cfg.num_patches, rng)
    else:
        for locs, shape in zip(locations, spatial):
            if locs.max(initial=0) >= int(np.prod(shape)):
                raise ValueError(f"locations exceed layer grid {shape}")
    embeddings = []
    for tap_index, (feat, locs) in enumerate(zip(feats, locations)):
        gathered = ops.gather_sites(feat, locs)
        embeddings.append(f.project(gathered, tap_index))
    return FeatureStack(tuple(tap_ids), list(locations), embeddings)


def nce_from_stacks(translated: FeatureStack, source: FeatureStack, temperature: float):
    """Mean contrastive loss over layers and patches; positives on the diagonal."""
    layer_losses = []
    total = None
    for z_tr, z_src, locs_t, locs_s in zip(
        translated.embeddings, source.embeddings, translated.locations, source.locations
    ):
        if not np.array_equal(locs_t, locs_s):
            raise ValueError("translated and source stacks must share sampled locations")
        s = z_tr.data.shape[0]
        if s < 2:
            raise ValueError("need at least 2 sampled locations per tap layer")
        logits = (z_tr @ transpose_rows(z_src)) * (1.0 / temperature)
        loss_l = ops.cross_entropy_rows(logits, np.arange(s))
        layer_losses.append(loss_l.item())
        total = loss_l if total is None else total + loss_l
    return total * (1.0 / len(layer_losses)), layer_losses


def transpose_rows(t: Tensor) -> Tensor:
    out_data = t.data.T

    def backward(g):
        Tensor._accum(t, g.T)

    return Tensor._make(out_data, (t,), backward)


def gan_losses(d, real_ct, syn_ct, mode: str = "log"):
    """(d_loss, g_adv_loss) for one real/synthetic pair.

    d_loss treats the synthetic volume as a constant; g_adv_loss propagates
    into the generator but not into discriminator parameters: its D pass runs
    inside ``d.frozen()``, which skips their gradient work at forward capture
    and then gives each parameter its own flag back.  Both discriminator
    evaluations use the current parameters; the trainer steps D before G
    either way.
    """
    real_t = as_tensor(real_ct)
    syn_t = as_tensor(syn_ct)
    if real_t.data.shape != syn_t.data.shape:
        raise ValueError(f"shape mismatch: {real_t.data.shape} vs {syn_t.data.shape}")
    logits_real = d(real_t)
    logits_syn_d = d(syn_t.detach())
    with d.frozen():
        logits_syn_g = d(syn_t)
    if mode == "log":
        # log(1 - sigmoid(x)) = log_sigmoid(-x)
        d_loss = -(ops.log_sigmoid(logits_real).mean()) - ops.log_sigmoid(-logits_syn_d).mean()
        g_adv = -(ops.log_sigmoid(logits_syn_g).mean())
    elif mode == "lsgan":
        d_loss = ((logits_real - 1.0) ** 2).mean() + (logits_syn_d**2).mean()
        g_adv = ((logits_syn_g - 1.0) ** 2).mean()
    else:
        raise ValueError(f"unknown gan mode {mode!r}")
    return d_loss, g_adv


def cut_total_loss(l_gan, l_nce_syn, l_nce_idt, cfg: CutTrainConfig):
    """The generator objective: weighted GAN, synthesis and identity terms.
    Takes loss Tensors to train on, or their float means to log."""
    return cfg.lambda_gan * l_gan + cfg.lambda_syn * l_nce_syn + cfg.lambda_idt * l_nce_idt


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("step", "epoch", "L_GAN_D", "L_GAN_G", "L_NCE_syn", "L_NCE_idt", "total", "lr")


def build_networks(g_spec, d_spec, p_spec, nce_cfg, seed):
    g = Generator(g_spec, seeding.stream(seed, "cut.init.g"))
    d = Discriminator(d_spec, seeding.stream(seed, "cut.init.d"))
    tap_ids = nce_cfg.tap_layers if nce_cfg.tap_layers is not None else g.default_tap_ids()
    chans = g.eligible_taps()
    bad = [t for t in tap_ids if t >= len(chans)]
    if bad:
        raise ValueError(f"tap ids {bad} exceed encoder depth {len(chans)}")
    f = FeatureProjector([chans[t] for t in tap_ids], p_spec, seeding.stream(seed, "cut.init.f"))
    return g, d, f, tuple(tap_ids)


# the metadata key and type of each setting, in `_build`'s argument order
_SETTINGS = {
    "cfg": ("train_config", CutTrainConfig),
    "g_spec": ("generator_spec", GeneratorSpec),
    "d_spec": ("discriminator_spec", DiscriminatorSpec),
    "p_spec": ("projector_spec", ProjectorSpec),
    "nce_cfg": ("nce_config", NCEConfig),
}


def _build(cfg, g_spec, d_spec, p_spec, nce_cfg):
    g, d, f, tap_ids = build_networks(g_spec, d_spec, p_spec, nce_cfg, cfg.seed)
    betas = (cfg.adam_beta1, cfg.adam_beta2)
    opts = {"opt_d": Adam(d.parameters(), cfg.lr, betas=betas),
            "opt_g": Adam(g.parameters() + f.parameters(), cfg.lr, betas=betas)}
    settings = {"cfg": cfg, "g_spec": g_spec, "d_spec": d_spec, "p_spec": p_spec,
                "nce_cfg": nce_cfg, "tap_ids": tap_ids}
    return {"g": g, "d": d, "f": f}, opts, settings


def _build_generator(cfg, g_spec, *_):
    """The generator alone, as `build_networks` builds it."""
    return {"g": Generator(g_spec, seeding.stream(cfg.seed, "cut.init.g"))}, {}, {}


def save_cut_checkpoint(path, g, d, f, opt_d, opt_g, cfg, g_spec, d_spec, p_spec, nce_cfg,
                        tap_ids, step, epoch, monitor):
    ckpt_io.save_run(path, "cut", _SETTINGS, dict(
        g=g, d=d, f=f, opt_d=opt_d, opt_g=opt_g, cfg=cfg, g_spec=g_spec, d_spec=d_spec,
        p_spec=p_spec, nce_cfg=nce_cfg, tap_ids=tap_ids, step=step, epoch=epoch, monitor=monitor))


def load_cut_checkpoint(path, cfg=None):
    return ckpt_io.load_run(path, "cut", _SETTINGS, _build, cfg=cfg)


def _check_volume(settings, v):
    edge = settings["d_spec"].min_edge()
    factor = 2 ** settings["g_spec"].n_downsample
    if min(v.data.shape) < edge:
        raise ValueError(f"volume shape {v.data.shape} is too small for the "
                         f"discriminator: every edge must be at least {edge}")
    if any(n % factor for n in v.data.shape):
        raise ValueError(f"volume shape {v.data.shape} not divisible by the "
                         f"generator's downsampling factor {factor}")


_TRAINER = training.Trainer("cut", "cut", _SETTINGS, _build, load_cut_checkpoint, CSV_COLUMNS,
                            _check_volume)


def train_cut(mr_set, ct_set, cfg: CutTrainConfig,
              g_spec=None, d_spec=None, p_spec=None, nce_cfg=None,
              run_dir=".", resume_from=None, config_ini=None):
    """Unpaired training loop.

    Per optimizer step, `batch_size` independent (MR, CT) draws accumulate
    gradients; the discriminator steps first, then generator and projector
    jointly.  Emits a CSV row per step and an epoch-stamped checkpoint.
    Returns (final checkpoint path, rows) where each row holds the
    `CSV_COLUMNS` values of one step.  MR and CT volumes of more than one
    shape, which `gan_losses` cannot compare, are refused before anything
    is written.
    """
    mr_shapes, ct_shapes = ({v.data.shape for v in vs} for vs in (mr_set, ct_set))
    if len(mr_shapes | ct_shapes) > 1:
        raise ValueError(f"MR shapes {sorted(mr_shapes)} and CT shapes {sorted(ct_shapes)} "
                         "differ: every MR and CT volume must have one shape")
    state = training.start(_TRAINER, run_dir, cfg, (g_spec, d_spec, p_spec, nce_cfg),
                           (mr_set, ct_set), resume_from, config_ini)
    g, d, f, nce_cfg, tap_ids = (state[k] for k in ("g", "d", "f", "nce_cfg", "tap_ids"))

    n_mr, n_ct = len(mr_set), len(ct_set)
    steps_per_epoch = max(1, -(-max(n_mr, n_ct) // cfg.batch_size))

    def draw(step, k):
        """Draw `k` of a step: (D loss, G loss), and the four logged losses."""
        rng = seeding.stream(cfg.seed, "cut.draw", step, k)
        x = as_tensor(mr_set[int(rng.integers(n_mr))])
        y = as_tensor(ct_set[int(rng.integers(n_ct))])
        syn, feats_mr = g(x, tap_ids)
        idt, feats_ct = g(y, tap_ids)
        d_loss, g_adv = gan_losses(d, y, syn, cfg.gan_mode)

        # synthesis then identity PatchNCE; both sample from one patch stream
        patch_rng = seeding.stream(cfg.seed, "cut.patch", step, k)
        nce = []
        for feats, out in ((feats_mr, syn), (feats_ct, idt)):
            src = project_features(f, feats, tap_ids, nce_cfg, rng=patch_rng)
            tr = project_features(f, g.encode(out, tap_ids), tap_ids, nce_cfg,
                                  locations=src.locations)
            nce.append(nce_from_stacks(tr, src, nce_cfg.temperature)[0])
        nce_syn, nce_idt = nce
        g_loss = cut_total_loss(g_adv, nce_syn, nce_idt, cfg)
        return (d_loss, g_loss), (d_loss, g_adv, nce_syn, nce_idt)

    def run_step(step):
        means = training.optimizer_step(
            state, [functools.partial(draw, step, k) for k in range(cfg.batch_size)])
        return (*means, cut_total_loss(*means[1:], cfg))

    return training.fit(_TRAINER, cfg, run_dir, state, lambda epoch: [run_step] * steps_per_epoch)


def translate(checkpoint, mr: Volume) -> Volume:
    """Inference through a trained generator, UNIT volume in and out; accepts
    a checkpoint path or a loaded state (a dict holding the generator "g")."""
    if not isinstance(checkpoint, dict):  # read the generator's arrays alone
        checkpoint = ckpt_io.load_run(checkpoint, "cut", _SETTINGS, _build_generator, "param/g/")
    g = checkpoint["g"]
    require_domain(mr, UNIT, "translate")
    with g.frozen():
        out, _ = g(as_tensor(mr))
    return Volume(out.data[0], mr.spacing, UNIT)
