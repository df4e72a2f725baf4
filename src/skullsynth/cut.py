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

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from skullsynth import checkpoint as ckpt_io
from skullsynth import seeding, training
from skullsynth.engine import ops
from skullsynth.engine.layers import Conv3d, ConvTranspose3d, InstanceNorm3d, Linear, Module
from skullsynth.engine.optim import Adam
from skullsynth.engine.tensor import Tensor
from skullsynth.volume_io import UNIT, Volume


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

    def __post_init__(self):
        if self.n_layers < 1 or self.base_filters < 1:
            raise ValueError("need n_layers >= 1 and base_filters >= 1")


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
        if self.tap_layers is not None:
            self.tap_layers = tuple(int(t) for t in self.tap_layers)


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
        if min(self.lambda_gan, self.lambda_syn, self.lambda_idt) < 0:
            raise ValueError("loss weights must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.gan_mode not in ("log", "lsgan"):
            raise ValueError(f"unknown gan_mode {self.gan_mode!r}")


@dataclass
class LossReport:
    step: int
    epoch: int
    l_gan_d: float
    l_gan_g: float
    l_nce_syn: float
    l_nce_idt: float
    total: float
    lr: float


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
        h = ops.relu(self.norm1(self.conv1(x)))
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

    def eligible_taps(self):
        """Channel count per encoder tap: stem, each downsample, each residual block."""
        f = self.spec.base_filters
        chans = [f]
        c = f
        for _ in range(self.spec.n_downsample):
            c *= 2
            chans.append(c)
        chans.extend([c] * self.spec.n_residual_blocks)
        return chans

    def default_tap_ids(self):
        return tuple(range(min(9, len(self.eligible_taps()))))

    def _check_shape(self, x):
        factor = 2**self.spec.n_downsample
        if any(n % factor for n in x.data.shape[1:]):
            raise ValueError(
                f"input shape {x.data.shape[1:]} not divisible by downsampling factor {factor}"
            )

    def _encode(self, x, want):
        feats = {}
        h = ops.relu(self.stem_norm(self.stem(x)))
        tap = 0
        if tap in want:
            feats[tap] = h
        for conv, norm in zip(self.downs, self.down_norms):
            h = ops.relu(norm(conv(h)))
            tap += 1
            if tap in want:
                feats[tap] = h
        for block in self.blocks:
            h = block(h)
            tap += 1
            if tap in want:
                feats[tap] = h
        return h, feats

    def encode(self, x, tap_ids):
        """Encoder-only pass returning the requested tap features."""
        self._check_shape(x)
        want = set(tap_ids)
        bad = want - set(range(len(self.eligible_taps())))
        if bad:
            raise ValueError(f"invalid tap ids {sorted(bad)}")
        _, feats = self._encode(x, want)
        return [feats[i] for i in tap_ids]

    def __call__(self, x, tap_ids=()):
        """Full pass; returns (output in [0,1], list of tap features)."""
        self._check_shape(x)
        want = set(tap_ids)
        h, feats = self._encode(x, want)
        for tconv, norm in zip(self.ups, self.up_norms):
            h = ops.relu(norm(tconv(h)))
        out = (ops.tanh(self.head(h)) + 1.0) * 0.5
        return out, [feats[i] for i in tap_ids]


class Discriminator(Module):
    """PatchGAN: strided conv stack ending in a 3-D grid of patch logits."""

    def __init__(self, spec: DiscriminatorSpec, rng):
        self.spec = spec
        f = spec.base_filters
        convs, norms = [Conv3d(1, f, 4, stride=2, pad=1, rng=rng)], [None]
        c = f
        for i in range(1, spec.n_layers):
            nxt = min(f * 2**i, f * 8)
            convs.append(Conv3d(c, nxt, 4, stride=2, pad=1, rng=rng))
            norms.append(InstanceNorm3d(nxt))
            c = nxt
        nxt = min(c * 2, f * 8)
        convs.append(Conv3d(c, nxt, 4, stride=1, pad=1, rng=rng))
        norms.append(InstanceNorm3d(nxt))
        self.convs = convs
        self.norms = [n for n in norms if n is not None]
        self.final = Conv3d(nxt, 1, 4, stride=1, pad=1, rng=rng)

    def __call__(self, x):
        h = x
        norm_iter = iter(self.norms)
        for i, conv in enumerate(self.convs):
            h = conv(h)
            if i > 0:
                h = next(norm_iter)(h)
            h = ops.leaky_relu(h, 0.2)
        return self.final(h)


class FeatureProjector(Module):
    """Per-tap-layer MLP mapping gathered patch features to the shared embedding space."""

    def __init__(self, tap_channels, spec: ProjectorSpec, rng):
        self.spec = spec
        mlps = []
        for c in tap_channels:
            layers = []
            cin = c
            for _ in range(max(1, spec.n_layers)):
                layers.append(Linear(cin, spec.embed_dim, rng=rng))
                cin = spec.embed_dim
            mlps.append(layers)
        self.mlps = [l for layers in mlps for l in layers]  # flattened for param discovery
        self._per_tap = mlps

    def project(self, patches, tap_index):
        """(S, C) patch features -> (S, E) unit-norm embeddings."""
        h = patches
        layers = self._per_tap[tap_index]
        for i, lin in enumerate(layers):
            h = lin(h)
            if i + 1 < len(layers):
                h = ops.relu(h)
        return ops.l2_normalize_rows(h)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _as_input_tensor(x):
    if isinstance(x, Tensor):
        return x
    data = np.asarray(getattr(x, "data", x), dtype=np.float64)
    if data.ndim == 3:
        data = data[None]
    return Tensor(data)


def generator_forward(g: Generator, x) -> Volume:
    """Pure inference through G; Volume in, Volume out (UNIT domain)."""
    if isinstance(x, Volume) and x.domain != UNIT:
        raise ValueError(f"generator input must be UNIT domain, got {x.domain}")
    out, _ = g(_as_input_tensor(x))
    spacing = x.spacing if isinstance(x, Volume) else (1.0, 1.0, 1.0)
    return Volume(out.data[0], spacing, UNIT)


def info_nce(ref, pos, negs, temperature: float = 1.0):
    """The contrastive loss for one reference vector against one positive and
    N-1 negatives, dot-product similarity.  Returns a scalar Tensor; gradients
    flow into any argument passed as a Tensor."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    ref_t = ref if isinstance(ref, Tensor) else Tensor(np.asarray(ref, dtype=np.float64))
    pos_t = pos if isinstance(pos, Tensor) else Tensor(np.asarray(pos, dtype=np.float64))
    negs_t = negs if isinstance(negs, Tensor) else Tensor(np.asarray(negs, dtype=np.float64))
    if negs_t.data.ndim != 2 or negs_t.data.shape[0] < 1:
        raise ValueError("need a nonempty (N-1, E) negative matrix")
    if ref_t.data.shape != pos_t.data.shape or negs_t.data.shape[1] != ref_t.data.shape[0]:
        raise ValueError("embedding dimensions disagree")
    inv_t = 1.0 / temperature
    s_pos = (ref_t * pos_t).sum() * inv_t
    s_negs = (negs_t * ref_t.reshape(1, -1)).sum(axis=1) * inv_t
    shift = float(max(s_pos.data, s_negs.data.max()))
    denom = ops.exp(s_pos - shift).sum() + ops.exp(s_negs - shift).sum()
    return ops.log(denom) + shift - s_pos


def sample_locations(feature_shapes, num_patches, rng):
    """Uniform distinct flat sites per tap layer; layers smaller than num_patches use all sites."""
    locations = []
    for shape in feature_shapes:
        n_sites = int(np.prod(shape))
        k = min(num_patches, n_sites)
        locs = np.sort(rng.choice(n_sites, size=k, replace=False))
        locations.append(locs)
    return locations


def encoder_features(g, f, x, tap_ids, cfg: NCEConfig, rng=None, locations=None) -> FeatureStack:
    """Tap features of x projected to embeddings; samples locations unless given."""
    feats = g.encode(_as_input_tensor(x), tap_ids)
    return project_features(f, feats, tap_ids, cfg, rng=rng, locations=locations)


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


def patch_nce_loss(g, f, source, translated, cfg: NCEConfig, rng=None):
    """PatchNCE between a source volume and its translation.

    Samples locations on the source stack and reuses them for the translated
    stack.  Returns (scalar loss Tensor, per-layer float breakdown).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    tap_ids = cfg.tap_layers if cfg.tap_layers is not None else g.default_tap_ids()
    src_stack = encoder_features(g, f, source, tap_ids, cfg, rng=rng)
    tr_stack = encoder_features(g, f, translated, tap_ids, cfg, locations=src_stack.locations)
    return nce_from_stacks(tr_stack, src_stack, cfg.temperature)


def gan_losses(d, real_ct, syn_ct, mode: str = "log"):
    """(d_loss, g_adv_loss) for one real/synthetic pair.

    d_loss treats the synthetic volume as a constant; g_adv_loss propagates
    into the generator but not into discriminator parameters (their gradient
    work is skipped at forward capture).  Both discriminator evaluations use
    the current parameters; the trainer steps D before G either way.
    """
    real_t = _as_input_tensor(real_ct)
    syn_t = _as_input_tensor(syn_ct)
    if real_t.data.shape != syn_t.data.shape:
        raise ValueError(f"shape mismatch: {real_t.data.shape} vs {syn_t.data.shape}")
    logits_real = d(real_t)
    logits_syn_d = d(syn_t.detach())
    d.freeze()
    try:
        logits_syn_g = d(syn_t)
    finally:
        d.unfreeze()
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
    total = cfg.lambda_gan * l_gan + cfg.lambda_syn * l_nce_syn + cfg.lambda_idt * l_nce_idt
    return total, {
        "L_GAN": l_gan,
        "L_NCE_syn": l_nce_syn,
        "L_NCE_idt": l_nce_idt,
        "total": total,
    }


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


def _optimizers(cfg, g, d, f):
    betas = (cfg.adam_beta1, cfg.adam_beta2)
    return {
        "opt_d": Adam(d.parameters(), cfg.lr, betas=betas),
        "opt_g": Adam(g.parameters() + f.parameters(), cfg.lr, betas=betas),
    }


def save_cut_checkpoint(path, g, d, f, opt_d, opt_g, cfg, g_spec, d_spec, p_spec, nce_cfg,
                        tap_ids, step, epoch, monitor):
    meta = {
        "kind": "cut",
        "step": step,
        "epoch": epoch,
        "train_config": asdict(cfg),
        "generator_spec": asdict(g_spec),
        "discriminator_spec": asdict(d_spec),
        "projector_spec": asdict(p_spec),
        "nce_config": asdict(nce_cfg),
        "tap_ids": list(tap_ids),
        "monitor": monitor,
    }
    ckpt_io.save_state(path, meta, {"g": g, "d": d, "f": f}, {"opt_d": opt_d, "opt_g": opt_g})


def load_cut_checkpoint(path):
    meta, arrays = ckpt_io.load_checkpoint(path)
    if meta.get("kind") != "cut":
        raise ValueError(f"{path} is not a translation checkpoint (kind={meta.get('kind')!r})")
    with ckpt_io.restoring(path):
        g_spec = GeneratorSpec(**meta["generator_spec"])
        d_spec = DiscriminatorSpec(**meta["discriminator_spec"])
        p_spec = ProjectorSpec(**meta["projector_spec"])
        nce_cfg = NCEConfig(**meta["nce_config"])
        cfg = CutTrainConfig(**meta["train_config"])
        g, d, f, tap_ids = build_networks(g_spec, d_spec, p_spec, nce_cfg, cfg.seed)
        nets = {"g": g, "d": d, "f": f}
        opts = _optimizers(cfg, g, d, f)
        ckpt_io.restore_state(meta, arrays, nets, opts)
        return {
            **nets, **opts,
            "cfg": cfg, "g_spec": g_spec, "d_spec": d_spec, "p_spec": p_spec,
            "nce_cfg": nce_cfg, "tap_ids": tuple(meta["tap_ids"]),
            "step": int(meta["step"]), "epoch": int(meta["epoch"]),
            "monitor": meta["monitor"],
        }


def train_cut(mr_set, ct_set, cfg: CutTrainConfig,
              g_spec=None, d_spec=None, p_spec=None, nce_cfg=None,
              run_dir=".", resume_from=None):
    """Unpaired training loop.

    Per optimizer step, `batch_size` independent (MR, CT) draws accumulate
    gradients; the discriminator steps first, then generator and projector
    jointly.  Emits a CSV row per step and an epoch-stamped checkpoint.
    Returns (final checkpoint path, list of LossReport).
    """
    if not mr_set or not ct_set:
        raise ValueError("both datasets must be nonempty")
    for v in list(mr_set) + list(ct_set):
        if v.domain != UNIT:
            raise ValueError(f"training volumes must be UNIT domain, got {v.domain}")
    g_spec = g_spec or GeneratorSpec()
    d_spec = d_spec or DiscriminatorSpec()
    p_spec = p_spec or ProjectorSpec()
    nce_cfg = nce_cfg or NCEConfig()

    state = load_cut_checkpoint(resume_from) if resume_from else None
    if state:
        # architecture and optimizer state come from the checkpoint; the
        # schedule (epochs, lr, weights, seed) stays with the caller's config
        g, d, f = state["g"], state["d"], state["f"]
        opt_d, opt_g = state["opt_d"], state["opt_g"]
        g_spec, d_spec, p_spec = state["g_spec"], state["d_spec"], state["p_spec"]
        nce_cfg, tap_ids = state["nce_cfg"], state["tap_ids"]
    else:
        g, d, f, tap_ids = build_networks(g_spec, d_spec, p_spec, nce_cfg, cfg.seed)
        opt_d, opt_g = _optimizers(cfg, g, d, f).values()

    n_mr, n_ct = len(mr_set), len(ct_set)
    steps_per_epoch = max(1, -(-max(n_mr, n_ct) // cfg.batch_size))
    inv_b = 1.0 / cfg.batch_size

    def run_step(step, epoch, lr):
        acc = np.zeros(4)  # d, g_adv, nce_syn, nce_idt
        for k in range(cfg.batch_size):
            draw = seeding.stream(cfg.seed, "cut.draw", step, k)
            x = _as_input_tensor(mr_set[int(draw.integers(n_mr))])
            y = _as_input_tensor(ct_set[int(draw.integers(n_ct))])
            syn, feats_mr = g(x, tap_ids)
            idt, feats_ct = g(y, tap_ids)
            d_loss, g_adv = gan_losses(d, y, syn, cfg.gan_mode)

            # synthesis then identity PatchNCE; both sample from one patch stream
            patch_rng = seeding.stream(cfg.seed, "cut.patch", step, k)
            nce = []
            for feats, out in ((feats_mr, syn), (feats_ct, idt)):
                src = project_features(f, feats, tap_ids, nce_cfg, rng=patch_rng)
                tr = project_features(
                    f, g.encode(out, tap_ids), tap_ids, nce_cfg, locations=src.locations
                )
                nce.append(nce_from_stacks(tr, src, nce_cfg.temperature)[0])
            nce_syn, nce_idt = nce

            g_loss = cfg.lambda_gan * g_adv + cfg.lambda_syn * nce_syn + cfg.lambda_idt * nce_idt
            (d_loss * inv_b).backward()
            (g_loss * inv_b).backward()
            acc += (d_loss.item(), g_adv.item(), nce_syn.item(), nce_idt.item())
        opt_d.step()
        opt_d.zero_grad()
        opt_g.step()
        opt_g.zero_grad()
        d_mean, g_mean, syn_mean, idt_mean = (float(v) for v in acc * inv_b)
        total, _ = cut_total_loss(g_mean, syn_mean, idt_mean, cfg)
        return (d_mean, g_mean, syn_mean, idt_mean, total), total

    def save(path, step, epoch, monitor):
        save_cut_checkpoint(path, g, d, f, opt_d, opt_g, cfg, g_spec, d_spec, p_spec,
                            nce_cfg, tap_ids, step, epoch, monitor)

    final, rows = training.fit(
        cfg, run_dir, "cut", CSV_COLUMNS, (opt_d, opt_g),
        lambda epoch: [run_step] * steps_per_epoch, save, state,
    )
    return final, [LossReport(*row) for row in rows]


def latest_checkpoint(run_dir):
    return training.latest_checkpoint(run_dir, "cut")


def translate(checkpoint, mr: Volume) -> Volume:
    """Inference through a trained generator; accepts a path or a loaded state."""
    state = load_cut_checkpoint(checkpoint) if not isinstance(checkpoint, dict) else checkpoint
    return generator_forward(state["g"], mr)
