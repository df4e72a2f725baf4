"""Structured run configuration: one INI file, strict keys, flag overrides.

Every knob of every pipeline stage lives in a flat registry of
(section, key) -> (parser, default).  Unknown sections or keys fail fast with
a close-match suggestion instead of being silently ignored; that turns the
classic `lerning_rate=...` typo into an immediate error.
"""

import configparser
import difflib
import functools
import io

from skullsynth import FORMAT_VERSION
from skullsynth.augment import AugmentationConfig
from skullsynth.cut import (
    CutTrainConfig,
    DiscriminatorSpec,
    GeneratorSpec,
    NCEConfig,
    ProjectorSpec,
)
from skullsynth.lapsrn import PyramidSpec, SRTrainConfig
from skullsynth.postprocess import SegmentationParams


class ConfigError(ValueError):
    pass


def _bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_tuple(text):
    t = text.strip()
    if not t:
        return None
    return tuple(int(part) for part in t.split(","))


def _identity(text):
    return text.strip()


REGISTRY = {
    "data": {
        "mr_dir": (_identity, ""),
        "ct_dir": (_identity, ""),
        "hr_dir": (_identity, ""),
        "format": (_identity, "raw"),
        "floor_hu": (float, -500.0),
        "resample_shape": (_int_tuple, None),
    },
    "cut": {
        "base_filters": (int, 64),
        "n_downsample": (int, 2),
        "n_residual_blocks": (int, 9),
        "d_layers": (int, 3),
        "d_base_filters": (int, 64),
        "proj_layers": (int, 2),
        "embed_dim": (int, 256),
        "num_patches": (int, 64),
        "tap_layers": (_int_tuple, None),
        "temperature": (float, 1.0),
        "lambda_gan": (float, 1.0),
        "lambda_syn": (float, 1.0),
        "lambda_idt": (float, 1.0),
        "learning_rate": (float, 2e-4),
        "adam_beta1": (float, 0.5),
        "adam_beta2": (float, 0.999),
        "batch_size": (int, 8),
        "gan_mode": (_identity, "log"),
        "plateau_patience_epochs": (int, 50),
        "max_epochs": (int, 100),
        "max_steps": (int, 0),
        "checkpoint_every": (int, 1),
    },
    "lapsrn": {
        "levels": (int, 1),
        "filters": (int, 64),
        "feat_layers": (int, 8),
        "recon_layers": (int, 2),
        "learning_rate": (float, 1e-5),
        "momentum": (float, 0.9),
        "weight_decay": (float, 1e-4),
        "eps_charbonnier": (float, 1e-3),
        "grad_accum": (int, 16),
        "plateau_patience_epochs": (int, 5),
        "max_epochs": (int, 100),
        "max_steps": (int, 0),
        "core_size": (int, 64),
        "halo": (int, 8),
        "checkpoint_every": (int, 1),
        "aug_flip": (_bool, False),
        "aug_affine": (_bool, False),
        "aug_ghost": (_bool, False),
        "aug_blur": (_bool, False),
        "aug_gamma": (_bool, False),
    },
    "postprocess": {
        "bone_threshold_hu": (float, 200.0),
        "opening_radius": (int, 1),
        "closing_radius": (int, 1),
        "structuring_element": (_identity, "cube"),
    },
    "metrics": {
        "sdsc_tolerance_mm": (float, 1.0),
    },
    "run": {
        "seed": (int, 0),
        "output_dir": (_identity, "runs/default"),
    },
}


def default_config():
    return {sec: {key: default for key, (_, default) in keys.items()} for sec, keys in REGISTRY.items()}


def _suggest(name, candidates):
    close = difflib.get_close_matches(name, candidates, n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _set_value(cfg, section, key, raw):
    if section not in REGISTRY:
        raise ConfigError(
            f"unknown config section [{section}]{_suggest(section, REGISTRY)}"
        )
    if key not in REGISTRY[section]:
        raise ConfigError(
            f"unknown config key {key!r} in [{section}]{_suggest(key, REGISTRY[section])}"
        )
    parser, _ = REGISTRY[section][key]
    try:
        cfg[section][key] = parser(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc


def load_config(path=None, overrides=()):
    """Defaults, then the INI file (if any), then `section.key=value` overrides."""
    cfg = default_config()
    if path is not None:
        parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=None, comment_prefixes=("#",)
        )
        parser.optionxform = str
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except FileNotFoundError:
            raise
        except (OSError, configparser.Error) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                _set_value(cfg, section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(
                f"override {item!r} is not of the form section.key=value"
            )
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        _set_value(cfg, section.strip(), key.strip(), raw)
    return cfg


def _render_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg):
    """Resolved config as INI text, stamped with the artifact format version."""
    out = io.StringIO()
    out.write(f"# resolved configuration (checkpoint format version {FORMAT_VERSION})\n")
    for section, keys in cfg.items():
        out.write(f"\n[{section}]\n")
        for key, value in keys.items():
            out.write(f"{key} = {_render_value(value)}\n")
    return out.getvalue()


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg))


# ---------------------------------------------------------------------------
# registry -> module settings
# ---------------------------------------------------------------------------


def _spec_errors_are_config_errors(settings):
    """A value a spec dataclass rejects is a configuration error."""
    @functools.wraps(settings)
    def wrapper(cfg):
        try:
            return settings(cfg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return wrapper


@_spec_errors_are_config_errors
def cut_settings(cfg):
    c = cfg["cut"]
    g_spec = GeneratorSpec(
        base_filters=c["base_filters"],
        n_downsample=c["n_downsample"],
        n_residual_blocks=c["n_residual_blocks"],
    )
    d_spec = DiscriminatorSpec(n_layers=c["d_layers"], base_filters=c["d_base_filters"])
    p_spec = ProjectorSpec(n_layers=c["proj_layers"], embed_dim=c["embed_dim"])
    nce = NCEConfig(
        num_patches=c["num_patches"],
        tap_layers=c["tap_layers"],
        temperature=c["temperature"],
    )
    train = CutTrainConfig(
        lambda_gan=c["lambda_gan"],
        lambda_syn=c["lambda_syn"],
        lambda_idt=c["lambda_idt"],
        lr=c["learning_rate"],
        adam_beta1=c["adam_beta1"],
        adam_beta2=c["adam_beta2"],
        batch_size=c["batch_size"],
        plateau_patience_epochs=c["plateau_patience_epochs"],
        max_epochs=c["max_epochs"],
        max_steps=c["max_steps"],
        gan_mode=c["gan_mode"],
        checkpoint_every=c["checkpoint_every"],
        seed=cfg["run"]["seed"],
    )
    return g_spec, d_spec, p_spec, nce, train


@_spec_errors_are_config_errors
def sr_settings(cfg):
    s = cfg["lapsrn"]
    spec = PyramidSpec(
        levels=s["levels"],
        filters=s["filters"],
        feat_layers=s["feat_layers"],
        recon_layers=s["recon_layers"],
    )
    aug = AugmentationConfig(
        flip=s["aug_flip"],
        affine=s["aug_affine"],
        ghost=s["aug_ghost"],
        blur=s["aug_blur"],
        gamma=s["aug_gamma"],
    )
    train = SRTrainConfig(
        lr=s["learning_rate"],
        momentum=s["momentum"],
        weight_decay=s["weight_decay"],
        eps_charbonnier=s["eps_charbonnier"],
        grad_accum=s["grad_accum"],
        plateau_patience_epochs=s["plateau_patience_epochs"],
        max_epochs=s["max_epochs"],
        max_steps=s["max_steps"],
        core_size=s["core_size"],
        halo=s["halo"],
        checkpoint_every=s["checkpoint_every"],
        seed=cfg["run"]["seed"],
        augment=aug if aug.enabled() else None,
    )
    return spec, train


@_spec_errors_are_config_errors
def segmentation_settings(cfg):
    p = cfg["postprocess"]
    return SegmentationParams(
        bone_threshold_hu=p["bone_threshold_hu"],
        opening_radius=p["opening_radius"],
        closing_radius=p["closing_radius"],
        structuring_element=p["structuring_element"],
    )
