"""Structured run configuration: one INI file, strict keys, flag overrides.

The settings dataclasses are the only place a setting's key, type and default
are written.  `SECTIONS` lists, per INI section, the dataclasses whose fields
it holds, in dump order; each field's type picks its parser and its default
is the config default.  Unknown sections or keys fail fast with a close-match
suggestion instead of being silently ignored; that turns the classic
`lerning_rate=...` typo into an immediate error.
"""

import configparser
import dataclasses
import difflib
import io
import math
from typing import Optional

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
from skullsynth.volume_io import EXTENSIONS


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class DataConfig:
    mr_dir: str = ""
    ct_dir: str = ""
    hr_dir: str = ""
    format: str = "raw"
    floor_hu: float = -500.0
    resample_shape: Optional[tuple] = None

    def __post_init__(self):
        if self.format not in EXTENSIONS:
            raise ValueError(f"unknown volume format {self.format!r}; "
                             f"expected {' or '.join(EXTENSIONS)}")
        shape = self.resample_shape
        if shape is not None and (len(shape) != 3 or min(shape) < 1):
            raise ValueError(f"resample_shape must be 3 sizes >= 1, got {shape}")


@dataclasses.dataclass
class MetricsConfig:
    sdsc_tolerance_mm: float = 1.0

    def __post_init__(self):
        if not self.sdsc_tolerance_mm >= 0:
            raise ValueError("sdsc_tolerance_mm must be >= 0")


@dataclasses.dataclass
class RunConfig:
    seed: int = 0
    output_dir: str = "runs/default"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


SECTIONS = {
    "data": (DataConfig,),
    "cut": (GeneratorSpec, DiscriminatorSpec, ProjectorSpec, NCEConfig, CutTrainConfig),
    "lapsrn": (PyramidSpec, SRTrainConfig, AugmentationConfig),
    "postprocess": (SegmentationParams,),
    "metrics": (MetricsConfig,),
    "run": (RunConfig,),
}

# INI keys that differ from their field's name
_RENAMED = {
    (CutTrainConfig, "lr"): "learning_rate",
    (SRTrainConfig, "lr"): "learning_rate",
    (DiscriminatorSpec, "n_layers"): "d_layers",
    (DiscriminatorSpec, "base_filters"): "d_base_filters",
    (ProjectorSpec, "n_layers"): "proj_layers",
}
# fields set from elsewhere: the trainers' seed from [run], `augment` from the aug_* switches
_NOT_KEYS = {(CutTrainConfig, "seed"), (SRTrainConfig, "seed"), (SRTrainConfig, "augment")}

_PARSERS = {int: int, float: float, bool: _bool, str: _identity, Optional[tuple]: _int_tuple}


def _ini_fields(cls):
    """(INI key, field) for each field of `cls` the INI holds.  The
    augmentation switches are keys `aug_<name>`."""
    prefix = "aug_" if cls is AugmentationConfig else ""
    for f in dataclasses.fields(cls):
        if (cls, f.name) not in _NOT_KEYS:
            yield _RENAMED.get((cls, f.name), prefix + f.name), f


REGISTRY = {
    section: {
        key: (_PARSERS[f.type], f.default) for cls in classes for key, f in _ini_fields(cls)
    }
    for section, classes in SECTIONS.items()
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
    """Defaults, then the INI file (if any), then `section.key=value` overrides.  Any error
    opening the file is `open`'s own; a file not UTF-8 or not INI is a ConfigError."""
    cfg = default_config()
    if path is not None:
        parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=None, comment_prefixes=("#",)
        )
        parser.optionxform = str
        with open(path, encoding="utf-8") as fh:
            try:
                parser.read_file(fh)
            except (OSError, UnicodeDecodeError, configparser.Error) as exc:
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


# ---------------------------------------------------------------------------
# config -> settings dataclasses
# ---------------------------------------------------------------------------


def _build(cls, values, **extra):
    """`cls` from its section's `values`; a value it rejects, and then a float
    setting that is not finite, is a config error."""
    fields = dict(_ini_fields(cls))
    try:
        built = cls(**{f.name: values[key] for key, f in fields.items()}, **extra)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key, f in fields.items():
        if f.type is float and not math.isfinite(values[key]):
            section = next(sec for sec, classes in SECTIONS.items() if cls in classes)
            raise ConfigError(f"[{section}] {key} must be finite, got {values[key]!r}")
    return built


def cut_settings(cfg):
    c = cfg["cut"]
    nets = (_build(cls, c) for cls in (GeneratorSpec, DiscriminatorSpec, ProjectorSpec, NCEConfig))
    return (*nets, _build(CutTrainConfig, c, seed=run_settings(cfg).seed))


def sr_settings(cfg):
    s = cfg["lapsrn"]
    return _build(PyramidSpec, s), _build(SRTrainConfig, s, seed=run_settings(cfg).seed,
                                          augment=_build(AugmentationConfig, s))


def segmentation_settings(cfg):
    return _build(SegmentationParams, cfg["postprocess"])


def data_settings(cfg):
    return _build(DataConfig, cfg["data"])


def metrics_settings(cfg):
    return _build(MetricsConfig, cfg["metrics"])


def run_settings(cfg):
    return _build(RunConfig, cfg["run"])
