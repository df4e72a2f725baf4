"""INI configuration: strict keys with suggestions, overrides, and a lossless dump."""

import pytest

from skullsynth import FORMAT_VERSION
from skullsynth.config import (
    REGISTRY,
    ConfigError,
    cut_settings,
    data_settings,
    default_config,
    dump_config,
    load_config,
    metrics_settings,
    run_settings,
    segmentation_settings,
    sr_settings,
)
from skullsynth.cut import (
    CutTrainConfig,
    DiscriminatorSpec,
    GeneratorSpec,
    NCEConfig,
    ProjectorSpec,
)
from skullsynth.lapsrn import PyramidSpec, SRTrainConfig
from skullsynth.postprocess import SegmentationParams

# every key of the INI, in dump order, at its default; an empty value keeps
# the space after its "=", as in "mr_dir = "
DEFAULT_INI_BODY = """
[data]
mr_dir = 
ct_dir = 
hr_dir = 
format = raw
floor_hu = -500.0
resample_shape = 

[cut]
base_filters = 64
n_downsample = 2
n_residual_blocks = 9
d_layers = 3
d_base_filters = 64
proj_layers = 2
embed_dim = 256
num_patches = 64
tap_layers = 
temperature = 1.0
lambda_gan = 1.0
lambda_syn = 1.0
lambda_idt = 1.0
learning_rate = 0.0002
adam_beta1 = 0.5
adam_beta2 = 0.999
batch_size = 8
gan_mode = log
plateau_patience_epochs = 50
max_epochs = 100
max_steps = 0
checkpoint_every = 1

[lapsrn]
levels = 1
filters = 64
feat_layers = 8
recon_layers = 2
learning_rate = 1e-05
momentum = 0.9
weight_decay = 0.0001
eps_charbonnier = 0.001
grad_accum = 16
plateau_patience_epochs = 5
max_epochs = 100
max_steps = 0
core_size = 64
halo = 8
checkpoint_every = 1
aug_flip = false
aug_affine = false
aug_ghost = false
aug_blur = false
aug_gamma = false

[postprocess]
bone_threshold_hu = 200.0
opening_radius = 1
closing_radius = 1
structuring_element = cube

[metrics]
sdsc_tolerance_mm = 1.0

[run]
seed = 0
output_dir = runs/default
"""


@pytest.mark.parametrize("override,hint", [
    ("cut.lerning_rate=1e-3", "did you mean 'learning_rate'"),
    ("lapsr.levels=2", "did you mean 'lapsrn'"),
])
def test_typo_suggests_the_close_name(override, hint):
    with pytest.raises(ConfigError, match=hint):
        load_config(overrides=[override])


def test_an_unopenable_path_raises_opens_own_error(tmp_path):
    (tmp_path / "file").touch()
    for path, error in ((tmp_path / "none.ini", FileNotFoundError), (tmp_path, IsADirectoryError),
                        (tmp_path / "file" / "run.ini", NotADirectoryError)):
        with pytest.raises(error) as info:
            load_config(path)
        assert info.value.filename == str(path)


def test_file_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "run.ini"
    path.write_bytes(b"[run]\nseed = 1 # \xff\n")
    with pytest.raises(ConfigError, match="cannot parse config .*'utf-8' codec can't decode"):
        load_config(path)


def test_typo_in_file_is_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[postprocess]\nbone_threshold=300\n")
    with pytest.raises(ConfigError, match="did you mean 'bone_threshold_hu'"):
        load_config(str(path))


def test_removed_key_is_unknown():
    with pytest.raises(ConfigError, match="unknown config key 'psnr_peak'"):
        load_config(overrides=["metrics.psnr_peak=1.0"])


@pytest.mark.parametrize("override", ["cut.batch_size", "batch_size=3", "=3", "cut.batch_size:3"])
def test_malformed_override(override):
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(overrides=[override])


@pytest.mark.parametrize("override", [
    "cut.batch_size=two", "lapsrn.aug_flip=maybe", "cut.tap_layers=0,x", "data.floor_hu=low",
])
def test_unparsable_value(override):
    with pytest.raises(ConfigError, match="bad value"):
        load_config(overrides=[override])


def test_overrides_win_over_the_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[cut]\nbatch_size = 4\nmax_steps = 7\n")
    cfg = load_config(str(path), ["cut.batch_size=2", "cut.tap_layers=0,2"])
    assert cfg["cut"]["batch_size"] == 2
    assert cfg["cut"]["max_steps"] == 7
    assert cfg["cut"]["tap_layers"] == (0, 2)
    assert cfg["cut"]["num_patches"] == default_config()["cut"]["num_patches"]


def test_dump_then_load_round_trips(tmp_path):
    cfg = load_config(overrides=[
        "cut.tap_layers=0,4", "cut.learning_rate=3e-05", "lapsrn.aug_blur=yes",
        "data.resample_shape=8,8,16", "run.output_dir=runs/x", "postprocess.structuring_element=ball",
    ])
    path = tmp_path / "config.ini"
    path.write_text(dump_config(cfg), encoding="utf-8")
    again = load_config(str(path))
    assert again == cfg
    assert dump_config(again) == dump_config(cfg)


def test_defaults_round_trip(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(dump_config(default_config()), encoding="utf-8")
    assert load_config(str(path)) == default_config()


@pytest.mark.parametrize("settings,override,message", [
    (sr_settings, "lapsrn.levels=0", "levels must be >= 1"),
    (sr_settings, "lapsrn.grad_accum=0", "grad_accum"),
    (segmentation_settings, "postprocess.structuring_element=star", "structuring element"),
])
def test_spec_errors_are_config_errors(settings, override, message):
    with pytest.raises(ConfigError, match=message):
        settings(load_config(overrides=[override]))


SETTINGS = {"data": data_settings, "cut": cut_settings, "lapsrn": sr_settings,
            "postprocess": segmentation_settings, "metrics": metrics_settings,
            "run": run_settings}
FLOAT_KEYS = [f"{sec}.{key}" for sec, keys in REGISTRY.items()
              for key, (parser, _) in keys.items() if parser is float]


def test_every_float_setting_must_be_finite():
    assert "postprocess.bone_threshold_hu" in FLOAT_KEYS and len(FLOAT_KEYS) > 10
    for dotted in FLOAT_KEYS:
        for value in ("nan", "inf", "-inf"):
            # the dataclass's own check may refuse first, with its own message
            with pytest.raises(ConfigError, match="must be"):
                SETTINGS[dotted.split(".")[0]](load_config(overrides=[f"{dotted}={value}"]))
    # its own check takes +inf, and the finiteness check names its key
    with pytest.raises(ConfigError, match=r"\[metrics\] sdsc_tolerance_mm must be finite"):
        metrics_settings(load_config(overrides=["metrics.sdsc_tolerance_mm=inf"]))


def test_default_dump_is_pinned():
    header = f"# resolved configuration (checkpoint format version {FORMAT_VERSION})\n"
    assert dump_config(default_config()) == header + DEFAULT_INI_BODY


def test_default_config_gives_default_settings():
    # the benchmark's paper-default layer shapes and mask_eval rely on this
    cfg = default_config()
    assert cut_settings(cfg) == (
        GeneratorSpec(), DiscriminatorSpec(), ProjectorSpec(), NCEConfig(), CutTrainConfig()
    )
    assert sr_settings(cfg) == (PyramidSpec(), SRTrainConfig())
    assert segmentation_settings(cfg) == SegmentationParams()
