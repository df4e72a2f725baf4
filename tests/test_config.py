"""INI configuration: strict keys with suggestions, overrides, and a lossless dump."""

import pytest

from skullsynth.config import (
    ConfigError,
    default_config,
    dump_config,
    load_config,
    save_config,
    segmentation_settings,
    sr_settings,
)


@pytest.mark.parametrize("override,hint", [
    ("cut.lerning_rate=1e-3", "did you mean 'learning_rate'"),
    ("lapsr.levels=2", "did you mean 'lapsrn'"),
])
def test_typo_suggests_the_close_name(override, hint):
    with pytest.raises(ConfigError, match=hint):
        load_config(overrides=[override])


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
    save_config(cfg, str(path))
    again = load_config(str(path))
    assert again == cfg
    assert dump_config(again) == dump_config(cfg)


def test_defaults_round_trip(tmp_path):
    path = tmp_path / "config.ini"
    save_config(default_config(), str(path))
    assert load_config(str(path)) == default_config()


@pytest.mark.parametrize("settings,override,message", [
    (sr_settings, "lapsrn.levels=0", "levels must be >= 1"),
    (sr_settings, "lapsrn.grad_accum=0", "grad_accum"),
    (segmentation_settings, "postprocess.structuring_element=star", "structuring element"),
])
def test_spec_errors_are_config_errors(settings, override, message):
    with pytest.raises(ConfigError, match=message):
        settings(load_config(overrides=[override]))
