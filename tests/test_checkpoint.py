"""Checkpoint container: atomic saves, loud load failures, the trainers'
settings surviving a save and a load, and the networks' and optimizers' state
layout: a bitwise round trip, and a ValueError naming the file for any mismatch."""

import gc
import json
import os
import re
import struct
import warnings
import zipfile

import numpy as np
import pytest

from skullsynth import FORMAT_VERSION, cut, lapsrn, training
from skullsynth.augment import AugmentationConfig
from skullsynth.checkpoint import load_checkpoint, restore_state, save_checkpoint, save_state
from skullsynth.engine.layers import Module
from skullsynth.engine.optim import SGD, Adam, PlateauDecay
from skullsynth.engine.tensor import Tensor
from skullsynth.volume_io import UNIT, Volume


class _Unpicklable:
    def __reduce__(self):
        raise RuntimeError("cannot serialize")


def test_failed_write_keeps_previous_file(tmp_path, rng):
    path = tmp_path / "cut_epoch0001.npz"
    w = rng.normal(size=(4, 4))
    save_checkpoint(path, {"step": 1}, {"w": w})
    # the object array fails to pickle after the first arrays were written
    with pytest.raises(RuntimeError, match="cannot serialize"):
        save_checkpoint(
            path,
            {"step": 2},
            {"w": rng.normal(size=(64, 64)), "bad": np.array([_Unpicklable()], dtype=object)},
        )
    meta, arrays = load_checkpoint(path)
    assert meta == {"step": 1, "format_version": FORMAT_VERSION}
    assert np.array_equal(arrays["w"], w)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cut_epoch0001.npz"]


@pytest.mark.parametrize("prefix,name", [("cut", "cut_epoch0003.npz"), ("sr", "sr_epoch0003.npz")])
def test_save_in_progress_is_invisible_to_resume(tmp_path, monkeypatch, prefix, name):
    real_savez = np.savez
    in_progress = []

    def savez(fh, **payload):
        real_savez(fh, **payload)
        in_progress.extend(os.listdir(tmp_path))
        with pytest.raises(FileNotFoundError):
            training.latest_checkpoint(tmp_path, prefix)

    monkeypatch.setattr(np, "savez", savez)
    save_checkpoint(tmp_path / name, {}, {"w": np.zeros(2)})
    assert in_progress == [name + ".tmp"]
    assert training.latest_checkpoint(tmp_path, prefix) == str(tmp_path / name)


def test_missing_file_is_file_not_found(tmp_path):
    path = tmp_path / "none.npz"
    with pytest.raises(FileNotFoundError) as info:
        load_checkpoint(path)
    assert info.value.filename == str(path)


def test_format_version_mismatch_raises(tmp_path):
    path = tmp_path / "old.npz"
    meta = json.dumps({"format_version": FORMAT_VERSION + 1}).encode("utf-8")
    np.savez(path, __meta__=np.frombuffer(meta, dtype=np.uint8), w=np.zeros(3))
    with pytest.raises(ValueError, match="format version"):
        load_checkpoint(path)


def test_reserved_key_raises(tmp_path):
    with pytest.raises(ValueError, match="reserved"):
        save_checkpoint(tmp_path / "x.npz", {}, {"__meta__": np.zeros(1)})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fraction", [0.0, 0.5, 0.99])
def test_truncated_file_raises_value_error(tmp_path, rng, fraction):
    path = tmp_path / "cut_epoch0002.npz"
    save_checkpoint(path, {"step": 2}, {"w": rng.normal(size=(8, 8))})
    raw = path.read_bytes()
    path.write_bytes(raw[: int(fraction * len(raw))])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="corrupt or unreadable"):
            load_checkpoint(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_cut_checkpoint_round_trips_its_settings(tmp_path):
    g_spec = cut.GeneratorSpec(base_filters=2, n_downsample=1, n_residual_blocks=1)
    d_spec = cut.DiscriminatorSpec(n_layers=1, base_filters=3)
    p_spec = cut.ProjectorSpec(n_layers=1, embed_dim=5)
    nce_cfg = cut.NCEConfig(num_patches=4, tap_layers=(0, 2), temperature=0.07)
    cfg = cut.CutTrainConfig(lr=1e-3, batch_size=2, gan_mode="lsgan", max_steps=9, seed=5)
    g, d, f, taps = cut.build_networks(g_spec, d_spec, p_spec, nce_cfg, cfg.seed)
    path = tmp_path / "cut.npz"
    cut.save_cut_checkpoint(
        path, g, d, f, Adam(d.parameters(), cfg.lr), Adam(g.parameters() + f.parameters(), cfg.lr),
        cfg, g_spec, d_spec, p_spec, nce_cfg, taps, 3, 1,
        PlateauDecay(cfg.lr, cfg.plateau_patience_epochs, cfg.max_epochs).state(),
    )
    state = cut.load_cut_checkpoint(path)
    loaded = tuple(state[k] for k in ("g_spec", "d_spec", "p_spec", "nce_cfg", "cfg"))
    assert loaded == (g_spec, d_spec, p_spec, nce_cfg, cfg)
    assert state["tap_ids"] == (0, 2)


def test_sr_checkpoint_round_trips_its_settings(tmp_path):
    spec = lapsrn.PyramidSpec(levels=1, filters=3, feat_layers=3, recon_layers=2)
    aug = AugmentationConfig(flip=True, blur=True)
    cfg = lapsrn.SRTrainConfig(lr=1e-3, grad_accum=4, core_size=2, halo=1, seed=7, augment=aug)
    net = lapsrn.build_sr_net(spec, cfg.seed)
    path = tmp_path / "sr.npz"
    lapsrn.save_sr_checkpoint(
        path, net, SGD(net.parameters(), cfg.lr), cfg, spec, 4, 1,
        PlateauDecay(cfg.lr, cfg.plateau_patience_epochs, cfg.max_epochs).state(),
    )
    state = lapsrn.load_sr_checkpoint(path)
    assert (state["spec"], state["cfg"]) == (spec, cfg)


@pytest.mark.parametrize("stored,switches", [
    (None, AugmentationConfig()),
    ({"flip": True, "affine": False, "rot_deg": 10.0, "scale_lo": 0.9, "scale_hi": 1.1,
      "shear": 0.05, "ghost": True, "ghost_amp": 0.1, "blur": False, "blur_sigma_lo": 0.3,
      "blur_sigma_hi": 1.2, "gamma": True, "gamma_lo": 0.7, "gamma_hi": 1.4},
     AugmentationConfig(flip=True, ghost=True, gamma=True)),
], ids=["off as None", "switches and ranges"])
def test_sr_checkpoint_with_an_earlier_augment_entry_loads(tmp_path, stored, switches):
    """Format-3 files written before the augmentation ranges became constants
    store None or all fourteen settings; both load as the switches."""
    spec = lapsrn.PyramidSpec(levels=1, filters=3, feat_layers=3, recon_layers=2)
    cfg = lapsrn.SRTrainConfig(core_size=2, halo=1)
    net = lapsrn.build_sr_net(spec, cfg.seed)
    path = tmp_path / "sr.npz"
    lapsrn.save_sr_checkpoint(
        path, net, SGD(net.parameters(), cfg.lr), cfg, spec, 4, 1,
        PlateauDecay(cfg.lr, cfg.plateau_patience_epochs, cfg.max_epochs).state(),
    )
    meta, arrays = load_checkpoint(path)
    meta["train_config"]["augment"] = stored
    save_checkpoint(path, meta, arrays)
    assert lapsrn.load_sr_checkpoint(path)["cfg"].augment == switches


def test_version_1_checkpoint_is_refused(tmp_path):
    # version 1 stored spec fields that are gone, such as the generator's norm
    path = tmp_path / "cut_v1.npz"
    meta = {"format_version": 1, "kind": "cut",
            "generator_spec": {"base_filters": 2, "norm": "instance"}}
    payload = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, __meta__=payload)
    with pytest.raises(ValueError, match="format version 1"):
        cut.load_cut_checkpoint(path)


def test_version_2_checkpoint_is_refused(tmp_path):
    # version 2 stored the SGD momentum as opt/buf/<i> with a sentinel in meta
    path = tmp_path / "sr_v2.npz"
    meta = {"format_version": 2, "kind": "lapsrn",
            "opt": {"kind": "sgd", "t": 0, "lr": 1e-3, "buf": "__arrays__"}}
    payload = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, __meta__=payload, **{"param/w": np.zeros(2), "opt/buf/0": np.zeros(2)})
    with pytest.raises(ValueError, match="format version 2"):
        lapsrn.load_sr_checkpoint(path)


def _tiny_cut(path):
    g_spec = cut.GeneratorSpec(base_filters=2, n_downsample=1, n_residual_blocks=1)
    d_spec = cut.DiscriminatorSpec(n_layers=1, base_filters=2)
    p_spec = cut.ProjectorSpec(n_layers=1, embed_dim=4)
    nce_cfg = cut.NCEConfig(num_patches=4)
    cfg = cut.CutTrainConfig()
    g, d, f, taps = cut.build_networks(g_spec, d_spec, p_spec, nce_cfg, cfg.seed)
    cut.save_cut_checkpoint(
        path, g, d, f, Adam(d.parameters(), cfg.lr), Adam(g.parameters() + f.parameters(), cfg.lr),
        cfg, g_spec, d_spec, p_spec, nce_cfg, taps, 0, 0,
        PlateauDecay(cfg.lr, cfg.plateau_patience_epochs, cfg.max_epochs).state(),
    )


def _tiny_sr(path):
    spec = lapsrn.PyramidSpec(levels=1, filters=2, feat_layers=3, recon_layers=2)
    cfg = lapsrn.SRTrainConfig()
    net = lapsrn.build_sr_net(spec, cfg.seed)
    lapsrn.save_sr_checkpoint(
        path, net, SGD(net.parameters(), cfg.lr), cfg, spec, 0, 0,
        PlateauDecay(cfg.lr, cfg.plateau_patience_epochs, cfg.max_epochs).state(),
    )


TRAINERS = {"cut": (_tiny_cut, cut.load_cut_checkpoint, "generator_spec"),
            "sr": (_tiny_sr, lapsrn.load_sr_checkpoint, "pyramid_spec")}


@pytest.mark.parametrize("saved,loaded", [("cut", "sr"), ("sr", "cut")])
def test_other_trainers_checkpoint_is_refused(tmp_path, saved, loaded):
    path = tmp_path / f"{saved}.npz"
    TRAINERS[saved][0](path)
    with pytest.raises(ValueError, match="is not a"):
        TRAINERS[loaded][1](path)


def _corrupt(path, key):
    """Flip the last byte of the array `key` inside the .npz at `path`, so
    reading that array, and no other, fails its zip CRC check."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(key + ".npy")
    with open(path, "r+b") as fh:
        fh.seek(info.header_offset + 26)  # the local header's name and extra lengths
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
        fh.seek(info.header_offset + 30 + name_len + extra_len + info.compress_size - 1)
        last = fh.read(1)[0]
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([last ^ 0xFF]))


def test_translate_reads_only_the_generators_arrays(tmp_path, rng):
    path = tmp_path / "cut.npz"
    _tiny_cut(path)
    mr = Volume(rng.random((4, 4, 4)), (1.0,) * 3, UNIT)
    want = cut.translate(cut.load_cut_checkpoint(path), mr).data
    _corrupt(path, "param/d/final.weight")
    np.testing.assert_array_equal(cut.translate(path, mr).data, want)
    with pytest.raises(ValueError, match=re.escape(f"corrupt or unreadable checkpoint {path}")):
        cut.load_cut_checkpoint(path)


def _first(arrays, prefix):
    return min(k for k in arrays if k.startswith(prefix))


TAMPERINGS = {
    "missing parameter": lambda meta, arrays, spec: arrays.pop(_first(arrays, "param/")),
    "extra parameter": lambda meta, arrays, spec: arrays.update({"param/x/w": np.zeros(2)}),
    "missing optimizer slot": lambda meta, arrays, spec: arrays.pop(_first(arrays, "opt/")),
    "missing meta key": lambda meta, arrays, spec: meta.pop("monitor"),
    "unknown spec field": lambda meta, arrays, spec: meta[spec].update(norm="instance"),
    "missing optimizer meta": lambda meta, arrays, spec: meta.pop("optimizers"),
    "parameter shape": lambda meta, arrays, spec: arrays.update(
        {_first(arrays, "param/"): arrays[_first(arrays, "param/")][None]}),
    "optimizer slot shape": lambda meta, arrays, spec: arrays.update(
        {_first(arrays, "opt/"): arrays[_first(arrays, "opt/")][None]}),
    "optimizer kind": lambda meta, arrays, spec: meta["optimizers"][
        min(meta["optimizers"])].update(kind="rmsprop"),
}


@pytest.mark.parametrize("tampering", list(TAMPERINGS))
@pytest.mark.parametrize("trainer", list(TRAINERS))
def test_mismatched_checkpoint_is_a_value_error_naming_the_file(tmp_path, trainer, tampering):
    save, load, spec = TRAINERS[trainer]
    path = tmp_path / f"{trainer}.npz"
    save(path)
    meta, arrays = load_checkpoint(path)
    TAMPERINGS[tampering](meta, arrays, spec)
    save_checkpoint(path, meta, arrays)
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} cannot be restored")):
        load(path)


class _Net(Module):
    def __init__(self, rng):
        self.w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        self.b = Tensor(rng.normal(size=(4,)), requires_grad=True)


def _trained(opt_cls, rng):
    """A net and an optimizer that has taken three steps on random gradients."""
    net = _Net(rng)
    opt = opt_cls(net.parameters(), lr=0.01)
    for _ in range(3):
        for p in net.parameters():
            p.grad = rng.normal(size=p.data.shape)
        opt.step()
    opt.lr = 0.005  # as a schedule leaves it
    return net, opt


@pytest.mark.parametrize("opt_cls", [Adam, SGD])
def test_state_round_trip_is_bitwise(tmp_path, rng, opt_cls):
    net, opt = _trained(opt_cls, rng)
    save_state(tmp_path / "s.npz", {"kind": "test"}, {"net": net}, {"opt": opt})
    meta, arrays = load_checkpoint(tmp_path / "s.npz")
    net2 = _Net(rng)
    opt2 = opt_cls(net2.parameters(), lr=1.0)
    restore_state(meta, arrays, {"net": net2}, {"opt": opt2})
    for (na, pa), (nb, pb) in zip(net.named_parameters(), net2.named_parameters()):
        assert na == nb
        assert pa.data.dtype == pb.data.dtype and np.array_equal(pa.data, pb.data)
    assert (opt2.kind, opt2.t, opt2.lr) == (opt.kind, opt.t, opt.lr) == (opt_cls.kind, 3, 0.005)
    for slot in opt_cls.slots:
        want, got = getattr(opt, slot), getattr(opt2, slot)
        assert len(got) == len(want) == 2
        for a, b in zip(want, got):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("opt_cls", [Adam, SGD])
def test_dropped_slot_array_raises(tmp_path, rng, opt_cls):
    net, opt = _trained(opt_cls, rng)
    save_state(tmp_path / "s.npz", {}, {"net": net}, {"opt": opt})
    meta, arrays = load_checkpoint(tmp_path / "s.npz")
    key = f"opt/opt/{opt_cls.slots[-1]}/1"
    del arrays[key]
    net2 = _Net(rng)
    with pytest.raises(ValueError, match=f"missing array '{key}'"):
        restore_state(meta, arrays, {"net": net2}, {"opt": opt_cls(net2.parameters(), lr=1.0)})

