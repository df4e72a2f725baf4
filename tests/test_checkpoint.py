"""Checkpoint container: atomic saves and loud load failures."""

import gc
import json
import os
import warnings

import numpy as np
import pytest

from skullsynth import FORMAT_VERSION, cut, lapsrn
from skullsynth.checkpoint import load_checkpoint, save_checkpoint


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


@pytest.mark.parametrize("module,name", [(cut, "cut_epoch0003.npz"), (lapsrn, "sr_epoch0003.npz")])
def test_save_in_progress_is_invisible_to_resume(tmp_path, monkeypatch, module, name):
    real_savez = np.savez
    in_progress = []

    def savez(fh, **payload):
        real_savez(fh, **payload)
        in_progress.extend(os.listdir(tmp_path))
        with pytest.raises(FileNotFoundError):
            module.latest_checkpoint(tmp_path)

    monkeypatch.setattr(np, "savez", savez)
    save_checkpoint(tmp_path / name, {}, {"w": np.zeros(2)})
    assert in_progress == [name + ".tmp"]
    assert module.latest_checkpoint(tmp_path) == str(tmp_path / name)


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
