"""Self-describing checkpoint container: one .npz holding arrays plus JSON metadata.

Array keys are free-form strings (parameter names, optimizer slots); metadata
is any JSON-serializable dict and always carries a format version.  Loading a
container with a different format version fails loudly rather than guessing.
Saves are atomic: readers see either the old file or the complete new one.
"""

import contextlib
import json
import os
import zipfile

import numpy as np

from skullsynth import FORMAT_VERSION

_META_KEY = "__meta__"


def save_checkpoint(path, meta: dict, arrays: dict) -> None:
    if _META_KEY in arrays:
        raise ValueError(f"array key {_META_KEY!r} is reserved")
    meta = dict(meta)
    meta["format_version"] = FORMAT_VERSION
    payload = {_META_KEY: np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    for key, arr in arrays.items():
        payload[key] = np.asarray(arr)
    # Write a temp file next to `path`, then rename it over `path`: a crash
    # mid-write leaves the previous checkpoint intact, and the ".tmp" suffix
    # keeps the temp file out of the `*_epoch*.npz` resume globs.
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    try:
        with open(path, "rb") as fh, np.load(fh) as npz:
            if _META_KEY not in npz:
                raise KeyError(_META_KEY)
            meta = json.loads(bytes(npz[_META_KEY].tobytes()).decode("utf-8"))
            arrays = {k: npz[k] for k in npz.files if k != _META_KEY}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"corrupt or unreadable checkpoint {path}: {exc}") from exc
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint {path} has format version {version}, this build expects {FORMAT_VERSION}"
        )
    return meta, arrays


_ARRAY_SENTINEL = "__arrays__"


def optimizer_meta(opt):
    """Optimizer state with array lists replaced by a sentinel; pairs with
    optimizer_arrays, which stores those lists under indexed keys."""
    return {
        k: (_ARRAY_SENTINEL if isinstance(v, list) else v) for k, v in opt.state_dict().items()
    }


def optimizer_arrays(prefix, opt):
    arrays = {}
    for key, value in opt.state_dict().items():
        if isinstance(value, list):
            for i, arr in enumerate(value):
                arrays[f"{prefix}/{key}/{i}"] = arr
    return arrays


def load_optimizer(prefix, opt, meta_state, arrays):
    state = dict(meta_state)
    for key in list(state):
        if state[key] == _ARRAY_SENTINEL:
            seq = []
            i = 0
            while f"{prefix}/{key}/{i}" in arrays:
                seq.append(arrays[f"{prefix}/{key}/{i}"])
                i += 1
            state[key] = seq
    opt.load_state_dict(state)
