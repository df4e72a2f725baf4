"""Self-describing checkpoint container: one .npz holding arrays plus JSON metadata.

`save_checkpoint`/`load_checkpoint` store free-form array keys next to a
JSON-serializable metadata dict that always carries a format version.
Loading a container with a different format version fails loudly rather
than guessing.  Saves are atomic: readers see either the old file or the
complete new one.

`save_state`/`restore_state` are the only code that knows how networks and
optimizers are stored; the trainers use them, format version 3.  Networks
and optimizers are passed as ``{name: object}`` dicts:

- ``param/<module>/<parameter name>``: each network parameter;
- ``opt/<optimizer>/<slot>/<i>``: slot `slot` (Adam ``m``/``v``, SGD ``buf``)
  of the optimizer's i-th parameter;
- ``meta["optimizers"][<optimizer>]``: its ``{"kind", "t", "lr"}``.

`restore_state` checks every array's shape against its parameter and every
optimizer's kind, refuses missing and unexpected arrays, and casts each array
to its parameter's dtype, so a format-3 file written in float64 loads into
float32 networks.  The rest of the metadata (kind, step, epoch, settings,
schedule state) is the caller's.  Loaders build their networks from it
inside `restoring(path)`, so a file that does not fit them fails with a
ValueError naming it.
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


def save_state(path, meta: dict, modules: dict, optimizers: dict) -> None:
    """Save `modules` and `optimizers` under the layout above, plus `meta`."""
    arrays = {
        f"param/{name}/{key}": p.data
        for name, net in modules.items()
        for key, p in net.named_parameters()
    }
    meta = dict(meta, optimizers={})
    for name, opt in optimizers.items():
        for slot in opt.slots:
            arrays.update((f"opt/{name}/{slot}/{i}", a) for i, a in enumerate(getattr(opt, slot)))
        meta["optimizers"][name] = {"kind": opt.kind, "t": opt.t, "lr": opt.lr}
    save_checkpoint(path, meta, arrays)


def restore_state(meta: dict, arrays: dict, modules: dict, optimizers: dict) -> None:
    """Load what `save_state` stored into `modules` and `optimizers`, which
    the caller builds from the settings in `meta`.  Raises ValueError unless
    the file holds exactly the arrays they need, in their shapes."""
    unread = dict(arrays)

    def take(key, param):
        """The array stored under `key`: a copy, cast to `param`'s dtype."""
        if key not in unread:
            raise ValueError(f"missing array {key!r}")
        arr = unread.pop(key)
        if arr.shape != param.data.shape:
            raise ValueError(f"{key}: shape {arr.shape} != {param.data.shape}")
        return arr.astype(param.data.dtype)

    for name, net in modules.items():
        for key, p in net.named_parameters():
            p.data = take(f"param/{name}/{key}", p)
    for name, opt in optimizers.items():
        state = meta["optimizers"][name]
        if state["kind"] != opt.kind:
            raise ValueError(f"optimizer {name!r} is {opt.kind!r}, the file's is {state['kind']!r}")
        for slot in opt.slots:
            setattr(opt, slot, [take(f"opt/{name}/{slot}/{i}", p) for i, p in enumerate(opt.params)])
        opt.t = int(state["t"])
        opt.lr = float(state["lr"])
    if unread:
        raise ValueError(f"unexpected arrays {sorted(unread)[:4]}")


@contextlib.contextmanager
def restoring(path):
    """Report metadata or arrays that do not fit the settings, networks and
    optimizers built from them as a ValueError naming the file, as a
    malformed file is."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path} cannot be restored: {type(exc).__name__}: {exc}") from exc
