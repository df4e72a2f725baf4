"""Self-describing checkpoint container: one .npz holding arrays plus JSON metadata.

`save_checkpoint`/`load_checkpoint` store free-form array keys next to a
JSON-serializable metadata dict that always carries a format version.
Loading a container of another format version fails loudly rather than
guessing; any error opening the path is `open`'s own.  A load can
read just the arrays under a key prefix; the others are neither read nor
checked.  `replacing` is the one writer of the files a resume reads back
(checkpoints, run log, ``config.ini``): readers see the old file or the new.

`save_run`/`load_run`, through `save_state`/`restore_state`, are the only
code that knows the trainers' run record, format version 3:

- ``meta["kind"]``: ``"cut"`` or ``"lapsrn"``; a loader refuses the other;
- ``meta["step"]``, ``meta["epoch"]``: optimizer steps and epochs done;
- ``meta["monitor"]``: the learning-rate schedule's `PlateauDecay` state,
  with the monitored values of an epoch in progress if a run stopped in one;
- the trainer's settings, each dataclass as its field dict: for CUT
  ``train_config``, ``generator_spec``, ``discriminator_spec``,
  ``projector_spec``, ``nce_config`` and the derived ``tap_ids``; for
  LapSRN ``train_config`` (its ``augment`` nested) and ``pyramid_spec``;
- ``param/<module>/<parameter name>``: each network parameter (CUT modules
  ``g``, ``d``, ``f``; LapSRN ``net``);
- ``opt/<optimizer>/<slot>/<i>``: slot `slot` (Adam ``m``/``v``, SGD ``buf``)
  of the optimizer's i-th parameter (CUT ``opt_d``, ``opt_g``; LapSRN ``opt``);
- ``meta["optimizers"][<optimizer>]``: its ``{"kind", "t", "lr"}``.

Each trainer names the metadata key and type of its settings and one
function that builds its networks and optimizers from them; `load_run` builds
them from the file's settings, or from the caller's training config in place
of the file's, and restores their arrays.  `restore_state`
checks every array's shape against its parameter and every optimizer's kind,
refuses missing and unexpected arrays, and casts each array to its
parameter's dtype, so a format-3 file written in float64 loads into float32
networks.  A file whose record does not fit fails with a ValueError naming it.
"""

import contextlib
import dataclasses
import json
import os
import zipfile

import numpy as np

from skullsynth import FORMAT_VERSION
from skullsynth.engine.layers import Module
from skullsynth.engine.optim import Optimizer

_META_KEY = "__meta__"


@contextlib.contextmanager
def replacing(path, mode, **open_kwargs):
    """``open(<path>.tmp, mode, **open_kwargs)``, synced and renamed over
    `path` once the body has written it: a crash or an exception mid-write
    leaves the previous file and no temp file.  The ".tmp" suffix keeps the
    temp file out of the `*_epoch*.npz` resume globs."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_checkpoint(path, meta: dict, arrays: dict) -> None:
    if _META_KEY in arrays:
        raise ValueError(f"array key {_META_KEY!r} is reserved")
    meta = dict(meta)
    meta["format_version"] = FORMAT_VERSION
    payload = {_META_KEY: np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    for key, arr in arrays.items():
        payload[key] = np.asarray(arr)
    with replacing(path, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path, prefix=""):
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as npz:
                if _META_KEY not in npz:
                    raise KeyError(_META_KEY)
                meta = json.loads(bytes(npz[_META_KEY].tobytes()).decode("utf-8"))
                arrays = {k: npz[k] for k in npz.files if k != _META_KEY and k.startswith(prefix)}
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


def save_run(path, kind, keys, state):
    """Save a run record `state`, as `load_run` returns it: its networks and
    optimizers; `step`, `epoch` and `monitor`; and settings, each under its
    metadata key in `keys` (``{name: (key, type)}``), or else its own name."""
    modules = {k: v for k, v in state.items() if isinstance(v, Module)}
    optimizers = {k: v for k, v in state.items() if isinstance(v, Optimizer)}
    meta = {"kind": kind, "step": state["step"], "epoch": state["epoch"]}
    for name, value in state.items():
        if name not in {*modules, *optimizers, "step", "epoch", "monitor"}:
            key = keys[name][0] if name in keys else name
            meta[key] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    meta["monitor"] = state["monitor"]
    save_state(path, meta, modules, optimizers)


def load_run(path, kind, keys, build, prefix="", cfg=None):
    """The run record `save_run` wrote, as one dict: the networks, optimizers
    and settings that ``build(*settings)`` returns, with `step`, `epoch` and
    `monitor`.  Each setting is ``type(**meta[key])`` for the (key, type)
    pairs of `keys`, in order; `cfg`, if given, takes the place of the first,
    the training config.  With `prefix`, only the arrays under it are read,
    and `build` must build just the networks they hold."""
    meta, arrays = load_checkpoint(path, prefix)
    if meta.get("kind") != kind:
        raise ValueError(f"{path} is not a {kind!r} checkpoint (kind={meta.get('kind')!r})")
    try:
        stored = [read(**meta[key]) for key, read in keys.values()]
        if cfg is not None:
            stored[0] = cfg
        modules, optimizers, settings = build(*stored)
        restore_state(meta, arrays, modules, optimizers)
        return {**modules, **optimizers, **settings, "step": int(meta["step"]),
                "epoch": int(meta["epoch"]), "monitor": meta["monitor"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"checkpoint {path} cannot be restored: {type(exc).__name__}: {exc}") from exc
