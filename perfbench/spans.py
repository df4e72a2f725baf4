"""Span tracing of the skullsynth pipeline from outside the package.

`Tracer.install` replaces each public callable listed in `_targets` at the
attribute its caller looks it up by: a module global (``ops`` calls
``kernels.conv3d_forward``, ``lapsrn`` binds ``chunk_volume`` by name) or a
class attribute (``Tensor.backward``, ``Generator.__call__``).  Each call
records a span (name, start, end, parent) in memory; `Tracer.restore` puts
the originals back.  Summaries derive self time (a span's duration minus its
child spans) and a kernel table keyed by convolution shape.
"""

import functools
import inspect
import os
import time
from dataclasses import dataclass

import numpy as np

CONV_KERNELS = (
    "conv3d_forward",
    "conv3d_backward_input",
    "conv3d_backward_weight",
    "tconv3d_forward",
    "tconv3d_backward_input",
    "tconv3d_backward_weight",
)
OTHER_KERNELS = ("dilate", "erode", "resample3d")
CONV_SPANS = frozenset(f"kernels.{n}" for n in CONV_KERNELS)


def _targets():
    """(owner, attribute, span name) for every wrapped callable."""
    from skullsynth import augment, checkpoint, cut, lapsrn, metrics, postprocess, volume_io
    from skullsynth.engine import kernels, optim, tensor

    out = [(kernels, n, f"kernels.{n}") for n in CONV_KERNELS + OTHER_KERNELS]
    out += [
        (tensor.Tensor, "backward", "tensor.backward"),
        (optim.Adam, "step", "optim.Adam.step"),
        (optim.SGD, "step", "optim.SGD.step"),
        # the training loop runs the encoder alone through `encode`
        (cut.Generator, "__call__", "cut.Generator"),
        (cut.Generator, "encode", "cut.Generator"),
        (cut.Discriminator, "__call__", "cut.Discriminator"),
        (cut, "project_features", "cut.project_features"),
        (cut, "nce_from_stacks", "cut.nce_from_stacks"),
        (cut, "gan_losses", "cut.gan_losses"),
        (cut, "translate", "cut.translate"),
        (lapsrn.SRNet, "__call__", "lapsrn.SRNet"),
        (lapsrn, "charbonnier_loss", "lapsrn.charbonnier_loss"),
        (lapsrn, "make_lr_hr_pairs", "lapsrn.make_lr_hr_pairs"),
        (lapsrn, "super_resolve", "lapsrn.super_resolve"),
        (lapsrn, "chunk_volume", "chunks.chunk_volume"),
        (lapsrn, "assemble_chunks", "chunks.assemble_chunks"),
        (lapsrn, "augment", "augment.augment"),
        (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
        (volume_io, "load_volume", "volume_io.load_volume"),
        (volume_io, "save_volume", "volume_io.save_volume"),
        (postprocess, "histogram_match", "postprocess.histogram_match"),
        (postprocess, "segment_from_matched", "postprocess.segment_from_matched"),
        (metrics, "dice", "metrics.dice"),
        (metrics, "surface_dice", "metrics.surface_dice"),
    ]
    return out


# ---------------------------------------------------------------------------
# computed work of one convolution kernel call
# ---------------------------------------------------------------------------


def _out_dim(n, k, stride, pad):
    return (n + 2 * pad - k) // stride + 1


def conv_row(op, a):
    """(key, gflop, computed bytes) of one kernel call from its bound arguments.

    The key is (op, c_in, c_out, k, stride, spatial) with c_in/c_out and the
    spatial shape of the layer's forward input, whatever the direction.
    Bytes are the operands read plus the result written, once each.
    """
    stride, pad = a["stride"], a["pad"]
    if op == "conv3d_forward":
        x, w = a["x"], a["w"]
        c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2]
        spatial = x.shape[1:]
        out = tuple(_out_dim(n, k, stride, pad) for n in spatial)
        flop_sites = int(np.prod(out))
        elems = x.size + w.size + c_out * flop_sites
        itemsize = x.itemsize
    elif op == "conv3d_backward_input":
        gy, w, in_shape = a["gy"], a["w"], a["in_shape"]
        c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2]
        spatial = tuple(in_shape[1:])
        flop_sites = int(np.prod(gy.shape[1:]))
        elems = gy.size + w.size + int(np.prod(in_shape))
        itemsize = gy.itemsize
    elif op == "conv3d_backward_weight":
        gy, x, k = a["gy"], a["x"], a["k"]
        c_out, c_in = gy.shape[0], x.shape[0]
        spatial = x.shape[1:]
        flop_sites = int(np.prod(gy.shape[1:]))
        elems = gy.size + x.size + c_out * c_in * k**3
        itemsize = gy.itemsize
    elif op == "tconv3d_forward":
        x, w = a["x"], a["w"]
        c_in, c_out, k = w.shape[0], w.shape[1], w.shape[2]
        spatial = x.shape[1:]
        flop_sites = int(np.prod(spatial))
        out = tuple((n - 1) * stride + k - 2 * pad for n in spatial)
        elems = x.size + w.size + c_out * int(np.prod(out))
        itemsize = x.itemsize
    elif op == "tconv3d_backward_input":
        gy, w, in_shape = a["gy"], a["w"], a["in_shape"]
        c_in, c_out, k = w.shape[0], w.shape[1], w.shape[2]
        spatial = tuple(in_shape[1:])
        flop_sites = int(np.prod(spatial))
        elems = gy.size + w.size + int(np.prod(in_shape))
        itemsize = gy.itemsize
    elif op == "tconv3d_backward_weight":
        gy, x, k = a["gy"], a["x"], a["k"]
        c_in, c_out = x.shape[0], gy.shape[0]
        spatial = x.shape[1:]
        flop_sites = int(np.prod(spatial))
        elems = gy.size + x.size + c_in * c_out * k**3
        itemsize = gy.itemsize
    else:
        raise ValueError(f"not a convolution kernel: {op}")
    key = (op, int(c_in), int(c_out), int(k), int(stride), "x".join(str(int(n)) for n in spatial))
    gflop = 2.0 * c_in * c_out * k**3 * flop_sites / 1e9
    return key, gflop, elems * itemsize


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    info: object = None  # conv key/flop/bytes, checkpoint MB or chunk voxels


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []

    def install(self):
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._saved.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, original, name):
        describe = _DESCRIBERS.get(name)
        signature = inspect.signature(original) if describe else None
        spans, open_stack = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_stack[-1] if open_stack else -1)
            open_stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_stack.pop()
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = describe(name, bound.arguments, result)
            return result

        return traced


def _describe_conv(name, a, result):
    return conv_row(name.split(".", 1)[1], a)


def _describe_file(name, a, result):
    return os.path.getsize(a["path"]) / 1e6


def _describe_chunks(name, a, result):
    computed = sum(c.data.size for c in result)
    return computed, int(np.prod(a["grid"].source_shape))


_DESCRIBERS = dict.fromkeys(CONV_SPANS, _describe_conv)
_DESCRIBERS.update(
    {
        "checkpoint.save_checkpoint": _describe_file,
        "checkpoint.load_checkpoint": _describe_file,
        "chunks.chunk_volume": _describe_chunks,
    }
)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def by_name(spans):
    """name -> {calls, s (outermost spans only), self_s, spans}."""
    selfs = self_times(spans)
    out = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "spans": []})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["spans"].append(s)
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["s"] += s.end - s.start
    return out


def kernel_table(spans):
    """Rows keyed by (op, c_in, c_out, k, stride, spatial): calls, self ms, GFLOP, bytes."""
    selfs = self_times(spans)
    rows = {}
    for s, self_s in zip(spans, selfs):
        if s.name not in CONV_SPANS:
            continue
        key, gflop, nbytes = s.info
        row = rows.setdefault(key, {"calls": 0, "self_ms": 0.0, "gflop": 0.0, "bytes": 0})
        row["calls"] += 1
        row["self_ms"] += self_s * 1e3
        row["gflop"] += gflop
        row["bytes"] += nbytes
    for row in rows.values():
        row["gflop_per_s"] = row["gflop"] / (row["self_ms"] / 1e3) if row["self_ms"] > 0 else 0.0
    return rows


# ---------------------------------------------------------------------------
# paper-default convolution shapes, timed once per direction
# ---------------------------------------------------------------------------

PAPER_EDGE = 32  # input edge of every paper-default network timed here


def conv_layers(nets, edge, specs):
    """Distinct (op, c_in, c_out, k, stride, pad, edge) of the conv layers of
    the networks run on an edge^3 input.

    ``nets`` is "cut" with ``specs`` (GeneratorSpec, DiscriminatorSpec), or
    "sr" with (PyramidSpec,) for one LapSRN level.  The walk mirrors the
    constructors in ``cut`` and ``lapsrn``; every residual block repeats one
    shape, listed once.  `forward_keys` lets a traced run check the walk.
    """
    n = edge
    layers = []
    if nets == "cut":
        g, d = specs
        c = g.base_filters
        layers.append(("conv", 1, c, 3, 1, 1, edge))
        for _ in range(g.n_downsample):
            layers.append(("conv", c, 2 * c, 3, 2, 1, edge))
            c, edge = 2 * c, _out_dim(edge, 3, 2, 1)
        layers.append(("conv", c, c, 3, 1, 1, edge))
        for _ in range(g.n_downsample):
            layers.append(("tconv", c, c // 2, 4, 2, 1, edge))
            c, edge = c // 2, 2 * edge
        layers.append(("conv", c, 1, 3, 1, 1, edge))
        f = d.base_filters
        layers.append(("conv", 1, f, 4, 2, 1, n))
        c, edge = f, _out_dim(n, 4, 2, 1)
        for i in range(1, d.n_layers):
            nxt = min(f * 2**i, f * 8)
            layers.append(("conv", c, nxt, 4, 2, 1, edge))
            c, edge = nxt, _out_dim(edge, 4, 2, 1)
        nxt = min(c * 2, f * 8)
        layers.append(("conv", c, nxt, 4, 1, 1, edge))
        layers.append(("conv", nxt, 1, 4, 1, 1, _out_dim(edge, 4, 1, 1)))
    elif nets == "sr":
        (s,) = specs
        f = s.filters
        layers.append(("conv", 1, f, 3, 1, 1, n))
        if s.feat_layers > 3:
            layers.append(("conv", f, f, 3, 1, 1, n))
        layers.append(("tconv", f, f, 4, 2, 1, n))
        layers.append(("conv", f, 1, 3, 1, 1, 2 * n))
        layers.append(("conv", 1, 1, 3, 1, 1, n))  # recon_layers >= 2 gives at least one
        layers.append(("tconv", 1, 1, 4, 2, 1, n))
    else:
        raise ValueError(f"unknown network set {nets!r}")
    return list(dict.fromkeys(layers))


def forward_keys(layers):
    """Kernel-table keys of the forward calls of ``layers``."""
    return {(f"{op}3d_forward", ci, co, k, s, f"{e}x{e}x{e}") for op, ci, co, k, s, _, e in layers}


def paper_default_layers(nets):
    """`conv_layers` of the paper-default networks (spec defaults) at 32^3."""
    from skullsynth.cut import DiscriminatorSpec, GeneratorSpec
    from skullsynth.lapsrn import PyramidSpec

    specs = (GeneratorSpec(), DiscriminatorSpec()) if nets == "cut" else (PyramidSpec(),)
    return conv_layers(nets, PAPER_EDGE, specs)


def time_paper_default(nets, seed):
    """Run each paper-default shape forward, backward-input and backward-weight
    once on random operands; returns the kernel table of those calls."""
    from skullsynth.engine import kernels

    rng = np.random.default_rng(seed)
    tracer = Tracer()
    with tracer:
        for op, c_in, c_out, k, stride, pad, edge in paper_default_layers(nets):
            x = rng.standard_normal((c_in, edge, edge, edge))
            if op == "conv":
                w = rng.standard_normal((c_out, c_in, k, k, k))
                gy = rng.standard_normal(kernels.conv3d_forward(x, w, stride, pad).shape)
                kernels.conv3d_backward_input(gy, w, x.shape, stride, pad)
                kernels.conv3d_backward_weight(gy, x, k, stride, pad)
            else:
                w = rng.standard_normal((c_in, c_out, k, k, k))
                gy = rng.standard_normal(kernels.tconv3d_forward(x, w, stride, pad).shape)
                kernels.tconv3d_backward_input(gy, w, x.shape, stride, pad)
                kernels.tconv3d_backward_weight(gy, x, k, stride, pad)
    return kernel_table(tracer.spans)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

TIMED = (
    "optim.Adam.step", "optim.SGD.step",
    "cut.Generator", "cut.Discriminator", "cut.project_features", "cut.nce_from_stacks",
    "cut.gan_losses", "cut.translate",
    "lapsrn.SRNet", "lapsrn.charbonnier_loss", "lapsrn.make_lr_hr_pairs", "lapsrn.super_resolve",
    "chunks.chunk_volume", "chunks.assemble_chunks",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "volume_io.load_volume", "volume_io.save_volume",
    "augment.augment",
    "postprocess.histogram_match", "postprocess.segment_from_matched",
    "metrics.dice", "metrics.surface_dice",
)


def layer_values(spans, units):
    """Per-layer metrics of one traced pass, each divided by ``units`` of work."""
    names = by_name(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "spans": []}
    v = {}
    kernel_self = 0.0
    for k in CONV_KERNELS + OTHER_KERNELS:
        row = names.get(f"kernels.{k}", empty)
        kernel_self += row["self_s"]
        v[f"kernels.{k}.calls"] = row["calls"] / units
        v[f"kernels.{k}.s"] = row["s"] / units
        if k in CONV_KERNELS:
            gflop = sum(s.info[1] for s in row["spans"])
            v[f"kernels.{k}.gflop"] = gflop / units
            v[f"kernels.{k}.gflop_per_s"] = gflop / row["s"] if row["s"] else 0.0
    v["trace.kernel_self_s"] = kernel_self / units
    v["tensor.backward.self_s"] = names.get("tensor.backward", empty)["self_s"] / units
    for name in TIMED:
        v[f"{name}.s"] = names.get(name, empty)["s"] / units
    for name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        v[f"{name}.mb"] = sum(s.info for s in names.get(name, empty)["spans"]) / units
    chunk_spans = names.get("chunks.chunk_volume", empty)["spans"]
    core = sum(s.info[1] for s in chunk_spans)
    v["chunks.halo_ratio"] = sum(s.info[0] for s in chunk_spans) / core if core else 0.0
    return v


def paper_totals(rows):
    """Seconds per direction summed over a paper-default kernel table."""
    v = dict.fromkeys(("paper_default.fwd_s", "paper_default.bwd_input_s",
                       "paper_default.bwd_weight_s"), 0.0)
    for (op, *_), row in rows.items():
        direction = "fwd" if op.endswith("forward") else "bwd_" + op.rsplit("_", 1)[1]
        v[f"paper_default.{direction}_s"] += row["self_ms"] / 1e3
    return v
