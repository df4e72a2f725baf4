"""Pipeline benchmark for skullsynth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and from nowhere else.  The seed makes every input.  One
process runs one workload: set-up, the workload's checks, a warm-up
operation, then operations until ``--seconds`` have passed, with set-up
repeated between the first of them (median reported).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` repeats the first MIN_OPS measured operations with every
public function of the pipeline wrapped in spans and reports the per-layer
metrics, each per unit of work (an optimizer step for training, a volume
otherwise), plus the tracing overhead against the same operations untraced;
the training workloads also time every convolution shape of the
paper-default networks once per direction.  Spans, the kernel table
and the environment go to ``.bench_out/trace-<workload>-seed<N>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without a ``src/skullsynth``
beside this directory the benchmark exits with code 2 and prints no result.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 2.0
MIN_OPS = 3

# Which end-to-end metric each layer should move, and on which workload.
# peak_rss_mb is what a compute-dtype change should move, on every workload.
MOVES = {
    "kernels.conv3d_forward": "op_s on train_cut, train_sr and infer",
    "kernels.tconv3d_forward": "op_s on train_cut, train_sr and infer",
    "kernels.conv3d_backward": "op_s on train_cut and train_sr only",
    "kernels.tconv3d_backward": "op_s on train_cut and train_sr only",
    "kernels.dilate": "op_s on mask_eval; infer slightly",
    "kernels.erode": "op_s on mask_eval; infer slightly",
    "kernels.resample3d": "op_s on train_sr (make_lr_hr_pairs)",
    "tensor.backward": "op_s on train_cut and train_sr",
    "optim.Adam": "op_s on train_cut",
    "optim.SGD": "op_s on train_sr",
    "cut.translate": "op_s on infer",
    "cut.Generator": "op_s on train_cut and infer",
    "cut": "op_s on train_cut",
    "lapsrn.super_resolve": "op_s on infer",
    "lapsrn.SRNet": "op_s on train_sr and infer",
    "lapsrn": "op_s on train_sr",
    "chunks": "op_s on infer and train_sr",
    "checkpoint.save_checkpoint": "op_s on train_cut and train_sr",
    "checkpoint.load_checkpoint": "op_s on infer (each call reloads both checkpoints)",
    "volume_io": "op_s on infer, train_cut and train_sr; setup_s",
    "augment": "op_s on train_sr",
    "postprocess": "op_s on mask_eval and infer",
    "metrics": "op_s on mask_eval",
    "trace.wall_s": "op_s of the same workload, traced",
    "trace.kernel_self_s": "op_s on train_cut, train_sr and infer; mask_eval slightly",
    "trace.overhead_s": "nothing: the cost of tracing itself",
    "paper_default": "op_s on train_cut (G and D) or train_sr (SR level) at paper width; not gated",
}


def _pin_blas_threads():
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            threads = min(threads, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    threads = max(1, threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or None


def _commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(nproc, threads):
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": threads,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


def _ops(workload, indices, tracer=None):
    """Run and verify operations; (seconds per unit, failures, figures) each."""
    out = []
    for i in indices:
        with tracer or contextlib.nullcontext():
            seconds, result = workload.run(i)
        failures, figures = workload.verify(i, result)
        out.append((seconds, failures, figures))
    return out


def _setup(workload, work, seed, times):
    """One timed set-up into a fresh directory, replacing the previous one."""
    target = os.path.join(work, f"setup{len(times)}")
    os.makedirs(target)
    t0 = time.perf_counter()
    workload.setup(target, seed)
    times.append(time.perf_counter() - t0)
    if len(times) > 1:
        shutil.rmtree(os.path.join(work, f"setup{len(times) - 2}"))


def _ops_for(workload, work, seed, seconds, setup_s):
    """Operations 1, 2, ... until ``seconds`` have passed (at least MIN_OPS).

    Set-up is repeated before the first operations (at least MIN_SETUPS
    times in all, more while under SETUP_BUDGET_S), so the set-up median
    sees the same host conditions as the operations.
    """
    out = []
    t0 = time.perf_counter()
    while len(out) < MIN_OPS or time.perf_counter() - t0 < seconds:
        if len(setup_s) < MIN_SETUPS or (
            sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < MAX_SETUPS
        ):
            _setup(workload, work, seed, setup_s)
        out += _ops(workload, [len(out) + 1])
    return out


def _moves(name):
    best = max((p for p in MOVES if name.startswith(p)), key=len, default=None)
    return MOVES[best] if best else ""


def _print_table(title, rows):
    print(title)
    print(f"  {'op':<24} {'c_in':>5} {'c_out':>5} {'k':>2} {'s':>2} {'spatial':>9} "
          f"{'calls':>6} {'self_ms':>10} {'GFLOP':>9} {'MB':>9} {'GFLOP/s':>8}")
    for key, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"]):
        op, c_in, c_out, k, stride, spatial = key
        print(f"  {op:<24} {c_in:>5} {c_out:>5} {k:>2} {stride:>2} {spatial:>9} "
              f"{r['calls']:>6} {r['self_ms']:>10.2f} {r['gflop']:>9.4f} "
              f"{r['bytes'] / 1e6:>9.2f} {r['gflop_per_s']:>8.3f}")


def _table_json(rows):
    return [dict(zip(("op", "c_in", "c_out", "k", "stride", "spatial"), key), **row)
            for key, row in rows.items()]


def _measure(workload, args):
    """Set-up, checks, warm-up, measured pass and (traced) repeat pass."""
    import spans

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    m = {"setup_s": [], "traced": [], "tracer": None, "paper_rows": {}}
    try:
        _setup(workload, work, args.seed, m["setup_s"])
        m["checks"] = workload.checks()
        # operation 0 warms allocator and library paths a process pays once
        m["warmup"] = _ops(workload, [0])
        m["plain"] = _ops_for(workload, work, args.seed, args.seconds, m["setup_s"])
        if args.trace:
            m["tracer"] = spans.Tracer()
            m["traced"] = _ops(workload, range(1, min(len(m["plain"]), MIN_OPS) + 1), m["tracer"])
            if workload.paper_nets:
                m["paper_rows"] = spans.time_paper_default(workload.paper_nets, args.seed)
                walked = set().union(*(
                    spans.forward_keys(spans.conv_layers(workload.paper_nets, e, workload.net_specs))
                    for e in workload.net_edges
                ))
                seen = {k for k in spans.kernel_table(m["tracer"].spans) if k[0].endswith("forward")}
                m["checks"].append(
                    ("the shape walk timed at paper width matches the traced forward shapes",
                     walked == seen)
                )
    finally:
        shutil.rmtree(work)
    return m


def _trace_values(workload, args, m, env):
    """Per-layer values; prints the kernel tables and writes the trace file."""
    import spans

    recorded, units = m["tracer"].spans, len(m["traced"]) * workload.units_per_op
    values = spans.layer_values(recorded, units)
    values.update(spans.paper_totals(m["paper_rows"]))
    traced_s = [t[0] for t in m["traced"]]
    values["trace.wall_s"] = statistics.fmean(traced_s)
    values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(
        t[0] for t in m["plain"][: len(traced_s)]
    )
    table = spans.kernel_table(recorded)
    _print_table(f"kernel table, traced pass ({units} {workload.unit}s):", table)
    if m["paper_rows"]:
        _print_table(f"kernel table, paper-default {workload.paper_nets} shapes at "
                     f"{spans.PAPER_EDGE}^3, one call per direction:", m["paper_rows"])
    share = values["trace.kernel_self_s"] / values["trace.wall_s"]
    print(f"kernel self time is {share:.1%} of traced wall time per {workload.unit}")
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "env": env,
            "workload": args.workload,
            "seed": args.seed,
            "units": units,
            "per_layer": values,
            "kernel_table": _table_json(table),
            "paper_default_table": _table_json(m["paper_rows"]),
            "spans": [[s.name, s.start, s.end, s.parent] for s in recorded],
        }, fh)
    print(f"spans and tables written to {os.path.relpath(path, ROOT)}")
    return values


def _end_to_end_values(workload, m):
    unit_s = [t[0] for t in m["plain"]]
    setup_s = m["setup_s"]
    print(f"setup_s median of {len(setup_s)}: {', '.join(f'{s:.4f}' for s in setup_s)}")
    print(f"op_s median of {len(unit_s)} after a warm-up of {m['warmup'][0][0]:.4f} s; "
          f"seconds per {workload.unit}: {', '.join(f'{s:.4f}' for s in unit_s)}")
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_s": statistics.median(unit_s),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    for needed in (os.path.join(SRC, "skullsynth", "__init__.py"), bench_path):
        if not os.path.isfile(needed):
            print(f"error: {needed} is missing; run from a source checkout", file=sys.stderr)
            return 2
    nproc, threads = _pin_blas_threads()
    sys.path.insert(0, SRC)
    import skullsynth

    if not os.path.abspath(skullsynth.__file__).startswith(SRC + os.sep):
        print(f"error: skullsynth imported from {skullsynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    env = environment(nproc, threads)
    print("env " + json.dumps(env))

    workload = workloads.WORKLOADS[args.workload]()
    try:
        m = _measure(workload, args)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    passes = [("warm-up", m["warmup"]), ("measured", m["plain"]), ("traced", m["traced"])]
    failures = [name for name, ok in m["checks"] if not ok]
    failures += [f"{label} op {i}: {f}" for label, ops in passes
                 for i, (_, fs, _) in enumerate(ops) for f in fs]
    outcomes = [o for _, ops in passes for o in ops]
    failed = sum(1 for _, ok in m["checks"] if not ok) + sum(1 for _, fs, _ in outcomes if fs)
    attempted = len(m["checks"]) + len(outcomes)

    print(f"workload {args.workload} seed {args.seed}: {len(m['plain'])} operations of "
          f"{workload.units_per_op} {workload.unit}(s) in the measured pass")
    for name, ok in m["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for f in failures:
        print(f"failure: {f}")
    figures = {}
    for _, _, fig in outcomes:
        for key, value in fig.items():
            figures.setdefault(key, []).append(value)
    for key, values in figures.items():
        print(f"{key} mean {statistics.fmean(values):.6g} over {len(values)} operations")

    if args.trace:
        values, wanted = _trace_values(workload, args, m, env), bench["per_layer"]
    else:
        values, wanted = _end_to_end_values(workload, m), bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        moves = f"  -> {_moves(name)}" if args.trace else ""
        print(f"{name} {values[name]:.6g} {spec['unit']}{moves}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
