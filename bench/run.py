"""Benchmark of mmdvar's data path, Monte Carlo verification path and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``, never from an installed copy.  One process runs one workload as a
closed loop with a single caller for S seconds, with at most nproc BLAS
threads, then checks every op's output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced ops and reports the per-layer metrics: spans around the
library calls the benchmark and the library's own callers make, reduced to
per-layer time per op, plus one allocation and one median-selection probe.

Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Before it come the metrics with their units, the error rate and the
environment.  The run, its per-op figures and the spans of the last traced
op are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 3
MIN_OPS = 3

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "datasets_per_s": "1/s", "op_s.p50": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "kernels.build_gram_pack.s": "s",
    "kernels.build_gram_pack.calls": "count",
    "kernels.build_gram_pack.s_per_replicate": "s",
    "kernels.build_gram_pack.peak_alloc_mb": "MB",
    "kernels.build_gram_pack.retained_mb": "MB",
    "kernels.median_heuristic.s": "s",
    "kernels.distances.s": "s",
    "kernels.median_select.s": "s",
    "kernels.squareform.s": "s",
    "kernels.kernel_matrix.s": "s",
    "kernels.zero_diag_sym.s": "s",
    "kernels.stats.s": "s",
    "kernels.pairwise_distances.computed": "count",
    "kernels.kernel_entries.computed": "count",
    "kernels.matrix_bytes.computed": "bytes",
    "estimators.full_report.s": "s",
    "estimators.s_per_replicate": "s",
    "montecarlo.replicate_rng.s_per_replicate": "s",
    "montecarlo.draw_replicate.s_per_replicate": "s",
    "oracle.gaussian_draw.s_per_replicate": "s",
    "montecarlo.self.s_per_replicate": "s",
    "cli.import.s": "s",
    "cli.load_csv.s": "s",
    "cli.load_csv.cells": "count",
    "cli.main.self.s": "s",
    "cli.interpreter.s": "s",
    "process.minor_faults": "count",
    "trace.op_s.p50": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}


def _setup_environment() -> int:
    """Pin BLAS threads and point this process and its children at ``src/``.

    Must run before NumPy is imported.
    """
    if not (SRC / "mmdvar" / "__init__.py").is_file():
        sys.exit(f"bench: no mmdvar sources in {SRC}; run from the repository root")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))
    return nproc


def _cache_sizes() -> dict[str, int]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 2 ** 10, "M": 2 ** 20}.get(text[-1], 1)
        sizes[f"L{level}"] = int(text.rstrip("KM")) * mult
    return sizes


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(nproc: int, wl) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    caches = _cache_sizes()
    llc = max(caches.items(), key=lambda kv: int(kv[0][1:]))[1] if caches else None
    working_set = wl.computed_counts()["kernels.matrix_bytes.computed"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc,
        "cache_bytes": caches,
        "malloc_tunables": {k: v for k, v in os.environ.items()
                            if k.startswith("MALLOC_") or k == "GLIBC_TUNABLES"},
        "working_set_bytes": working_set,
        "working_set_over_llc": working_set / llc if llc else None,
    }


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    setup = [wl.setup_sample(seed, i) for i in range(SETUP_SAMPLES)]
    wl.run(wl.make_input(seed, workloads.SETUP_STREAM, SETUP_SAMPLES))  # warm-up
    rec = spans.Recorder()
    ops: list[dict] = []
    inputs, outputs = [], []
    last_spans: list = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < MIN_OPS:
        index = len(ops)
        inp = wl.make_input(seed, workloads.OP_STREAM, index)
        traced = trace and index % 2 == 0
        op = {"index": index, "traced": traced, "units": wl.units(inp), "error": None}
        faults = resource.getrusage(wl.rusage_who).ru_minflt
        t0 = time.perf_counter()
        try:
            if traced:
                with spans.patched(rec, wl.targets, wl.factories), rec.span("op"):
                    out = wl.run(inp, rec)
            else:
                out = wl.run(inp)
        except Exception as exc:  # a failed op is counted, not fatal
            out, op["error"] = None, repr(exc)
        op["s"] = time.perf_counter() - t0
        op["minor_faults"] = resource.getrusage(wl.rusage_who).ru_minflt - faults
        if traced:
            last_spans = rec.take()
            red = spans.reduce_spans(last_spans)
            op["layers"] = {**workloads.layer_times(red),
                            **wl.op_layers(red, op["s"], op["units"]),
                            "process.minor_faults": op["minor_faults"]}
        ops.append(op)
        inputs.append(inp)
        outputs.append(out)
    peak_rss_mb = resource.getrusage(wl.rusage_who).ru_maxrss / 1024.0

    for op, inp, out in zip(ops, inputs, outputs):
        if op["error"] is not None:
            op["failures"] = [op["error"]]
            continue
        try:
            op["failures"] = wl.check(inp, out)
        except Exception as exc:  # output of an unexpected shape fails the op
            op["failures"] = [f"check raised {exc!r}"]
    good = [i for i, op in enumerate(ops) if not op["failures"]]
    result = {"ops": ops, "attempted": len(ops), "failed": len(ops) - len(good),
              "summary": wl.summary([outputs[i] for i in good]), "spans": last_spans}

    if trace:
        traced = [op for op in ops if op["traced"]]
        plain = [op["s"] for op in ops if not op["traced"]]
        values = {name: statistics.median(op["layers"][name] for op in traced)
                  for name in traced[0]["layers"]}
        traced_p50 = statistics.median(op["s"] for op in traced)
        values.update(wl.computed_counts())
        values.update(wl.probes(wl.make_input(seed, workloads.PROBE_STREAM, 0)))
        values["trace.op_s.p50"] = traced_p50
        values["trace.overhead_frac"] = traced_p50 / statistics.median(plain) - 1.0
        result["metrics"] = {name: values.get(name, 0.0) for name in PER_LAYER}
    else:
        busy = sum(op["s"] for op in ops)
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "datasets_per_s": sum(op["units"] for op in ops) / busy,
            "op_s.p50": statistics.median(op["s"] for op in ops),
            "peak_rss_mb": peak_rss_mb,
        }
    result["setup_samples_s"] = setup
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _setup_environment()
    import workloads
    if args.workload not in workloads.NAMES:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    import mmdvar
    if SRC not in Path(mmdvar.__file__).resolve().parents:
        sys.exit(f"bench: mmdvar was imported from {mmdvar.__file__}, not {SRC}")

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, OUT / f"cli-{os.getpid()}")
    try:
        result = measure(wl, args.seed, args.seconds, bool(args.trace))
    finally:
        wl.close()
    env = environment(nproc, wl)
    units = PER_LAYER if args.trace else END_TO_END

    print(f"workload {args.workload}: closed loop, 1 caller, {result['attempted']} ops, "
          f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, value in result["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
        if name == "datasets_per_s" and wl.unit_label != "datasets":
            print(f"  {wl.unit_label + '_per_s':<44} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<44} {result['failed'] / result['attempted']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")
    for op in result["ops"]:
        for failure in op["failures"]:
            print(f"  op {op['index']} FAILED: {failure}")
    for key, value in result["summary"].items():
        print(f"  {key}: {value}")
    print("# env " + json.dumps(env))

    trace_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    trace_file.write_text(json.dumps({"args": vars(args), "env": env, **result}, default=str))

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
