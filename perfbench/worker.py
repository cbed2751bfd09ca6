"""One measuring process of the benchmark; ``run.py`` starts it.

It imports ptgfv, sets the workload up, prints ``time.monotonic()`` at the
end of set-up (CLOCK_MONOTONIC is shared by all processes, so the launcher
can time set-up from the moment it started this process) and, unless
``--setup-only`` is given, runs ops for ``--seconds`` seconds.  It prints one
JSON object as its last line of standard output.

With ``--trace 1`` the span wrappers are installed before set-up, and ops
alternate between untraced (even) and traced (odd), so that
``trace.overhead_ratio`` compares the two under the same conditions.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def blas_record() -> dict:
    """BLAS library and its thread count as the process runs it."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }
    # numpy's bundled scipy-openblas; other BLAS builds leave the count unknown
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    try:
        get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return record
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    record["blas_threads"] = get_threads()
    return record


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def mesh_counts(workload, mesh_module) -> dict:
    """gc-tracked objects a mesh built from the workload's input holds."""
    vertices, triangles = workload.mesh_input()
    gc.collect()
    before = len(gc.get_objects())
    built = mesh_module.build_mesh(vertices, triangles)
    gc.collect()
    objects = len(gc.get_objects()) - before
    return {"mesh.objects": objects, "mesh.cells": built.num_triangles,
            "mesh.edges": built.num_edges}


class OpLog:
    """Latency (program time only) and problems of each op of the timed phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed: dict[int, list[str]] = {}
        self.traced: list[int] = []

    def ok(self, indices=None) -> list[float]:
        """Latencies of the correct ops, of all or of the given op indices."""
        indices = range(len(self.latencies)) if indices is None else indices
        return [self.latencies[i] for i in indices if i not in self.failed]


def run_ops(workload, seconds: float, tracer) -> OpLog:
    """Run ops until ``seconds`` have passed; with a tracer, every odd op is traced."""
    log = OpLog()
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if tracer is not None:
            tracer.op, tracer.op_key, tracer.active = i, workload.input_key(i), traced
        t0 = time.perf_counter()
        try:
            result = workload.run(i)
        except Exception:
            result, problems = None, [traceback.format_exc()]
        log.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
            tracer.end_op()
        if traced:
            log.traced.append(i)
        if result is not None:
            try:
                problems = workload.check(i, result)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            log.failed[i] = problems
        i += 1
        if time.perf_counter() - start >= seconds and (tracer is None or log.traced):
            return log


def end_to_end_metrics(log: OpLog) -> dict:
    ok = log.ok()
    return {
        "ops_per_s": len(ok) / sum(log.latencies),
        "op_p50_s": statistics.median(ok) if ok else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, log: OpLog, workload, mesh_module) -> tuple[dict, dict]:
    """The per-layer metrics, and the self time per traced op of each span that ops open."""
    layers = tracer.layer_metrics(log.traced)
    metrics = {}
    for name, values in layers.items():
        metrics[f"{name}.self_s"] = values["self_s"]
        metrics[f"{name}.gc_s"] = values["gc_s"]
    metrics["dual.solve_delta_k.calls"] = layers["dual.solve_delta_k"]["calls"]
    metrics["spaces.local_gram_closed_form.calls"] = layers["spaces.local_gram_closed_form"]["calls"]
    metrics["solver.solve.cpu_s"] = layers["solver.solve"]["cpu_s"]
    counts = tracer.count_metrics()
    for name in ("solver.iterations", "solver.restarts", "analysis.lemma_suite.samples"):
        metrics[name] = counts.get(name, 0)
    metrics.update(mesh_counts(workload, mesh_module))
    traced_set = set(log.traced)
    untraced = log.ok(i for i in range(len(log.latencies)) if i not in traced_set)
    traced = log.ok(log.traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(untraced) / statistics.median(traced) if untraced and traced else None
    )
    op_layers = {n: v["self_s"] for n, v in layers.items() if v["phase"] == "op"}
    return metrics, op_layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import ptgfv
    from ptgfv import mesh

    import spans
    import workloads

    src = Path.cwd() / "src"
    if Path(ptgfv.__file__).resolve().parent != (src / "ptgfv").resolve():
        print(f"error: imported ptgfv from {ptgfv.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.active = True
    workload = workloads.WORKLOADS[args.workload](
        workloads.SIZES[args.size], args.seed, Path(args.workdir)
    )
    workload.setup()
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    log = run_ops(workload, args.seconds, tracer)
    out = {
        "setup_done": setup_done,
        "attempted": len(log.latencies),
        "failed": len(log.failed),
        "problems": [f"op {i}: {p}" for i, ps in list(log.failed.items())[:5] for p in ps],
        "latencies_s": log.latencies,
        "environment": environment(),
    }
    if tracer is None:
        out["metrics"] = end_to_end_metrics(log)
    else:
        out["metrics"], out["op_layers"] = per_layer_metrics(tracer, log, workload, mesh)
        if args.spans_out:
            tracer.write(Path(args.spans_out))
        tracer.uninstall()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
