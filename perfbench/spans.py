"""Span recording around calls into ptgfv's public functions.

``Tracer.install`` replaces each wrapped function with a recording wrapper in
every ``ptgfv`` module that binds it, the defining module and each importing
module alike, so a call made through any binding (``ptgfv.cli.read_mesh``,
``ptgfv.mesh.read_mesh``, or ``build_mesh`` called from inside ``read_mesh``)
opens a span under the span that was open when it was called.  Nothing under
``src/`` changes.

A span records its name, start, end, parent, process CPU time (all threads,
so BLAS helper threads show) and GC pause time (from ``gc.callbacks``).  Self
time is the span's duration minus the durations of its child spans; self CPU
and self GC time are defined the same way.  Spans stay in memory until
``write`` is called.
"""

from __future__ import annotations

import functools
import gc
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> public functions timed as spans.  ``quadrature`` has none: its
# rules are built and self-tested once at import, and its per-call work runs
# inside the spaces, dual and analysis spans.
WRAPPED = {
    "mesh": ("read_mesh", "build_mesh", "quality_report", "generate_rhombus_equilateral"),
    "dual": ("cotan_coefficients", "solve_delta_k", "delta_energy_closed_form"),
    "spaces": ("interpolate_p0", "divergence", "local_gram_closed_form"),
    "solver": ("assemble", "solve", "discrete_gradient", "flux_balance_check"),
    "analysis": ("error_norms", "lemma_suite", "stability_check"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{module}.{func}" for module, funcs in WRAPPED.items() for func in funcs)


def _solve_counts(bound, result) -> dict:
    """PCG iterations, and restarts: history entries at or below tol before the last."""
    tol = bound.arguments["tol"]
    history = result.residual_history
    return {
        "solver.iterations": result.iterations,
        "solver.restarts": sum(1 for r in history[:-1] if r <= tol),
    }


def _lemma_counts(bound, result) -> dict:
    return {"analysis.lemma_suite.samples": min(c.samples for c in result.checks)}


# Counts read from a span's arguments and result; recorded once per distinct
# op input, so they repeat exactly whatever the number of ops in a run.
COUNTERS = {"solver.solve": _solve_counts, "analysis.lemma_suite": _lemma_counts}


class Tracer:
    """Records spans while ``active``; counters are recorded even when not."""

    def __init__(self):
        self.active = False
        self.op = None            # index of the current op; None during set-up
        self.op_key = None        # the current op's input, for the counters
        self.spans: list[tuple] = []   # (name, start, end, parent, self cpu, self gc, self s, op)
        self.counts: dict = {}         # op_key -> {counter: value}
        self._stack: list[list] = []   # open spans: [index, child_s, child_cpu, child_gc]
        self._gc_total = 0.0
        self._gc_start = 0.0
        self._originals: list[tuple] = []

    # -- GC pauses ---------------------------------------------------------
    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self._gc_total += time.perf_counter() - self._gc_start

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name: str, func):
        counter = COUNTERS.get(name)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                result = func(*args, **kwargs)
                self._count(counter, signature, args, kwargs, result)
                return result
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0, 0.0, 0.0]
            self._stack.append(frame)
            gc0 = self._gc_total
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.process_time() - cpu0
                pause = self._gc_total - gc0
                self._stack.pop()
                if self._stack:
                    up = self._stack[-1]
                    up[1] += t1 - t0
                    up[2] += cpu
                    up[3] += pause
                self.spans[index] = (
                    name, t0, t1, parent,
                    cpu - frame[2], pause - frame[3], t1 - t0 - frame[1], self.op,
                )
            self._count(counter, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter, signature, args, kwargs, result) -> None:
        if counter is None or self.op is None:
            return
        per_input = self.counts.setdefault(self.op_key, {})
        if not per_input.get("_done"):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in counter(bound, result).items():
                per_input[key] = per_input.get(key, 0) + value

    def install(self) -> None:
        """Wrap every name in WRAPPED, in every loaded ptgfv module binding it."""
        modules = [m for n, m in sys.modules.items() if n == "ptgfv" or n.startswith("ptgfv.")]
        for module_name, funcs in WRAPPED.items():
            home = sys.modules[f"ptgfv.{module_name}"]
            for func_name in funcs:
                original = getattr(home, func_name)
                wrapper = self._wrap(f"{module_name}.{func_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._originals.append((module, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        gc.callbacks.remove(self._on_gc)

    def end_op(self) -> None:
        """Close the current op: its input's counters are complete."""
        if self.op_key in self.counts:
            self.counts[self.op_key]["_done"] = True
        self.op = self.op_key = None

    # -- results -----------------------------------------------------------
    def layer_metrics(self, traced_ops: list[int]) -> dict:
        """Per-span self time, self CPU, self GC time and calls.

        Values are means per traced op.  A span that no op opened (work done
        only in set-up, such as the source-sweep mesh) reports its set-up
        total instead.
        """
        ops = set(traced_ops)
        in_ops = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
        in_setup = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
        for name, _, _, _, cpu, pause, self_s, op in self.spans:
            if op is None:
                acc = in_setup[name]
            elif op in ops:
                acc = in_ops[name]
            else:
                continue
            acc[0] += self_s
            acc[1] += cpu
            acc[2] += pause
            acc[3] += 1
        out = {}
        for name in SPAN_NAMES:
            if name in in_ops:
                phase = "op"
                self_s, cpu, pause, calls = (v / len(ops) for v in in_ops[name])
            else:
                phase = "setup" if name in in_setup else None
                self_s, cpu, pause, calls = in_setup.get(name, (0.0, 0.0, 0.0, 0))
            out[name] = {"self_s": self_s, "cpu_s": cpu, "gc_s": pause, "calls": calls,
                         "phase": phase}
        return out

    def count_metrics(self) -> dict:
        """Counters averaged over the distinct op inputs seen."""
        totals: dict = defaultdict(float)
        for per_input in self.counts.values():
            for key, value in per_input.items():
                if key != "_done":
                    totals[key] += value
        return {key: value / len(self.counts) for key, value in totals.items()}

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON: a name table and one row per span."""
        names = {name: i for i, name in enumerate(SPAN_NAMES)}
        rows = [
            [names[name], t0, t1, parent, cpu, pause, op]
            for name, t0, t1, parent, cpu, pause, _, op in self.spans
        ]
        doc = {
            "names": list(SPAN_NAMES),
            "columns": ["name", "start_s", "end_s", "parent", "self_cpu_s", "self_gc_s", "op"],
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
