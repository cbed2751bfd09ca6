"""Benchmark of the ptgfv solver and verification suite.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli-solve --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): ``cli-solve``,
``source-sweep`` and ``verify``.  Each run starts fresh processes that import
ptgfv from ``src/`` of the checkout.  With ``--trace 0`` the benchmark sets
the workload up SETUP_REPEATS times, each in its own process, and reports
the end-to-end metrics; with ``--trace 1`` it sets up once, with span
wrappers installed, and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A result file with the environment, the seed and every op
latency is written under ``perfbench/results/``; a traced run also writes
its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-solve", "source-sweep", "verify")
SETUP_REPEATS = 3
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# The modules expected to hold the largest self time per op, together.
PREDICTED_LEADERS = {
    "cli-solve": ("mesh",),
    "source-sweep": ("solver",),
    "verify": ("analysis", "dual", "spaces"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "trace.overhead_ratio" else "count"


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout; None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "ptgfv").rglob("*.py")))


def run_worker(args, workdir: Path, deadline: float, extra: list[str]) -> tuple[float, dict]:
    """Start one worker process; return its set-up time and its result."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", str(workdir), *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_done"] - started, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: n=8 meshes, 100 samples and 2 sources, for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "ptgfv" / "__init__.py").is_file():
        print(f"error: {root} has no src/ptgfv; run from the root of a ptgfv checkout",
              file=sys.stderr)
        return 2
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            spans_out = results / f"{args.workload}-seed{args.seed}-spans.json.gz"
            _, result = run_worker(args, workdir, deadline, ["--spans-out", str(spans_out)])
            setup_times = []
        else:
            setup_times = [run_worker(args, workdir, deadline, ["--setup-only"])[0]
                           for _ in range(SETUP_REPEATS - 1)]
            setup_s, result = run_worker(args, workdir, deadline, [])
            setup_times.append(setup_s)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace:
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        units = UNITS
    attempted, failed = result["attempted"], result["failed"]
    ok = failed == 0 and all(v is not None for v in metrics.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": {**result["environment"], "git_commit": git_commit(root),
                        "src_lines": src_lines(root)},
        "setup_times_s": setup_times,
        "latencies_s": result["latencies_s"],
        "problems": result["problems"],
        "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"ops {attempted} failed_ratio {failed / attempted:.6g}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]} {units[name]}")
    if args.trace:
        by_module: dict[str, float] = {}
        for name, self_s in result["op_layers"].items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + self_s
        print("self_s per traced op by module: " + ", ".join(
            f"{m} {s:.4g}" for m, s in sorted(by_module.items(), key=lambda kv: -kv[1])))
        predicted = PREDICTED_LEADERS[args.workload]
        together = sum(by_module.get(m, 0.0) for m in predicted)
        others = max((s for m, s in by_module.items() if m not in predicted), default=0.0)
        print(f"predicted leader {'+'.join(predicted)}: "
              + ("met" if together > others else "NOT MET"))
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
