"""Toy-size self-test of the benchmark: n=8 meshes, 100 samples, 2 sources.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ptgfv import mesh  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = workloads.SIZES["toy"]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    assert_metrics(last_json(run_bench(workload, 0)), BENCHMARK["end_to_end"])


def test_traced_run_spans_every_wrapped_name():
    seen = set()
    for workload in workloads.WORKLOADS:
        assert_metrics(last_json(run_bench(workload, 1)), BENCHMARK["per_layer"])
        path = ROOT / "perfbench" / "results" / f"{workload}-seed3-spans.json.gz"
        with gzip.open(path, "rt") as fh:
            doc = json.load(fh)
        seen |= {doc["names"][row[0]] for row in doc["spans"]}
    assert seen == set(spans.SPAN_NAMES)


@pytest.mark.parametrize("workload,table", [
    ("cli-solve", "EQUILATERAL_ERRORS"),
    ("source-sweep", "SWEEP_ERRORS"),
])
def test_wrong_reference_is_a_failed_op(workload, table, monkeypatch, capsys, tmp_path):
    reference = getattr(workloads, table)[TOY.n]
    if isinstance(reference, dict):
        wrong = {mode: (2 * eu, ep, ediv) for mode, (eu, ep, ediv) in reference.items()}
    else:
        wrong = (reference[0], reference[1], 2 * reference[2])
    monkeypatch.setitem(getattr(workloads, table), TOY.n, wrong)
    monkeypatch.chdir(ROOT)
    code = worker.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                        "--size", "toy", "--workdir", str(tmp_path)])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert out["attempted"] >= 1 and out["failed"] == out["attempted"]
    assert "differs from" in out["problems"][0]


def test_inputs_follow_the_generator_and_jitter_recipe():
    n = TOY.n
    reference = mesh.generate_rhombus_equilateral(n)
    vertices, triangles = workloads.rhombus_grid(n)
    assert np.array_equal(vertices, reference.vertices)
    assert np.array_equal(triangles, reference.triangles)
    jittered, _ = workloads.jittered_rhombus_grid(n, seed=3)
    moved = np.abs(jittered - vertices).max(axis=1) > 0
    on_boundary = np.zeros(len(vertices), dtype=bool)
    for e in reference.boundary_edges:
        on_boundary[[reference.edges[e].tail, reference.edges[e].head]] = True
    assert np.array_equal(moved, ~on_boundary)
    assert np.abs(jittered - vertices).max() <= workloads.JITTER / n
    assert mesh.quality_report(mesh.build_mesh(jittered, triangles)).admissible


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = run_bench("verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
