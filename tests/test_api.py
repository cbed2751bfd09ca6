"""The package's public surface: what ``ptgfv`` re-exports, where the
test-only reference implementations live, and that the benchmark in
``perfbench/`` still runs on it."""

import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
import types
from pathlib import Path

import ptgfv
import numpy as np
import pytest

from ptgfv import analysis, solver
from ptgfv.mesh import Mesh, MeshQualityReport, TriangleGeometry

from conftest import jittered_rhombus

MODULES = ("analysis", "dual", "mesh", "solver", "spaces")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = PERFBENCH.parent / "README.md"
WORKLOADS = ["cli-solve", "source-sweep", "verify"]  # perfbench/workloads.py, in order

# reference implementations used only by tests; they live in tests/oracles.py
ORACLES = (
    "corner_geometry",
    "random_triangle",
    "random_acute_triangle",
    "random_triangle_min_angle",
    "g_eval",
    "g_moments",
    "IntervalRule",
    "interval_rule",
    "integrate_interval",
    "integrate_triangle",
    "physical_points",
    "delta_moments",
    "delta_energy_reference",
    "eval_local_basis",
    "eval_rt_field",
    "interpolate_rt",
    "local_gram_quadrature",
    "h1_probe_reference",
    "reference_edges",
    "edge_table",
    "assemble_reference",
    "assert_system_is_reference",
    "splitmix64",
    "ReferenceStream",
)


def test_package_reexports_exactly_the_module_all_lists():
    # a module added to or deleted from the package must be listed here
    found = {info.name for info in pkgutil.iter_modules(ptgfv.__path__)}
    assert set(MODULES) | {"cli"} == found
    declared = set()
    for name in MODULES:
        declared.update(importlib.import_module(f"ptgfv.{name}").__all__)
    exported = {
        name for name, value in vars(ptgfv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared


def test_no_oracle_is_defined_in_the_package():
    for name in MODULES + ("cli",):
        module = importlib.import_module(f"ptgfv.{name}")
        assert [o for o in ORACLES if hasattr(module, o)] == [], name
    assert not hasattr(Mesh, "geometry")
    # every geometry comes from build_mesh or the sampler, not from loose corners
    assert not hasattr(TriangleGeometry, "from_vertices")


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's ``spans`` and ``workloads`` modules, loaded by path
    with no bytecode written under ``perfbench/``; each is registered in
    ``sys.modules`` before it runs, as its dataclasses need."""
    loaded = {}
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        for name in ("spans", "workloads"):
            spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
            loaded[name] = module
    finally:
        sys.dont_write_bytecode = saved
    yield types.SimpleNamespace(**loaded)
    for name in loaded:
        sys.modules.pop(f"perfbench_{name}", None)


def _files(root: Path) -> dict:
    return {path: path.stat().st_mtime_ns for path in root.rglob("*")}


def test_benchmark_bindings_exist(perfbench):
    # the benchmark's own self-test runs outside this suite, so a rename
    # that breaks what it wraps must fail here
    for module, functions in perfbench.spans.WRAPPED.items():
        home = importlib.import_module(f"ptgfv.{module}")
        assert [f for f in functions if not callable(getattr(home, f, None))] == [], module
    assert list(perfbench.workloads.WORKLOADS) == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_toy_workload_passes_its_check(perfbench, tmp_path, name):
    # one op of each workload at toy size, traced as the benchmark traces it:
    # a change that breaks what the benchmark runs or reads (the verify record
    # keys, the solve stdout fields, ManufacturedCase's keywords, the fields
    # the tracer's counters read) fails here
    before = _files(PERFBENCH)
    workload = perfbench.workloads.WORKLOADS[name](perfbench.workloads.SIZES["toy"], 3, tmp_path)
    tracer = perfbench.spans.Tracer()
    tracer.install()
    try:
        workload.setup()
        tracer.op, tracer.op_key, tracer.active = 0, workload.input_key(0), True
        result = workload.run(0)
        tracer.active = False
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert workload.check(0, result) == []
    counts = tracer.count_metrics()
    if name == "verify":
        assert counts == {"analysis.lemma_suite.samples": perfbench.workloads.SIZES["toy"].samples}
    else:
        assert counts == {"solver.iterations": 1, "solver.restarts": 0}
    assert _files(PERFBENCH) == before


def test_the_readme_python_examples_run(capsys):
    # in order and in one namespace, as a reader pastes them: the later
    # blocks use names that the first one imports
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 4   # the four prints


def test_the_coefficients_have_one_home():
    # the coupling coefficients are held by the mesh alone: no quality report
    # carries a copy and the stability check takes no report to compare
    assert list(inspect.signature(analysis.stability_check).parameters) == ["mesh"]
    assert "coefficients" not in {f.name for f in dataclasses.fields(MeshQualityReport)}
    assert "trials" not in {f.name for f in dataclasses.fields(analysis.StabilityReport)}


def test_the_boundary_trace_is_a_plain_array():
    # the library takes the trace as a float array; ``DirichletData.zero``
    # is no type and survives only as the benchmark's binding
    assert "DirichletData" not in solver.__all__
    assert not hasattr(ptgfv, "DirichletData")
    assert not isinstance(solver.DirichletData, type)
    m = jittered_rhombus(4, seed=3)
    zero = solver.DirichletData.zero(m)
    assert isinstance(zero, np.ndarray) and zero.dtype == float
    assert zero.shape == (len(m.boundary_edges),) and not zero.any()
    f_t = np.random.default_rng(11).normal(size=m.num_triangles)
    given = solver.assemble(m, m.coefficients, f_t, zero)
    default = solver.assemble(m, m.coefficients, f_t)
    assert given.rhs.tobytes() == default.rhs.tobytes()
    for name in ("data", "indices", "indptr"):
        assert getattr(given.matrix, name).tobytes() == getattr(default.matrix, name).tobytes()
    assert default.bc.tobytes() == zero.tobytes()
