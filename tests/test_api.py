"""The package's public surface: what ``ptgfv`` re-exports, where the
test-only reference implementations live, and the names the benchmark in
``perfbench/`` binds."""

import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import types
from pathlib import Path

import ptgfv
import numpy as np

from ptgfv import analysis, solver
from ptgfv.mesh import Mesh, MeshQualityReport

from conftest import jittered_rhombus

MODULES = ("analysis", "dual", "mesh", "solver", "spaces")

# reference implementations used only by tests; they live in tests/oracles.py
ORACLES = (
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


def test_benchmark_bindings_exist():
    # the benchmark's own self-test runs outside this suite, so a rename
    # that breaks what it wraps or reads must fail here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, functions in spans.WRAPPED.items():
        home = importlib.import_module(f"ptgfv.{module}")
        assert [f for f in functions if not callable(getattr(home, f, None))] == [], module
    assert "tol" in inspect.signature(solver.solve).parameters
    fields = {f.name for f in dataclasses.fields(solver.Solution)}
    assert {"iterations", "residual_history"} <= fields
    assert callable(solver.DirichletData.zero)
    # the verify workload checks the trial count of the h1 probe; retiring
    # the probe's trials is a benchmark change
    assert "trials" in inspect.signature(analysis.stability_check).parameters
    assert "trials" in {f.name for f in dataclasses.fields(analysis.StabilityReport)}


def test_the_coefficients_have_one_home():
    # the coupling coefficients are held by the mesh alone: no quality report
    # carries a copy and the stability check takes no report to compare
    assert list(inspect.signature(analysis.stability_check).parameters) == [
        "mesh", "trials", "seed"
    ]
    assert "coefficients" not in {f.name for f in dataclasses.fields(MeshQualityReport)}


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
