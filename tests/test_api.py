"""The package's public surface: what ``ptgfv`` re-exports, and where the
test-only reference implementations live."""

import importlib
import types

import ptgfv
from ptgfv.mesh import Mesh
from ptgfv.spaces import P0Field, RTField

MODULES = ("analysis", "dual", "mesh", "quadrature", "solver", "spaces")

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
    "eval_local_basis",
    "eval_rt_field",
    "interpolate_rt",
    "local_gram_quadrature",
)


def test_package_reexports_exactly_the_module_all_lists():
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
    assert not hasattr(P0Field, "zeros") and not hasattr(RTField, "zeros")
