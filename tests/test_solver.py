import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

import ptgfv
from ptgfv.analysis import CASES, error_norms
from ptgfv.dual import cotan_coefficients
from ptgfv.mesh import build_mesh, generate_rhombus_equilateral, quality_report
from ptgfv.solver import (
    ConvergenceError,
    Solution,
    assemble,
    discrete_gradient,
    flux_balance_check,
    solve,
)
from ptgfv.spaces import divergence, interpolate_p0

from conftest import diagonal_square_mesh, jittered_rhombus
from oracles import geometry, interpolate_rt

SQRT3 = math.sqrt(3.0)


def test_gradient_of_constant_with_matching_trace():
    mesh = generate_rhombus_equilateral(2)
    coeffs = cotan_coefficients(mesh)
    u = np.full(mesh.num_triangles, 2.5)
    bc = np.full(len(mesh.boundary_edges), 2.5)
    p = discrete_gradient(mesh, coeffs, u, bc)
    assert np.max(np.abs(p)) < 1e-14


def test_gradient_jump_between_equilaterals(rhombus1):
    coeffs = cotan_coefficients(rhombus1)
    e = int(rhombus1.internal_edges[0])
    edge = rhombus1.edges[e]
    u = np.zeros(2)
    u[edge.owner] = 0.0
    u[edge.neighbor] = 1.0
    p = discrete_gradient(rhombus1, coeffs, u)
    assert p[e] == pytest.approx(SQRT3, rel=1e-14)


def test_gradient_boundary_branch():
    # one equilateral cell, homogeneous trace: flux is -u_K / (cot(pi/3)/2)
    mesh = build_mesh([(0, 0), (1, 0), (0.5, SQRT3 / 2)], [(0, 1, 2)])
    coeffs = cotan_coefficients(mesh)
    p = discrete_gradient(mesh, coeffs, np.array([1.0]))
    np.testing.assert_allclose(p, -2.0 * SQRT3, rtol=1e-14)


def test_gradient_rejects_zero_coefficient():
    mesh = diagonal_square_mesh()
    coeffs = cotan_coefficients(mesh)
    assert quality_report(mesh).admissible is False
    with pytest.raises(ValueError, match="edge"):
        discrete_gradient(mesh, coeffs, np.zeros(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m, c: assemble(m, c, np.ones(1)), "scalar field length"),
        (lambda m, c: assemble(m, c, np.ones(2), np.zeros(3)),
         "boundary data length"),
        (lambda m, c: discrete_gradient(m, c, np.ones(3)), "scalar field length"),
        (lambda m, c: discrete_gradient(m, c, np.ones(2), np.zeros(5)),
         "boundary data length"),
        (lambda m, c: flux_balance_check(m, solve(assemble(m, c, np.ones(2))), np.ones(1)),
         "scalar field length"),
        (lambda m, c: assemble(m, c[:1], np.ones(2)), "coefficient array length"),
        (lambda m, c: discrete_gradient(m, c[:1], np.ones(2)), "coefficient array length"),
        (lambda m, c: error_norms(m, Solution(np.ones(1), np.zeros(m.num_edges), 0, 0.0),
                                  CASES["rhombus-sine"]), "scalar field length"),
        (lambda m, c: error_norms(m, Solution(np.ones(2), np.zeros(m.num_edges + 1), 0, 0.0),
                                  CASES["rhombus-sine"]), "flux field length"),
    ],
    ids=["assemble-f", "assemble-bc", "gradient-u", "gradient-bc", "balance-f",
         "assemble-coeffs", "gradient-coeffs", "error-u", "error-p"],
)
def test_wrong_length_fields_are_rejected(rhombus1, call, message):
    # a length-1 field would otherwise broadcast over the cells
    with pytest.raises(ValueError, match=message):
        call(rhombus1, cotan_coefficients(rhombus1))


def test_assemble_rhombus_unit_source(rhombus1):
    coeffs = cotan_coefficients(rhombus1)
    system = assemble(rhombus1, coeffs, np.ones(2))
    dense = system.matrix.toarray()
    assert np.allclose(dense, dense.T)
    # each row: one internal coupling 1/c and two boundary couplings
    np.testing.assert_allclose(dense, [[5.0 * SQRT3, -SQRT3], [-SQRT3, 5.0 * SQRT3]], rtol=1e-13)
    np.testing.assert_allclose(system.rhs, SQRT3 / 4.0, rtol=1e-14)
    u = np.linalg.solve(dense, system.rhs)
    np.testing.assert_allclose(u, 0.0625, rtol=1e-13)


def test_assemble_row_structure_random_mesh():
    mesh = jittered_rhombus(4, seed=15)
    coeffs = cotan_coefficients(mesh)
    system = assemble(mesh, coeffs, np.zeros(mesh.num_triangles))
    dense = system.matrix.toarray()
    assert np.allclose(dense, dense.T)
    inv = 1.0 / coeffs
    for t in range(mesh.num_triangles):
        assert dense[t, t] == pytest.approx(float(inv[mesh.tri_edges[t]].sum()), rel=1e-13)
    for e in mesh.internal_edges:
        edge = mesh.edges[e]
        assert dense[edge.owner, edge.neighbor] == pytest.approx(-inv[e], rel=1e-13)
    # weak diagonal dominance, strict on rows touching the boundary
    off_sum = np.abs(dense).sum(axis=1) - 2.0 * np.diag(dense)
    assert np.all(off_sum <= 1e-12)
    touches_boundary = np.zeros(mesh.num_triangles, dtype=bool)
    for e in mesh.boundary_edges:
        touches_boundary[mesh.edges[e].owner] = True
    assert np.all(off_sum[touches_boundary] < -1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3, 15])
def test_assemble_exactly_symmetric(seed):
    # the LU solve runs in SuperLU's symmetric mode and factors the CSR
    # matrix's transpose, so the two must agree bit for bit
    mesh = jittered_rhombus(8, seed)
    system = assemble(mesh, cotan_coefficients(mesh), np.ones(mesh.num_triangles))
    assert (system.matrix != system.matrix.T).nnz == 0


@pytest.mark.parametrize("n, seed", [(16, 7), (32, None)])
def test_solve_matches_spsolve_to_round_off(n, seed):
    # SuperLU's panel size changes the order of the factor's updates, not
    # the factor: the solution agrees with a default-option direct solve
    mesh = generate_rhombus_equilateral(n) if seed is None else jittered_rhombus(n, seed)
    coeffs = cotan_coefficients(mesh)
    system = assemble(mesh, coeffs, interpolate_p0(CASES["rhombus-sine"].f, mesh))
    solution = solve(system)
    u = spsolve(system.matrix.tocsc(), system.rhs)
    p = discrete_gradient(mesh, coeffs, u)
    assert np.abs(solution.u - u).max() <= 1e-12 * np.abs(u).max()
    assert np.abs(solution.p - p).max() <= 1e-12 * np.abs(p).max()


def test_assemble_rejects_nonpositive_coefficients():
    mesh = diagonal_square_mesh()
    coeffs = cotan_coefficients(mesh)
    assert quality_report(mesh).admissible is False
    with pytest.raises(ValueError, match="non-positive"):
        assemble(mesh, coeffs, np.zeros(2))


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
@pytest.mark.parametrize("call", [assemble, discrete_gradient], ids=["assemble", "gradient"])
def test_nan_inf_and_negative_coefficients_are_refused(call, value):
    # a NaN, or an inf on every edge of a triangle, leaves a singular matrix
    # that SuperLU would report as a bare RuntimeError; the gradient would
    # divide by a NaN or a negative coefficient
    mesh = generate_rhombus_equilateral(4)
    coeffs = np.array(mesh.coefficients)
    edges = mesh.tri_edges[5]
    coeffs[edges] = value
    with pytest.raises(ValueError, match=f"non-positive .* on edge {edges.min()};"):
        call(mesh, coeffs, np.ones(mesh.num_triangles))


def test_solve_single_cell_in_one_iteration():
    mesh = build_mesh([(0, 0), (1, 0), (0.5, SQRT3 / 2)], [(0, 1, 2)])
    coeffs = cotan_coefficients(mesh)
    solution = solve(assemble(mesh, coeffs, np.ones(1)))
    assert solution.iterations == 1
    assert solution.u[0] == pytest.approx((SQRT3 / 4.0) / (6.0 * SQRT3), rel=1e-13)


def test_solve_rhombus_unit_source(rhombus1):
    coeffs = cotan_coefficients(rhombus1)
    solution = solve(assemble(rhombus1, coeffs, np.ones(2)))
    np.testing.assert_allclose(solution.u, 0.0625, rtol=1e-12)
    assert solution.residual <= 1e-12


def test_solve_zero_rhs_returns_zero(rhombus4):
    coeffs = cotan_coefficients(rhombus4)
    solution = solve(assemble(rhombus4, coeffs, np.zeros(rhombus4.num_triangles)))
    assert solution.iterations == 0
    assert np.max(np.abs(solution.u)) == 0.0
    assert np.max(np.abs(solution.p)) == 0.0


def test_solve_conservation_identity():
    # componentwise: -div(p) recovers the projected source on the uniform mesh
    mesh = generate_rhombus_equilateral(4)
    coeffs = cotan_coefficients(mesh)
    rng = np.random.default_rng(67)
    f_t = rng.standard_normal(mesh.num_triangles)
    tol = 1e-12
    solution = solve(assemble(mesh, coeffs, f_t), tol=tol)
    residual = np.abs(f_t + divergence(mesh, solution.p))
    assert residual.max() <= 10.0 * tol * float(np.linalg.norm(f_t))


def _floor(error: ConvergenceError) -> float:
    """The floor a stagnated solve names in its message."""
    match = re.search(r"stagnated at the floor (\S+) after one refinement step$", str(error))
    assert match, str(error)
    return float(match.group(1))


def test_solve_below_the_floor_stagnates(rhombus4):
    # 1e-17 is below double precision: the LU solve and its one refinement
    # step both stay above it, and the error names the floor it reached
    coeffs = cotan_coefficients(rhombus4)
    system = assemble(rhombus4, coeffs, np.ones(rhombus4.num_triangles))
    tol = 1e-17
    with pytest.raises(ConvergenceError, match="stagnated") as err:
        solve(system, tol=tol)
    assert _floor(err.value) > tol


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_names_its_first_cell(rhombus4, value):
    # a NaN residual compares False against the tolerance, so a non-finite
    # source must be refused before it is factored, not passed as converged
    f_t = np.ones(rhombus4.num_triangles)
    f_t[[5, 9]] = value
    system = assemble(rhombus4, cotan_coefficients(rhombus4), f_t)
    with pytest.raises(ConvergenceError, match=rf"^non-finite right-hand side: b = {value} in cell 5$"):
        solve(system)


def test_solve_n256_ends_at_the_conditioning_floor():
    # at n=256 the true relative residual cannot reach 1e-12 (LU with one
    # refinement step stops near 2.8e-12), so the default tolerance ends in
    # an error naming the floor; 1e-11 lies above the floor and succeeds
    case = CASES["rhombus-sine"]
    mesh = generate_rhombus_equilateral(256)
    system = assemble(mesh, cotan_coefficients(mesh), interpolate_p0(case.f, mesh))
    with pytest.raises(ConvergenceError, match="did not reach") as err:
        solve(system, tol=1e-12)
    assert _floor(err.value) > 1e-12
    solution = solve(system, tol=1e-11)
    assert solution.residual <= 1e-11
    assert solution.iterations == 1


def test_solution_flux_equals_discrete_gradient(rhombus4):
    coeffs = cotan_coefficients(rhombus4)
    f_t = interpolate_p0(lambda x, y: np.cos(x) + y, rhombus4)
    solution = solve(assemble(rhombus4, coeffs, f_t))
    again = discrete_gradient(rhombus4, coeffs, solution.u)
    assert np.array_equal(solution.p, again)


def test_flux_balance_small_and_random():
    mesh1 = generate_rhombus_equilateral(1)
    coeffs1 = cotan_coefficients(mesh1)
    f1 = np.ones(2)
    report1 = flux_balance_check(mesh1, solve(assemble(mesh1, coeffs1, f1)), f1)
    assert report1.max_cell_residual <= 1e-12

    mesh8 = generate_rhombus_equilateral(8)
    coeffs8 = cotan_coefficients(mesh8)
    rng = np.random.default_rng(71)
    f8 = rng.uniform(-1.0, 1.0, mesh8.num_triangles)
    report8 = flux_balance_check(mesh8, solve(assemble(mesh8, coeffs8, f8)), f8)
    assert report8.max_cell_residual <= 1e-10
    # discrete divergence theorem: total source exits through the boundary
    assert abs(report8.global_imbalance) <= 1e-10


def test_discrete_maximum_principle():
    for mesh in (generate_rhombus_equilateral(4), jittered_rhombus(4, seed=25)):
        coeffs = cotan_coefficients(mesh)
        rng = np.random.default_rng(73)
        f_t = rng.uniform(0.0, 1.0, mesh.num_triangles)
        solution = solve(assemble(mesh, coeffs, f_t))
        assert solution.u.min() >= -1e-12 * max(1.0, solution.u.max())


def test_solution_invariant_under_scaling():
    mesh = jittered_rhombus(3, seed=27)
    coeffs = cotan_coefficients(mesh)
    rng = np.random.default_rng(79)
    f_t = rng.standard_normal(mesh.num_triangles)
    base = solve(assemble(mesh, coeffs, f_t))
    s = 12.5
    scaled_mesh = build_mesh(np.array(mesh.vertices) * s, mesh.triangles)
    scaled_coeffs = cotan_coefficients(scaled_mesh)
    scaled = solve(assemble(scaled_mesh, scaled_coeffs, f_t / s**2))
    np.testing.assert_allclose(scaled.u, base.u, atol=1e-12)


def test_inhomogeneous_constant_trace_exact():
    mesh = jittered_rhombus(3, seed=29)
    coeffs = cotan_coefficients(mesh)
    bc = np.full(len(mesh.boundary_edges), 3.25)
    solution = solve(assemble(mesh, coeffs, np.zeros(mesh.num_triangles), bc))
    np.testing.assert_allclose(solution.u, 3.25, atol=1e-11)
    assert np.max(np.abs(solution.p)) < 1e-10


@pytest.mark.parametrize("n", [1, 3])
def test_inhomogeneous_linear_solution_exact_on_rhombus(n):
    # on the equilateral tiling the scheme reproduces u = x exactly: cell
    # means at centroids, boundary traces at edge midpoints
    mesh = generate_rhombus_equilateral(n)
    coeffs = cotan_coefficients(mesh)
    traces = []
    for e in mesh.boundary_edges:
        edge = mesh.edges[e]
        mid = 0.5 * (mesh.vertices[edge.tail] + mesh.vertices[edge.head])
        traces.append(mid[0])
    bc = np.array(traces)
    solution = solve(assemble(mesh, coeffs, np.zeros(mesh.num_triangles), bc))
    expected_u = np.array(
        [geometry(mesh, t).vertices.mean(axis=-2)[0] for t in range(mesh.num_triangles)]
    )
    np.testing.assert_allclose(solution.u, expected_u, atol=1e-12)
    exact_flux = interpolate_rt(lambda x, y: (np.ones_like(x), np.zeros_like(y)), mesh)
    np.testing.assert_allclose(solution.p, exact_flux, atol=1e-11)


def test_near_threshold_delaunay_edges():
    # opposite angles summing to pi - 1e-6: admissible, tiny coupling, still
    # solvable; pushed past pi the same construction is refused
    def kite(delta):
        h = 0.5 / math.tan((math.pi - delta) / 4.0)
        return build_mesh(
            [(0.0, 0.0), (1.0, 0.0), (0.5, -h), (0.5, h)],
            [(0, 1, 2), (0, 1, 3)],
        )

    mesh = kite(1e-6)
    assert quality_report(mesh).admissible
    coeffs = cotan_coefficients(mesh)
    e = int(mesh.internal_edges[0])
    assert coeffs[e] == pytest.approx(math.tan(0.5e-6), rel=1e-6)
    # conditioning ~1/c limits the certifiable true residual; ask for 1e-9
    tol = 1e-9
    f_t = np.ones(2)
    system = assemble(mesh, coeffs, f_t)
    solution = solve(system, tol=tol)
    assert solution.u.min() > 0.0
    np.testing.assert_allclose(solution.u[0], solution.u[1], rtol=1e-9)
    report = flux_balance_check(mesh, solution, f_t)
    assert report.max_cell_residual <= 10.0 * tol * float(np.linalg.norm(system.rhs))

    crossed = kite(-1e-6)
    assert not quality_report(crossed).admissible
    bad_coeffs = cotan_coefficients(crossed)
    with pytest.raises(ValueError, match="non-positive"):
        assemble(crossed, bad_coeffs, np.ones(2))


def test_import_leaves_the_lu_solver_unloaded(tmp_path):
    # scipy is imported by the first assemble, so import ptgfv and the
    # commands that never assemble (generate, mesh-info, verify) do not pay
    # its memory and start-up cost; no command imports numpy.random, which
    # only scipy loads (scipy.sparse does); all of them run in one fresh
    # interpreter
    src = str(Path(ptgfv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"""
import contextlib, io, json, sys
import ptgfv
from ptgfv.cli import main
mesh = {str(tmp_path / "m.msh")!r}
def loaded():
    return ["scipy" in sys.modules, "numpy.random" in sys.modules]
report = {{"import": [0, *loaded()]}}
for args in (["generate", "--n", "4", "--out", mesh], ["mesh-info", mesh],
             ["verify", "--samples", "10", "--mesh", mesh],
             ["solve", "--mesh", mesh, "--rhs-const", "1"],
             ["convergence", "--levels", "2,4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = main(args)
    report[args[0]] = [exit_code, *loaded()]
report["sparse"] = ["scipy.sparse" in sys.modules, "scipy.sparse.linalg" in sys.modules]
print(json.dumps(report))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(out.stdout)
    scipy_random = report["solve"][2]
    assert report == {
        "import": [0, False, False],
        "generate": [0, False, False],
        "mesh-info": [0, False, False],
        "verify": [0, False, False],
        "solve": [0, True, scipy_random],
        "convergence": [report["convergence"][0], True, scipy_random],
        "sparse": [True, True],
    }
    # whether scipy.sparse loads numpy.random is scipy's own business
    probe = "import sys, scipy.sparse.linalg; print('numpy.random' in sys.modules)"
    alone = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert alone.stdout.strip() == str(scipy_random)


def test_solver_determinism(rhombus4):
    coeffs = cotan_coefficients(rhombus4)
    f_t = interpolate_p0(lambda x, y: np.sin(3.0 * x) * y, rhombus4)
    one = solve(assemble(rhombus4, coeffs, f_t))
    two = solve(assemble(rhombus4, coeffs, f_t))
    assert np.array_equal(one.u, two.u)
    assert np.array_equal(one.p, two.p)
    assert one.iterations == two.iterations
    assert one.residual == two.residual
