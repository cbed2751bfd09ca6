import dataclasses
import math

import numpy as np
import pytest

from ptgfv.analysis import (
    CASES,
    ManufacturedCase,
    convergence_study,
    error_norms,
    lemma_suite,
    stability_check,
)
from ptgfv.dual import cotan_coefficients, nu_bound, solve_delta_k
from ptgfv.mesh import generate_rhombus_equilateral
from ptgfv.solver import Solution, assemble, solve
from ptgfv.spaces import interpolate_p0

from conftest import diagonal_square_mesh, equilateral_geometry, jittered_rhombus
from oracles import interpolate_rt, random_triangle_min_angle

CASE = CASES["rhombus-sine"]
SQRT3 = math.sqrt(3.0)


def test_case_source_matches_five_point_laplacian():
    rng = np.random.default_rng(83)
    h = 1e-4
    for _ in range(100):
        s, t = rng.uniform(0.05, 0.95, size=2)
        x, y = s + 0.5 * t, t * SQRT3 / 2.0  # interior of the rhombus
        lap = (
            CASE.u(x + h, y)
            + CASE.u(x - h, y)
            + CASE.u(x, y + h)
            + CASE.u(x, y - h)
            - 4.0 * CASE.u(x, y)
        ) / h**2
        assert abs(lap + CASE.f(x, y)) <= 1e-5


def test_case_vanishes_on_boundary():
    s = np.linspace(0.0, 1.0, 57)
    sides = [
        (s, np.zeros_like(s)),                        # bottom
        (0.5 + s, np.full_like(s, SQRT3 / 2.0)),      # top
        (0.5 * s, s * SQRT3 / 2.0),                   # left
        (1.0 + 0.5 * s, s * SQRT3 / 2.0),             # right
    ]
    for x, y in sides:
        assert np.max(np.abs(CASE.u(x, y))) < 1e-12


def test_case_gradient_matches_finite_differences():
    rng = np.random.default_rng(89)
    h = 1e-6
    for _ in range(50):
        s, t = rng.uniform(0.05, 0.95, size=2)
        x, y = s + 0.5 * t, t * SQRT3 / 2.0
        gx, gy = CASE.grad_u(x, y)
        assert gx == pytest.approx((CASE.u(x + h, y) - CASE.u(x - h, y)) / (2 * h), abs=1e-6)
        assert gy == pytest.approx((CASE.u(x, y + h) - CASE.u(x, y - h)) / (2 * h), abs=1e-6)


def _solve_case(n, tol=1e-12):
    mesh = CASE.generator(n)
    coeffs = cotan_coefficients(mesh)
    f_t = interpolate_p0(CASE.f, mesh)
    return mesh, solve(assemble(mesh, coeffs, f_t), tol=tol)


def test_error_norms_decrease_with_refinement():
    mesh8, sol8 = _solve_case(8)
    mesh16, sol16 = _solve_case(16)
    e8 = error_norms(mesh8, sol8, CASE)
    e16 = error_norms(mesh16, sol16, CASE)
    assert all(v > 0.0 for v in e8)
    assert all(b < a for a, b in zip(e8, e16))


def test_error_norms_of_injected_exact_solution():
    # interpolated exact data: the scalar error is the projection error, O(h)
    errors = []
    for n in (8, 16):
        mesh = CASE.generator(n)
        injected = Solution(
            u=interpolate_p0(CASE.u, mesh),
            p=interpolate_rt(lambda x, y: CASE.grad_u(x, y), mesh),
            iterations=0,
            residual=0.0,
        )
        eu, ep, ediv = error_norms(mesh, injected, CASE)
        assert eu > 0.0
        errors.append(eu)
    assert errors[1] < 0.6 * errors[0]


def test_error_norms_zero_case():
    mesh = generate_rhombus_equilateral(4)
    zero_case = ManufacturedCase(
        name="zero",
        generator=generate_rhombus_equilateral,
        u=lambda x, y: np.zeros_like(x),
        f=lambda x, y: np.zeros_like(x),
        grad_u=lambda x, y: (np.zeros_like(x), np.zeros_like(y)),
    )
    coeffs = cotan_coefficients(mesh)
    solution = solve(assemble(mesh, coeffs, interpolate_p0(zero_case.f, mesh)))
    eu, ep, ediv = error_norms(mesh, solution, zero_case)
    assert max(eu, ep, ediv) <= 1e-12


def test_default_exact_calls_u_grad_u_and_f():
    calls = []

    def field(name, value):
        def call(x, y):
            calls.append(name)
            return value(x, y)
        return call

    case = ManufacturedCase(
        name="traced",
        generator=generate_rhombus_equilateral,
        u=field("u", CASE.u),
        f=field("f", CASE.f),
        grad_u=field("grad_u", CASE.grad_u),
    )
    x, y = np.array([0.3, 0.9]), np.array([0.2, 0.4])
    u, ux, uy, f = case.exact(x, y)
    assert calls == ["u", "grad_u", "f"]
    assert np.array_equal(u, CASE.u(x, y))
    assert np.array_equal(np.stack([ux, uy]), np.stack(CASE.grad_u(x, y)))
    assert np.array_equal(f, CASE.f(x, y))


@pytest.mark.parametrize(
    "mesh",
    [generate_rhombus_equilateral(16), jittered_rhombus(16, seed=1)],
    ids=["equilateral", "jittered"],
)
def test_shared_trig_error_norms_are_bit_identical(mesh):
    # rhombus-sine's exact() shares four trig arrays among u, grad u and f;
    # a case built from the same three callables without it takes the
    # default path and must give the very same floats
    plain = ManufacturedCase(
        name="plain", generator=CASE.generator, u=CASE.u, f=CASE.f, grad_u=CASE.grad_u
    )
    f_t = interpolate_p0(CASE.f, mesh)
    solution = solve(assemble(mesh, cotan_coefficients(mesh), f_t), tol=1e-10)
    assert error_norms(mesh, solution, CASE) == error_norms(mesh, solution, plain)
    x = np.random.default_rng(3).uniform(size=(50, 7, 2))
    shared = CASE.exact(x[..., 0], x[..., 1])
    default = plain.exact(x[..., 0], x[..., 1])
    for a, b in zip(shared, default):
        assert np.array_equal(a, b)


def test_convergence_study_validation():
    with pytest.raises(ValueError, match="at least 2"):
        convergence_study(CASE, [8])
    with pytest.raises(ValueError, match="increasing"):
        convergence_study(CASE, [16, 8])


def test_convergence_study_two_coarse_levels():
    report = convergence_study(CASE, [4, 8])
    assert report.levels[0].h == pytest.approx(0.25, abs=1e-15)
    assert report.final_rate("combined") > 0.8
    assert report.final_rate("ep") > 0.8


def test_lemma_suite_passes_and_reproducible():
    one = lemma_suite(samples=300, seed=42)
    assert one.all_passed
    assert one.max_energy_ratio < 1.0
    two = lemma_suite(samples=300, seed=42)
    assert one == two
    other = lemma_suite(samples=300, seed=43)
    assert other != one


def test_lemma_suite_single_sample():
    assert lemma_suite(samples=1, seed=42).all_passed
    with pytest.raises(ValueError):
        lemma_suite(samples=0)


def test_lemma_suite_full_size():
    report = lemma_suite(samples=10000, seed=42)
    assert report.all_passed
    assert report.max_energy_ratio < 1.0
    for check in report.checks:
        assert check.samples == 10000
        assert check.worst_slack >= 0.0


def test_lemma_suite_on_given_triangles():
    report = lemma_suite(triangles=[equilateral_geometry()], seed=0)
    assert report.all_passed
    # on the equilateral the energy ratio is (128/3) / nu(pi/3)
    assert report.max_energy_ratio == pytest.approx((128.0 / 3.0) / 993.6, rel=1e-9)


def test_lemma_suite_near_degenerate_triangle():
    theta = math.radians(5.01)
    apex = math.pi - 2.0 * theta
    geom = random_triangle_min_angle(np.random.default_rng(0), theta)
    skinny = [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.5, 0.5 * math.tan(theta)),
    ]  # isosceles with base angles 5.01 degrees
    from ptgfv.mesh import TriangleGeometry

    report = lemma_suite(triangles=[geom, TriangleGeometry.from_vertices(skinny)], seed=0)
    assert report.all_passed
    assert apex > math.pi / 2  # obtuse stress case exercised


def test_stability_on_equilateral_rhombus(rhombus4):
    report = stability_check(rhombus4, trials=100, seed=42)
    assert report.bound_h1 == pytest.approx(0.4, rel=1e-12)
    assert report.h1_min_ratio >= 0.4 - 1e-12
    assert report.h3_max_deviation <= 1e-12
    assert report.bound_h4 == pytest.approx(math.sqrt(nu_bound(math.pi / 3.0)), rel=1e-12)
    assert report.h4_max_ratio <= report.bound_h4
    # every triangle is congruent, so the divergence-energy ratio is constant
    assert report.h4_max_ratio == pytest.approx(math.sqrt(128.0 / 3.0), rel=1e-9)
    assert report.max_energy == pytest.approx(128.0 / 3.0, rel=1e-9)
    assert report.passed_h1 is True
    assert report.all_passed


def test_stability_on_nonuniform_admissible_mesh():
    # perturbed mesh: angle extrema straddle 60 degrees, bounds follow them
    from conftest import jittered_rhombus
    from ptgfv.mesh import quality_report

    mesh = jittered_rhombus(4, seed=33)
    quality = quality_report(mesh)
    assert quality.all_acute  # keeps the lower-bound constant positive
    assert quality.theta_max > math.pi / 3 > quality.theta_min
    report = stability_check(mesh, trials=50, seed=3)
    expected_h1 = 0.4 * math.tan(quality.theta_min) / math.tan(quality.theta_max)
    assert report.bound_h1 == pytest.approx(expected_h1, rel=1e-12)
    assert report.all_passed
    assert report.h4_max_ratio <= math.sqrt(report.max_energy) * (1.0 + 1e-12)


def test_stability_h1_not_applicable_past_a_right_angle():
    # admissible, but one angle is 90.59 degrees: the paper's h1 bound is
    # negative there and would pass any ratio
    from conftest import jittered_rhombus
    from ptgfv.mesh import quality_report

    mesh = jittered_rhombus(24)
    quality = quality_report(mesh)
    assert quality.admissible and not quality.all_acute
    report = stability_check(mesh, trials=20, seed=3)
    assert report.bound_h1 < 0.0
    assert report.passed_h1 is None
    witness = mesh.geometries.angles[report.theta_max_triangle]
    assert witness.max() == report.theta_max == quality.theta_max
    assert math.degrees(report.theta_max) == pytest.approx(90.589, abs=1e-3)
    assert report.passed_h3 and report.passed_h4 and report.all_passed
    record = dataclasses.asdict(report)
    assert record["passed_h1"] is None
    assert record["theta_max_triangle"] == report.theta_max_triangle
    assert record["h1_min_ratio"] == report.h1_min_ratio > 0.0


def test_stability_h3_h4_are_exact_extrema():
    # the divergence-weighted ratios are weighted means of per-cell values,
    # so their suprema are per-cell extrema that no flux field exceeds
    from conftest import jittered_rhombus

    mesh = jittered_rhombus(24)
    report = stability_check(mesh, trials=5, seed=3)
    delta = solve_delta_k(mesh.geometries)
    means = delta.moments()[:, 0]
    assert report.h3_max_deviation == float(np.abs(means - 1.0).max())
    assert report.h4_max_ratio == math.sqrt(delta.energy.max())
    assert report.h4_max_ratio == pytest.approx(6.600, abs=1e-3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.standard_normal(mesh.num_edges)
        weight = (mesh.tri_signs * p[mesh.tri_edges]).sum(axis=1) ** 2 / mesh.areas
        h3 = abs(float(weight @ means) / weight.sum() - 1.0)
        h4 = math.sqrt(float(weight @ delta.energy) / weight.sum())
        assert h3 <= report.h3_max_deviation + 1e-15
        assert h4 <= report.h4_max_ratio * (1.0 + 1e-14)


def test_stability_rejects_inadmissible_mesh():
    with pytest.raises(ValueError, match="admissible"):
        stability_check(diagonal_square_mesh())


def test_stability_deterministic(rhombus4):
    a = stability_check(rhombus4, trials=20, seed=1)
    b = stability_check(rhombus4, trials=20, seed=1)
    assert a == b


def test_min_angle_sampler():
    rng = np.random.default_rng(97)
    for degrees in (20.0, 45.0, 60.0):
        theta = math.radians(degrees)
        for _ in range(50):
            geom = random_triangle_min_angle(rng, theta)
            assert geom.angles.min() >= theta - 1e-9
    with pytest.raises(ValueError):
        random_triangle_min_angle(rng, math.radians(61.0))
