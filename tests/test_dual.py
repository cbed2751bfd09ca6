import math

import numpy as np
import pytest

from ptgfv.analysis import circumcenter_edge_distances
from ptgfv.dual import (
    cotan_coefficients,
    delta_denominator,
    delta_energy_closed_form,
    delta_numerator,
    nu_bound,
    solve_delta_k,
)
from ptgfv.mesh import TriangleGeometry, build_mesh, generate_rhombus_equilateral, quality_report

from conftest import diagonal_square_mesh, equilateral_geometry, jittered_rhombus
from oracles import (
    delta_moments,
    g_eval,
    g_moments,
    geometry,
    random_acute_triangle,
    random_triangle,
    random_triangle_min_angle,
)

SQRT3 = math.sqrt(3.0)


def test_internal_coefficient_between_equilaterals(rhombus1):
    coeffs = cotan_coefficients(rhombus1)
    assert not coeffs.flags.writeable
    e = int(rhombus1.internal_edges[0])
    assert coeffs[e] == pytest.approx(1.0 / SQRT3, rel=1e-14)
    for b in rhombus1.boundary_edges:
        assert coeffs[b] == pytest.approx(0.5 / SQRT3, rel=1e-14)


def test_boundary_coefficient_opposite_45_degrees():
    mesh = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert quality_report(mesh).admissible is False  # the right angle makes it inadmissible
    values = sorted(cotan_coefficients(mesh))
    # hypotenuse faces the right angle (cot = 0), the legs face 45 degrees
    assert values[0] == pytest.approx(0.0, abs=1e-15)
    assert values[1] == pytest.approx(0.5, rel=1e-14)
    assert values[2] == pytest.approx(0.5, rel=1e-14)


def test_cocircular_diagonal_flagged():
    mesh = diagonal_square_mesh()
    assert quality_report(mesh).admissible is False
    e = int(mesh.internal_edges[0])
    assert abs(cotan_coefficients(mesh)[e]) < 1e-12


def test_coefficients_positive_on_admissible_meshes():
    from conftest import jittered_rhombus

    for mesh in (generate_rhombus_equilateral(4), jittered_rhombus(5, seed=19)):
        assert quality_report(mesh).admissible
        assert cotan_coefficients(mesh).min() > 0.0


def test_circumcenter_distance_oracle():
    # cot(theta)/2 equals the circumcenter-to-edge distance over the length
    rng = np.random.default_rng(43)
    for _ in range(1000):
        geom = random_acute_triangle(rng)
        mesh = build_mesh(geom.vertices, [(0, 1, 2)])
        coeffs = cotan_coefficients(mesh)
        g0 = geometry(mesh, 0)
        dist = circumcenter_edge_distances(g0)
        assert np.all(dist > 0.0)
        for m in range(3):
            e = mesh.tri_edges[0, m]
            assert coeffs[e] == pytest.approx(
                dist[m] / g0.edge_lengths[m], abs=1e-11
            )


def test_coefficient_invariance_rigid_motion_and_scale(rhombus4):
    base = cotan_coefficients(rhombus4)
    angle = 1.1
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    for transform in (
        lambda v: v @ rot.T + np.array([5.0, -1.0]),
        lambda v: 37.5 * v,
        lambda v: 1e-4 * (v @ rot.T),
    ):
        moved = build_mesh(transform(np.array(rhombus4.vertices)), rhombus4.triangles)
        np.testing.assert_allclose(cotan_coefficients(moved), base, atol=1e-12)


def test_g_endpoint_and_midpoint_values():
    assert g_eval(0.0) == 0.0
    assert g_eval(1.0) == 0.0
    assert g_eval(0.5) == pytest.approx(9.375, abs=1e-14)


def test_g_symmetry():
    s = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(g_eval(s) - g_eval(1.0 - s))) < 1e-13


def test_g_moments():
    m0, m1, m2 = g_moments()
    assert m0 == pytest.approx(1.0, abs=1e-13)
    assert m1 == pytest.approx(0.5, abs=1e-13)
    assert m2 == pytest.approx(0.0, abs=1e-13)


def test_delta_equilateral_symmetry_and_energy():
    delta = solve_delta_k(equilateral_geometry())
    quad_coeffs = delta.coefficients[1:]
    assert np.max(np.abs(quad_coeffs - quad_coeffs.mean())) < 1e-10
    # oracle-pinned energy of the unit equilateral
    assert delta.energy == pytest.approx(128.0 / 3.0, rel=1e-9)
    moments = delta_moments(equilateral_geometry(), delta.coefficients)
    assert moments[0] == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(moments[1:], 0.0, atol=1e-10)
    assert delta.mean == pytest.approx(1.0, abs=1e-10)


def test_delta_constraints_random():
    rng = np.random.default_rng(47)
    for _ in range(200):
        geom = random_triangle(rng)
        delta = solve_delta_k(geom)
        assert delta.energy > 0.0
        moments = delta_moments(geom, delta.coefficients)
        assert moments[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(moments[1:])) < 1e-10 * max(1.0, geom.area**2)
        assert delta.mean == pytest.approx(moments[0], abs=1e-10)


@pytest.mark.parametrize(
    "make",
    [
        lambda: jittered_rhombus(128, 1),
        lambda: jittered_rhombus(128, 2),
        lambda: generate_rhombus_equilateral(128),
    ],
    ids=["jittered-1", "jittered-2", "equilateral"],
)
def test_delta_mean_round_off_on_fine_meshes(make):
    # stability_check passes h3 up to 1e-12; the stacked solve keeps the
    # mean of every profile within 2.1e-14 of 1 at n=128, and a rewrite that
    # loses digits must fail here before it fails that gate
    mean = solve_delta_k(make().geometries).mean
    assert np.abs(mean - 1.0).max() <= 1e-13


def test_delta_energy_scale_invariance():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        geom = random_triangle(rng)
        base = solve_delta_k(geom).energy
        for s in (1e-3, 1e3):
            scaled = TriangleGeometry.from_vertices(geom.vertices * s)
            assert solve_delta_k(scaled).energy == pytest.approx(base, rel=1e-9)


def test_closed_form_equilateral_pieces():
    geom = equilateral_geometry()
    assert delta_denominator(geom) == pytest.approx(15.0 / 4.0, rel=1e-13)
    assert delta_numerator(geom) == pytest.approx(720.0, rel=1e-13)
    assert delta_energy_closed_form(geom) == pytest.approx(128.0 / 3.0, rel=1e-12)


def test_closed_form_matches_quadrature():
    rng = np.random.default_rng(59)
    for _ in range(300):
        geom = random_acute_triangle(rng)
        closed = delta_energy_closed_form(geom)
        assert solve_delta_k(geom).energy == pytest.approx(closed, rel=1e-8)


def test_polynomial_bounds_random():
    rng = np.random.default_rng(61)
    for _ in range(500):
        geom = random_triangle(rng)
        sigma2 = float(np.sum(geom.edge_lengths**2))
        assert delta_denominator(geom) >= (5.0 / 12.0) * sigma2**2 * (1.0 - 1e-12)
        assert delta_numerator(geom) <= 23.0 * sigma2**6


def test_nu_bound_values():
    assert nu_bound(math.pi / 4.0) == pytest.approx(8942.4, rel=1e-12)
    assert nu_bound(math.pi / 3.0) == pytest.approx(993.6, rel=1e-12)


def test_nu_bound_monotone_decreasing():
    thetas = np.linspace(0.1, math.pi / 2 - 0.1, 40)
    values = [nu_bound(t) for t in thetas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_nu_bound_domain():
    with pytest.raises(ValueError):
        nu_bound(0.0)
    with pytest.raises(ValueError):
        nu_bound(math.pi / 2.0)


@pytest.mark.parametrize("degrees", [20.0, 30.0, 45.0, 60.0])
def test_energy_bounded_by_nu_over_angle_classes(degrees):
    theta_star = math.radians(degrees)
    nu = nu_bound(theta_star)
    rng = np.random.default_rng(int(degrees))
    worst = 0.0
    for _ in range(250):
        geom = random_triangle_min_angle(rng, theta_star)
        assert geom.angles.min() >= theta_star - 1e-9
        ratio = solve_delta_k(geom).energy / nu
        worst = max(worst, ratio)
    assert worst <= 1.0
    # the bound is loose: observed ratios stay far below 1
    assert worst < 0.2


def test_singular_moment_system_names_its_triangle():
    # an isosceles sliver with apex 1e-8 rad makes the 4x4 Gram system
    # exactly singular; a batch names the index of the first such triangle
    s = math.tan(0.5e-8)
    sliver = [(0.0, 0.0), (1.0, -s), (1.0, s)]
    batch = TriangleGeometry.from_vertices([equilateral_geometry().vertices, sliver, sliver])
    singular = np.linalg.LinAlgError
    with pytest.raises(singular, match=r"^singular moment system for triangle 1 with vertices "):
        solve_delta_k(batch)
    with pytest.raises(singular, match=r"^singular moment system for triangle 0 "):
        solve_delta_k(TriangleGeometry.from_vertices(sliver))
