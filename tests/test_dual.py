import itertools
import math

import numpy as np
import pytest

from ptgfv.analysis import circumcenter_edge_distances
from ptgfv.dual import (
    _profile_terms,
    cotan_coefficients,
    delta_energy_closed_form,
    nu_bound,
    solve_delta_k,
)
from ptgfv.mesh import TriangleGeometry, build_mesh, generate_rhombus_equilateral, quality_report
from ptgfv.spaces import QUAD_POINTS, QUAD_WEIGHTS

from conftest import diagonal_square_mesh, equilateral_geometry, jittered_rhombus
from oracles import (
    angles,
    delta_energy_reference,
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
    # the profile is radial: 1 + c (rho^2 - mean(rho^2)), no linear part
    assert delta.coefficients[0] == 1.0
    np.testing.assert_allclose(delta.coefficients[1:3], 0.0, atol=1e-10)
    # oracle-pinned energy of the unit equilateral
    assert delta.energy == pytest.approx(128.0 / 3.0, rel=1e-14)
    moments = delta_moments(equilateral_geometry(), delta.coefficients)
    assert moments[0] == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(moments[1:], 0.0, atol=1e-10)
    assert delta.values_at(QUAD_POINTS) @ QUAD_WEIGHTS == pytest.approx(1.0, abs=1e-10)


def test_delta_constraints_random():
    rng = np.random.default_rng(47)
    for _ in range(200):
        geom = random_triangle(rng)
        delta = solve_delta_k(geom)
        assert delta.energy > 0.0
        moments = delta_moments(geom, delta.coefficients)
        assert moments[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(moments[1:])) < 1e-10 * max(1.0, geom.area**2)
        mean = delta.values_at(QUAD_POINTS) @ QUAD_WEIGHTS
        assert mean == pytest.approx(moments[0], abs=1e-10)


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
    # stability_check passes h3 up to 1e-12; the rule's mean of every
    # profile stays within 1e-13 of 1 at n=128, and a rewrite that loses
    # digits must fail here before it fails that gate
    mean = solve_delta_k(make().geometries).values_at(QUAD_POINTS) @ QUAD_WEIGHTS
    assert np.abs(mean - 1.0).max() <= 1e-13


def test_delta_energy_scale_invariance():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        geom = random_triangle(rng)
        base = solve_delta_k(geom).energy
        for s in (1e-3, 1e3):
            scaled = TriangleGeometry.from_vertices(geom.vertices * s)
            assert solve_delta_k(scaled).energy == pytest.approx(base, rel=1e-9)


def _isosceles(apex: float) -> list[tuple[float, float]]:
    """Isosceles triangle with legs of length 1 and the apex angle ``apex``
    at the origin."""
    s = math.tan(apex / 2)
    return [(0.0, 0.0), (1.0, -s), (1.0, s)]


def _rotation(angle: float) -> np.ndarray:
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


@pytest.mark.parametrize(
    "corners",
    [
        equilateral_geometry().vertices,
        _isosceles(math.radians(30.0)),     # two longest edges tie
        _isosceles(math.radians(120.0)),
        [(0.1, 0.2), (1.3, 0.05), (0.4, 0.9)],
    ],
    ids=["equilateral", "isosceles-30", "isosceles-120", "scalene"],
)
def test_delta_energy_is_invariant_under_similarities_and_relabelling(corners):
    # the energy belongs to the triangle's shape: whichever corner comes
    # first, whichever longest edge the frame takes, and at any position,
    # orientation and scale up to 1e+-150
    corners = np.array(corners, dtype=float)
    base = solve_delta_k(TriangleGeometry.from_vertices(corners)).energy
    moved = {
        "roll 1": np.roll(corners, 1, axis=0),
        "roll 2": np.roll(corners, 2, axis=0),
        "reflect": corners * np.array([-1.0, 1.0]),
        "rotate": corners @ _rotation(1.1).T,
        "rotate and roll": np.roll(corners, 1, axis=0) @ _rotation(-2.3).T,
        "translate": corners + np.array([3.5, -7.25]),
        "scale 1e150": corners * 1e150,
        "scale 1e-150": corners * 1e-150,
        "all": 1e-150 * (corners[::-1] * np.array([1.0, -1.0]) @ _rotation(0.7).T + 2.0),
    }
    for name, v in moved.items():
        energy = solve_delta_k(TriangleGeometry.from_vertices(v)).energy
        assert energy == pytest.approx(base, rel=1e-13, abs=0), name


# |K| int(delta^2) of needles, skew slivers and isosceles slivers, from
# delta_energy_reference (an exact Gram matrix solved with 100 digits)
NEEDLES = {1e-3: 246429107574.83875, 1e-5: 2.4642819973828284e19, 1e-7: 2.464281996475015e27}
SKEW_SLIVERS = {1e-6: 6666736693.638106, 1e-8: 66666674830096.15}
ISOSCELES_SLIVERS = {
    1e-6: 28.50000000002625,
    3e-7: 28.500000000002363,
    1e-8: 28.500000000000004,
    1e-10: 28.5,
}
SCALENE = [(0.0, 0.0), (1.0, 0.0), (0.3, 0.8)]
SHAPES = (
    [(f"needle-{e:g}", [(0.0, 0.0), (1.0, 0.0), (0.3, e)], energy) for e, energy in NEEDLES.items()]
    + [(f"skew-{e:g}", [(0.0, 0.0), (1.0, -e), (1.0 + 0.3 * e, 2.0 * e)], energy)
       for e, energy in SKEW_SLIVERS.items()]
    + [(f"isosceles-{a:g}", _isosceles(a), energy) for a, energy in ISOSCELES_SLIVERS.items()]
    + [("scalene", SCALENE, 41.54907212370422)]
)
# the scalene triangle at scales where sigma^12 or |K|^4 leaves the float
# range; its energy does not depend on the scale, and the reference checks
# it at each one
SCALED = [
    (f"scalene-x{scale:g}", np.array(SCALENE) * scale, SHAPES[-1][2])
    for scale in (1e-160, 1e-80, 1e40, 1e80, 1e150)
]


@pytest.mark.parametrize("name, corners, energy", SHAPES + SCALED, ids=[s[0] for s in SHAPES + SCALED])
def test_delta_energy_on_needles_and_slivers(name, corners, energy):
    # in the constraint basis {1, |x-W_i|^2} these shapes give singular or
    # digit-free systems (negative energies on the needles).  Relabelling
    # and reflecting are exact, and the isosceles slivers tie for their
    # longest edge; a rotation or a shift would round the short edge into
    # another shape.
    corners = np.array(corners)
    variants = [corners, np.roll(corners, 1, axis=0), np.roll(corners, 2, axis=0),
                corners * np.array([-1.0, 1.0])]
    energies = solve_delta_k(TriangleGeometry.from_vertices(variants)).energy
    assert np.all(energies > 0.0)
    np.testing.assert_allclose(energies, energy, rtol=1e-14, atol=0)
    assert solve_delta_k(TriangleGeometry.from_vertices(corners)).energy == energies[0]
    # the closed form holds no cancelling terms either
    closed = delta_energy_closed_form(TriangleGeometry.from_vertices(variants))
    np.testing.assert_allclose(closed, energy, rtol=1e-14, atol=0)


def test_pinned_energies_match_the_many_digit_reference():
    pytest.importorskip("mpmath")
    for name, corners, energy in SHAPES + SCALED:
        assert delta_energy_reference(corners) == pytest.approx(energy, rel=1e-15, abs=0), name


def test_closed_form_equilateral_pieces():
    # D / sigma^4 = 5/12 and N / sigma^12 = k^2 B / sigma^4 = 80/81, k = 1/3
    geom = equilateral_geometry()
    denominator, reduced = _profile_terms(geom)
    assert denominator == pytest.approx(5.0 / 12.0, rel=1e-13)
    assert reduced / (81.0 * geom.ratio**2) ** 2 == pytest.approx(80.0 / 81.0, rel=1e-13)
    assert delta_energy_closed_form(geom) == pytest.approx(128.0 / 3.0, rel=1e-12)


def _power_sum(lengths, *pattern):
    # the sum of the distinct monomials l_0^p0 l_1^p1 l_2^p2 over the
    # permutations (p0, p1, p2) of ``pattern``
    return sum(
        math.prod(length**e for length, e in zip(lengths, powers))
        for powers in set(itertools.permutations(pattern))
    )


def test_closed_form_equals_the_paper_polynomials():
    # the code's own dimensionless terms, run on symbols: D / sigma^4 and
    # B / sigma^4, multiplied back by sigma^4 and by sigma^4 (16 |K|^2)^2,
    # are the paper's power-sum D and N; they are read off cot and
    # r = rho^2 / |K| = sigma^2 / (36 |K|) alone
    sp = pytest.importorskip("sympy")
    lengths = sp.symbols("l0:3", positive=True)
    squares = [length**2 for length in lengths]
    sigma2 = sum(squares)
    area = sp.sqrt((2 * _power_sum(lengths, 2, 2, 0) - _power_sum(lengths, 4, 0, 0)) / 16)
    geom = TriangleGeometry(
        vertices=None,
        area=area,
        edge_lengths=np.array(lengths, dtype=object),
        cot=np.array([(sigma2 - 2 * s) / (4 * area) for s in squares], dtype=object),
        ratio=sigma2 / (36 * area),
    )
    paper_n = (
        9 * _power_sum(lengths, 12, 0, 0) - 15 * _power_sum(lengths, 10, 2, 0)
        + 15 * _power_sum(lengths, 8, 4, 0) - 33 * _power_sum(lengths, 8, 2, 2)
        - 18 * _power_sum(lengths, 6, 6, 0) + 48 * _power_sum(lengths, 6, 4, 2)
        + 558 * math.prod(lengths) ** 4
    )
    paper_d = sp.Rational(7, 4) * _power_sum(lengths, 4, 0, 0) - _power_sum(lengths, 2, 2, 0) / 2

    def exact(expr):
        # every float coefficient of the code is a short binary fraction
        return sp.nsimplify(expr, rational=True)

    denominator, reduced = (exact(term) for term in _profile_terms(geom))
    assert sp.cancel(denominator * sigma2**2 - paper_d) == 0
    assert sp.cancel(reduced * sigma2**2 * (16 * area**2) ** 2 - paper_n) == 0
    weitzenboeck = sp.Rational(3, 4) - 1 / (81 * geom.ratio**2)
    assert sp.cancel(denominator - weitzenboeck) == 0
    closed = exact(delta_energy_closed_form(geom))
    assert sp.cancel(closed - paper_n / (128 * area**4 * paper_d)) == 0


def test_closed_form_matches_quadrature():
    rng = np.random.default_rng(59)
    for _ in range(300):
        geom = random_acute_triangle(rng)
        closed = delta_energy_closed_form(geom)
        assert solve_delta_k(geom).energy == pytest.approx(closed, rel=1e-12)


def test_polynomial_bounds_random():
    rng = np.random.default_rng(61)
    for _ in range(500):
        geom = random_triangle(rng)
        denominator, reduced = _profile_terms(geom)
        assert denominator >= (5.0 / 12.0) * (1.0 - 1e-12)
        assert reduced / (81.0 * geom.ratio**2) ** 2 <= 23.0


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
        assert angles(geom).min() >= theta_star - 1e-9
        ratio = solve_delta_k(geom).energy / nu
        worst = max(worst, ratio)
    assert worst <= 1.0
    # the bound is loose: observed ratios stay far below 1
    assert worst < 0.2
