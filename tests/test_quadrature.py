import math

import numpy as np
import pytest

from ptgfv.mesh import TriangleGeometry
from ptgfv.spaces import QUAD_POINTS, QUAD_WEIGHTS

from conftest import equilateral_geometry
from oracles import IntervalRule, integrate_interval, integrate_triangle, interval_rule

REFERENCE = TriangleGeometry.from_vertices([(0, 0), (1, 0), (0, 1)])


def exactness_error(points, weights, degree):
    """Largest error of the rule over the monomials x^a y^b, a + b <= degree,
    on the reference triangle, whose integral is a! b! / (a + b + 2)!."""
    x = points @ REFERENCE.vertices
    return max(
        abs(0.5 * weights @ (x[:, 0] ** a * x[:, 1] ** (d - a))
            - math.factorial(a) * math.factorial(d - a) / math.factorial(d + 2))
        for d in range(degree + 1)
        for a in range(d + 1)
    )


def test_declared_degrees_meet_minimums():
    # the error norms integrate degree-6 products with the one triangle rule
    assert QUAD_POINTS.shape == (12, 3) and QUAD_WEIGHTS.shape == (12,)
    assert exactness_error(QUAD_POINTS, QUAD_WEIGHTS, 6) <= 1e-13
    assert interval_rule().degree >= 6


def test_weights_sum_to_one():
    assert abs(QUAD_WEIGHTS.sum() - 1.0) < 1e-14
    np.testing.assert_allclose(QUAD_POINTS.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert abs(interval_rule().weights.sum() - 1.0) < 1e-14


def test_selftest_rejects_corrupted_rule():
    # the exactness check passes the rule and fails a copy with one weight
    # moved by 1e-6 (renormalized, so the constants still integrate exactly)
    assert exactness_error(QUAD_POINTS, QUAD_WEIGHTS, 6) <= 1e-13
    weights = QUAD_WEIGHTS.copy()
    weights[0] += 1e-6
    assert exactness_error(QUAD_POINTS, weights / weights.sum(), 6) > 1e-13
    for table in (QUAD_POINTS, QUAD_WEIGHTS):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    with pytest.raises(ValueError):
        IntervalRule(np.array([0.25, 0.5]), np.array([0.5, 0.5]), degree=2)


def test_triangle_constant_gives_area():
    rng = np.random.default_rng(3)
    for _ in range(20):
        geom = TriangleGeometry.from_vertices(rng.uniform(size=(3, 2)))
        val = integrate_triangle(geom, lambda x, y: np.ones_like(x))
        assert val == pytest.approx(geom.area, rel=1e-14)


def test_triangle_second_moment_on_equilateral():
    # int |x - centroid|^2 over the unit equilateral is rho^2 * area = sqrt(3)/48
    geom = equilateral_geometry()
    gx, gy = geom.vertices.mean(axis=-2)
    val = integrate_triangle(geom, lambda x, y: (x - gx) ** 2 + (y - gy) ** 2)
    assert val == pytest.approx(math.sqrt(3.0) / 48.0, rel=1e-13)
    assert val == pytest.approx(0.036084391824351615, rel=1e-12)


def test_triangle_quartic_monomial_on_reference():
    val = integrate_triangle(REFERENCE, lambda x, y: x**2 * y**2)
    assert val == pytest.approx(1.0 / 180.0, rel=1e-13)


def test_interval_constant():
    assert integrate_interval(interval_rule(), lambda s: np.ones_like(s)) == pytest.approx(
        1.0, abs=1e-14
    )


def test_interval_degree_six_monomial():
    assert integrate_interval(interval_rule(), lambda s: s**6) == pytest.approx(
        1.0 / 7.0, rel=1e-13
    )


def test_interval_nodes_interior():
    rule = interval_rule()
    assert rule.points.min() > 0.0
    assert rule.points.max() < 1.0
