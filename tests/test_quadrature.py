import math

import numpy as np
import pytest

from ptgfv.mesh import TriangleGeometry
from ptgfv.quadrature import TriangleRule, triangle_rule

from conftest import equilateral_geometry
from oracles import IntervalRule, integrate_interval, integrate_triangle, interval_rule

REFERENCE = TriangleGeometry.from_vertices([(0, 0), (1, 0), (0, 1)])


def test_declared_degrees_meet_minimums():
    # the error norms integrate degree-6 products with the one triangle rule
    assert triangle_rule().degree >= 6
    assert interval_rule().degree >= 6


def test_weights_sum_to_one():
    assert abs(triangle_rule().weights.sum() - 1.0) < 1e-14
    assert abs(interval_rule().weights.sum() - 1.0) < 1e-14


def test_selftest_rejects_corrupted_rule():
    rule = triangle_rule()
    weights = rule.weights.copy()
    weights[0] += 1e-6
    with pytest.raises(ValueError, match="exactness"):
        TriangleRule(rule.points, weights / weights.sum(), rule.degree)
    with pytest.raises(ValueError, match="sum to 1"):
        TriangleRule(rule.points, rule.weights * 1.001, rule.degree)
    with pytest.raises(ValueError):
        IntervalRule(np.array([0.25, 0.5]), np.array([0.5, 0.5]), degree=2)


def test_triangle_constant_gives_area():
    rng = np.random.default_rng(3)
    for _ in range(20):
        geom = TriangleGeometry.from_vertices(rng.uniform(size=(3, 2)))
        val = integrate_triangle(triangle_rule(), geom, lambda x, y: np.ones_like(x))
        assert val == pytest.approx(geom.area, rel=1e-14)


def test_triangle_second_moment_on_equilateral():
    # int |x - centroid|^2 over the unit equilateral is rho^2 * area = sqrt(3)/48
    geom = equilateral_geometry()
    gx, gy = geom.centroid
    val = integrate_triangle(
        triangle_rule(), geom, lambda x, y: (x - gx) ** 2 + (y - gy) ** 2
    )
    assert val == pytest.approx(math.sqrt(3.0) / 48.0, rel=1e-13)
    assert val == pytest.approx(0.036084391824351615, rel=1e-12)


def test_triangle_quartic_monomial_on_reference():
    val = integrate_triangle(triangle_rule(), REFERENCE, lambda x, y: x**2 * y**2)
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
