import math

import numpy as np
import pytest

from ptgfv.analysis import SplitMix64, random_triangles
from ptgfv.mesh import TriangleGeometry, build_mesh, generate_rhombus_equilateral
from ptgfv.spaces import (
    QUAD_POINTS,
    divergence,
    interpolate_p0,
    local_fluxes,
    local_gram_closed_form,
)

from conftest import equilateral_geometry, jittered_rhombus
from oracles import (
    angles,
    eval_local_basis,
    eval_rt_field,
    geometry,
    interpolate_rt,
    interval_rule,
    local_gram_indexed,
    local_gram_quadrature,
    random_triangle,
)

SQRT3 = math.sqrt(3.0)


def test_local_basis_vanishes_at_opposite_vertex():
    geom = equilateral_geometry()
    for i in range(3):
        assert np.allclose(eval_local_basis(geom, i, geom.vertices[i]), 0.0)


def test_local_basis_reference_value():
    geom = TriangleGeometry.from_vertices([(0, 0), (1, 0), (0, 1)])
    np.testing.assert_allclose(eval_local_basis(geom, 0, np.array([1.0, 0.0])), [1.0, 0.0])


def test_local_basis_flux_normalization():
    # edge-quadrature oracle: flux of basis i through edge j equals delta_ij
    rng = np.random.default_rng(21)
    rule = interval_rule()
    for _ in range(50):
        geom = random_triangle(rng)
        mesh = build_mesh(geom.vertices, [(0, 1, 2)])
        g0 = geometry(mesh, 0)
        for i in range(3):
            for j in range(3):
                edge = mesh.edges[mesh.tri_edges[0, j]]
                a = mesh.vertices[edge.tail]
                b = mesh.vertices[edge.head]
                pts = a + rule.points[:, None] * (b - a)
                vals = eval_local_basis(g0, i, pts) @ edge.normal
                flux = edge.length * float(rule.weights @ vals)
                assert flux == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


def test_rt_field_zero():
    mesh = generate_rhombus_equilateral(2)
    p = np.zeros(mesh.num_edges)
    assert np.allclose(eval_rt_field(mesh, p, 3, geometry(mesh, 3).vertices.mean(axis=-2)), 0.0)


def test_rt_normal_continuity_across_internal_edge():
    mesh = jittered_rhombus(3, seed=8)
    e = int(mesh.internal_edges[0])
    edge = mesh.edges[e]
    p = np.zeros(mesh.num_edges)
    p[e] = 1.0
    midpoint = 0.5 * (mesh.vertices[edge.tail] + mesh.vertices[edge.head])
    from_owner = eval_rt_field(mesh, p, edge.owner, midpoint) @ edge.normal
    from_neighbor = eval_rt_field(mesh, p, edge.neighbor, midpoint) @ edge.normal
    assert from_owner == pytest.approx(from_neighbor, abs=1e-13)


def test_rt_reproduces_constant_fields():
    mesh = jittered_rhombus(3, seed=5)
    p = interpolate_rt(lambda x, y: (np.ones_like(x), np.zeros_like(y)), mesh)
    for t in range(mesh.num_triangles):
        x = QUAD_POINTS @ geometry(mesh, t).vertices
        vals = eval_rt_field(mesh, p, t, x)
        np.testing.assert_allclose(vals[:, 0], 1.0, atol=1e-13)
        np.testing.assert_allclose(vals[:, 1], 0.0, atol=1e-13)


def test_divergence_of_constant_field_vanishes():
    mesh = jittered_rhombus(4, seed=6)
    p = interpolate_rt(lambda x, y: (np.full_like(x, 0.3), np.full_like(y, -1.7)), mesh)
    assert np.max(np.abs(divergence(mesh, p))) < 1e-12


def test_divergence_of_identity_field():
    mesh = generate_rhombus_equilateral(3)
    p = interpolate_rt(lambda x, y: (x, y), mesh)
    np.testing.assert_allclose(divergence(mesh, p), 2.0, atol=1e-12)


def test_divergence_of_single_edge_flux(rhombus1):
    e = int(rhombus1.internal_edges[0])
    edge = rhombus1.edges[e]
    p = np.zeros(rhombus1.num_edges)
    p[e] = 1.0
    div = divergence(rhombus1, p)
    assert div[edge.owner] == pytest.approx(1.0 / rhombus1.areas[edge.owner])
    assert div[edge.neighbor] == pytest.approx(-1.0 / rhombus1.areas[edge.neighbor])


def test_interpolate_p0_constant_and_linear():
    mesh = generate_rhombus_equilateral(2)
    vals = interpolate_p0(lambda x, y: np.full_like(x, 4.5), mesh)
    np.testing.assert_allclose(vals, 4.5, atol=1e-14)
    linear = interpolate_p0(lambda x, y: 2.0 * x - 3.0 * y + 1.0, mesh)
    for t in range(mesh.num_triangles):
        cx, cy = geometry(mesh, t).vertices.mean(axis=-2)
        assert linear[t] == pytest.approx(2.0 * cx - 3.0 * cy + 1.0, abs=1e-13)


def test_interpolate_p0_takes_a_scalar():
    mesh = jittered_rhombus(8, seed=2)
    means = interpolate_p0(lambda x, y: 1.0, mesh)
    assert np.array_equal(means, interpolate_p0(lambda x, y: 0 * x + 1.0, mesh))


def test_interpolate_p0_reference_triangle():
    mesh = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert interpolate_p0(lambda x, y: x, mesh)[0] == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_interpolate_rt_unit_field():
    mesh = generate_rhombus_equilateral(2)
    p = interpolate_rt(lambda x, y: (np.ones_like(x), np.zeros_like(y)), mesh)
    for e, edge in enumerate(mesh.edges):
        assert p[e] == pytest.approx(edge.length * edge.normal[0], abs=1e-14)
    zero = interpolate_rt(lambda x, y: (np.zeros_like(x), np.zeros_like(y)), mesh)
    assert np.all(zero == 0.0)


def test_commuting_diagram():
    # cell means of div(v) equal the divergence of the edge interpolation
    mesh = jittered_rhombus(5, seed=10)
    p = interpolate_rt(lambda x, y: (x**2, x * y), mesh)
    left = divergence(mesh, p)
    right = interpolate_p0(lambda x, y: 3.0 * x, mesh)
    np.testing.assert_allclose(left, right, atol=1e-10)


def test_gram_closed_form_equilateral():
    gram = local_gram_closed_form(equilateral_geometry())
    diag = 5.0 / (12.0 * SQRT3)
    off = -1.0 / (12.0 * SQRT3)
    expected = np.full((3, 3), off) + np.eye(3) * (diag - off)
    np.testing.assert_allclose(gram, expected, rtol=1e-13)
    assert np.trace(gram) == pytest.approx(5.0 / (4.0 * SQRT3), rel=1e-13)
    assert np.linalg.det(gram) == pytest.approx(1.0 / (48.0 * SQRT3), rel=1e-12)


def test_gram_closed_form_matches_the_index_tables_bit_for_bit():
    batch = random_triangles(SplitMix64(42), 10000)
    assert local_gram_closed_form(batch).tobytes() == local_gram_indexed(batch).tobytes()
    singles = [equilateral_geometry(), *(batch[t] for t in range(0, 10000, 97))]
    for geom in singles:
        gram = local_gram_closed_form(geom)
        assert gram.shape == (3, 3)
        assert gram.tobytes() == local_gram_indexed(geom).tobytes()


def test_gram_quadrature_matches_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        geom = random_triangle(rng)
        closed = local_gram_closed_form(geom)
        quad = local_gram_quadrature(geom)
        scale = np.abs(quad).max()
        assert np.max(np.abs(closed - quad)) <= 1e-11 * scale


def test_gram_scale_invariance():
    rng = np.random.default_rng(23)
    for _ in range(100):
        geom = random_triangle(rng)
        base = local_gram_closed_form(geom)
        for s in (1e-3, 1e3):
            scaled = TriangleGeometry.from_vertices(geom.vertices * s)
            np.testing.assert_allclose(local_gram_closed_form(scaled), base, rtol=1e-11)


def test_cotangent_identities():
    rng = np.random.default_rng(29)
    for _ in range(500):
        geom = random_triangle(rng)
        cot, ratio = geom.cot, geom.ratio
        assert float(cot.sum()) == pytest.approx(9.0 * ratio, rel=1e-11)
        assert float(cot[0] * cot[1] + cot[1] * cot[2] + cot[2] * cot[0]) == pytest.approx(
            1.0, abs=1e-11
        )


def test_pairwise_minor_identity():
    # sum of principal 2x2 minors of the mass matrix, against the quadrature Gram
    rng = np.random.default_rng(31)
    for _ in range(300):
        geom = random_triangle(rng)
        gram = local_gram_quadrature(geom)
        minors = sum(
            gram[i, i] * gram[(i + 1) % 3, (i + 1) % 3] - gram[i, (i + 1) % 3] ** 2
            for i in range(3)
        )
        expected = 1.0 / 12.0 + 2.25 * geom.ratio**2
        assert minors == pytest.approx(expected, rel=1e-10)


def test_eigenvalue_bounds_sample():
    rng = np.random.default_rng(37)
    for _ in range(300):
        geom = random_triangle(rng)
        theta = angles(geom).min()
        eig = np.linalg.eigvalsh(local_gram_closed_form(geom))
        assert eig.min() >= math.tan(theta) ** 2 / 48.0 - 1e-12
        assert eig.max() <= 5.0 / (4.0 * math.tan(theta)) + 1e-12


def test_summation_by_parts():
    # (div p, u) == sum over edges of flux times the oriented jump of u
    for mesh in (generate_rhombus_equilateral(3), jittered_rhombus(4, seed=13)):
        rng = np.random.default_rng(41)
        p = rng.standard_normal(mesh.num_edges)
        u = rng.standard_normal(mesh.num_triangles)
        lhs = float(np.sum(mesh.areas * divergence(mesh, p) * u))
        rhs = 0.0
        for e, edge in enumerate(mesh.edges):
            jump = u[edge.owner]
            if edge.neighbor >= 0:
                jump -= u[edge.neighbor]
            rhs += p[e] * jump
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_field_length_validation(rhombus1):
    with pytest.raises(ValueError, match="flux field length does not match the edge count"):
        divergence(rhombus1, np.zeros(2))
    with pytest.raises(ValueError, match="flux field length"):
        divergence(rhombus1, np.zeros(rhombus1.num_edges + 1))
    with pytest.raises(ValueError, match="flux field length"):
        local_fluxes(rhombus1, np.zeros(1))
    assert local_fluxes(rhombus1, np.zeros(rhombus1.num_edges)).shape == (2, 3)
