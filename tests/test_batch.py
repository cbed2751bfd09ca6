"""Batched triangle kernels: a batch of B triangles on the leading axis gives,
row by row, what B single-triangle calls give."""

import math

import numpy as np
import pytest

from ptgfv import analysis, spaces
from ptgfv.analysis import (
    BLOCK,
    CASES,
    circumcenter_edge_distances,
    error_norms,
    lemma_suite,
    random_triangles,
    stability_check,
)
from ptgfv.dual import (
    cotan_coefficients,
    delta_denominator,
    delta_energy_closed_form,
    delta_numerator,
    solve_delta_k,
)
from ptgfv.mesh import MeshError, TriangleGeometry, build_mesh
from ptgfv.quadrature import triangle_rule
from ptgfv.solver import assemble, solve
from ptgfv.spaces import QUAD_BLOCK, interpolate_p0, local_fluxes, local_gram_closed_form

from conftest import jittered_rhombus
from oracles import indexed_geometry, random_triangle

GEOMETRY_FIELDS = ("vertices", "area", "edge_lengths", "angles", "rho2")


@pytest.mark.parametrize("seed", [1, 42])
def test_batched_sampler_draws_the_single_sampler_triangles(seed):
    count = 500
    rng = np.random.default_rng(seed)
    singles = np.stack([random_triangle(rng).vertices for _ in range(count)])
    batch = random_triangles(np.random.default_rng(seed), count)
    assert batch.vertices.shape == (count, 3, 2)
    assert np.array_equal(batch.vertices, singles)


@pytest.fixture(scope="module")
def triangles():
    rng = np.random.default_rng(2024)
    singles = [random_triangle(rng) for _ in range(200)]
    # half of them given clockwise, so the batch reorders them too
    corners = np.stack([g.vertices for g in singles])
    corners[::2] = corners[::2][:, [0, 2, 1]]
    batch = TriangleGeometry.from_vertices(corners)
    assert sum(g.angles.max() > math.pi / 2 for g in singles) > 20  # obtuse ones included
    return singles, batch


def assert_rows(batched, single_values, atol=0.0):
    assert len(batched) == len(single_values)
    for row, single in zip(batched, single_values):
        np.testing.assert_allclose(row, single, rtol=1e-13, atol=atol)


def test_geometry_batch_matches_single(triangles):
    singles, batch = triangles
    for name in GEOMETRY_FIELDS:
        assert_rows(getattr(batch, name), [getattr(g, name) for g in singles])
    assert batch.area.shape == batch.rho2.shape == (len(singles),)
    assert not batch.vertices.flags.writeable


def assert_indexed_geometry(geom, corners):
    reference = indexed_geometry(corners)
    for name in GEOMETRY_FIELDS:
        assert np.array_equal(getattr(geom, name), reference[name]), name
    assert np.array_equal(analysis._circumcenter(geom.vertices), reference["circumcenter"])


def test_geometry_equals_index_list_formulas():
    # slices in place of index-list gathers: the same arithmetic, bit for
    # bit, on random triangles of which every third is given clockwise
    corners = np.random.default_rng(7).uniform(size=(5000, 3, 2))
    corners = corners[~TriangleGeometry.degenerate(corners)]
    corners[::3] = corners[::3][:, [0, 2, 1]]
    assert_indexed_geometry(TriangleGeometry.from_vertices(corners), corners)


def test_mesh_geometry_equals_index_list_formulas():
    mesh = jittered_rhombus(64, seed=1)
    assert_indexed_geometry(mesh.geometries, mesh.vertices[mesh.triangles])
    # build_mesh reorients clockwise triangles as from_vertices does
    flipped = np.array(mesh.triangles)
    flipped[::2] = flipped[::2][:, [0, 2, 1]]
    again = build_mesh(mesh.vertices, flipped)
    assert_indexed_geometry(again.geometries, mesh.vertices[flipped])
    assert np.array_equal(again.triangles, mesh.triangles)


def test_closed_forms_batch_match_single(triangles):
    singles, batch = triangles
    for func in (
        local_gram_closed_form,
        circumcenter_edge_distances,
        delta_numerator,
        delta_denominator,
        delta_energy_closed_form,
    ):
        assert_rows(func(batch), [func(g) for g in singles])


def test_delta_solve_batch_matches_single(triangles):
    singles, batch = triangles
    delta = solve_delta_k(batch)
    single_deltas = [solve_delta_k(g) for g in singles]
    assert_rows(delta.energy, [d.energy for d in single_deltas])
    assert_rows(delta.coefficients, [d.coefficients for d in single_deltas])
    # the pairings against |x-W_i|^2 vanish: compare on the scale of the mean
    assert_rows(delta.moments(), [d.moments() for d in single_deltas], atol=1e-13)


def test_batch_names_first_degenerate_triangle():
    corners = np.array(
        [
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
            [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
        ]
    )
    assert TriangleGeometry.degenerate(corners).tolist() == [False, True, True]
    with pytest.raises(MeshError, match=r"degenerate triangle 1 "):
        TriangleGeometry.from_vertices(corners)


def test_build_mesh_names_first_degenerate_triangle():
    verts = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0)]
    with pytest.raises(MeshError, match=r"triangle 1 is degenerate"):
        build_mesh(verts, [(0, 1, 2), (0, 1, 3), (1, 4, 2), (1, 3, 5)])


def test_lemma_suite_spans_blocks():
    samples = 2 * BLOCK + 1
    report = lemma_suite(samples=samples, seed=3)
    assert report.all_passed
    assert [c.samples for c in report.checks] == [samples] * len(report.checks)


def test_lemma_suite_counts_nan_slack_as_failure(monkeypatch):
    monkeypatch.setattr(
        analysis, "circumcenter_edge_distances",
        lambda geom: np.full(geom.edge_lengths.shape, np.nan),
    )
    report = lemma_suite(samples=20, seed=0)
    failed = [c.check for c in report.checks if not c.passed]
    assert failed == ["circumcenter-distance-identity"]
    assert report.checks[-1].witness is not None


def test_stability_check_needs_a_trial(rhombus4):
    with pytest.raises(ValueError, match="trials"):
        stability_check(rhombus4, trials=0)


def test_quadrature_points_match_barycentric_sum():
    # the points are formed by a matrix product; against the barycentric sum
    # sum_k lambda_qk V_k they differ only in the order of rounding: at most
    # 4.4e-16, two ulps of the largest coordinate 1.5
    mesh = jittered_rhombus(50, seed=3)
    rule = triangle_rule()
    corners = mesh.vertices[mesh.triangles]
    x = np.concatenate([x for _, x in spaces.quadrature_blocks(mesh, rule)])
    reference = np.einsum("qk,tkd->tqd", rule.points, corners)
    np.testing.assert_allclose(x, reference, rtol=0, atol=1e-15)


def test_quadrature_blocks_match_one_shot():
    # 5 000 cells: two full blocks of quadrature points and a partial one;
    # the reference evaluates every cell in one (nt, nq) array of points made
    # by the same formula, so the blocking is all that is tested
    mesh = jittered_rhombus(50, seed=3)
    assert 2 * QUAD_BLOCK < mesh.num_triangles < 3 * QUAD_BLOCK
    case = CASES["rhombus-sine"]
    rule = triangle_rule()
    corners = mesh.vertices[mesh.triangles]
    x = rule.points @ corners
    xs, ys = x[..., 0], x[..., 1]
    f_t = interpolate_p0(case.f, mesh)
    np.testing.assert_allclose(f_t, case.f(xs, ys) @ rule.weights, rtol=1e-13, atol=0)

    solution = solve(assemble(mesh, cotan_coefficients(mesh), f_t), tol=1e-10)
    areas, w = mesh.areas, rule.weights
    eu2 = areas @ (((case.u(xs, ys) - solution.u[:, None]) ** 2) @ w)
    loc = local_fluxes(mesh, solution.p)
    a_t = loc.sum(axis=1) / (2.0 * areas)
    b_t = np.einsum("ti,tid->td", loc, corners) / (2.0 * areas[:, None])
    gx, gy = case.grad_u(xs, ys)
    px = a_t[:, None] * xs - b_t[:, None, 0]
    py = a_t[:, None] * ys - b_t[:, None, 1]
    ep2 = areas @ (((gx - px) ** 2 + (gy - py) ** 2) @ w)
    div_t = loc.sum(axis=1) / areas
    ediv2 = areas @ (((-case.f(xs, ys) - div_t[:, None]) ** 2) @ w)
    np.testing.assert_allclose(
        error_norms(mesh, solution, case), np.sqrt([eu2, ep2, ediv2]), rtol=1e-13, atol=0
    )
