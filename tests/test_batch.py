"""Batched triangle kernels: a batch of B triangles on the leading axis gives,
row by row, what B single-triangle calls give."""

import cProfile
import itertools
import math
import pstats
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ptgfv import analysis, spaces
from ptgfv.analysis import (
    CASES,
    MIN_SAMPLE_ANGLE,
    SplitMix64,
    circumcenter_edge_distances,
    error_norms,
    lemma_suite,
    random_triangles,
    stability_check,
)
from ptgfv.dual import (
    _profile_terms,
    cotan_coefficients,
    delta_energy_closed_form,
    solve_delta_k,
)
from ptgfv.mesh import (
    DEGENERATE_REL,
    MeshError,
    TriangleGeometry,
    _argmax3,
    _max3,
    _sort3,
    _sum3,
    build_mesh,
    generate_rhombus_equilateral,
)
from ptgfv.solver import assemble, solve
from ptgfv.spaces import (
    QUAD_BLOCK,
    QUAD_POINTS,
    QUAD_WEIGHTS,
    interpolate_p0,
    local_fluxes,
    local_gram_closed_form,
)

from conftest import equilateral_geometry, jittered_rhombus
from oracles import ReferenceStream, angles, indexed_geometry, random_triangle

GEOMETRY_FIELDS = ("vertices", "area", "edge_lengths", "cot", "ratio")


def degenerate(corners) -> np.ndarray:
    """Per-triangle degeneracy flag of a (B, 3, 2) batch of corners in
    either orientation, from the index-list geometry (whose circumcenter
    divides by the zero area of a degenerate triangle)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        reference = indexed_geometry(corners)
    return reference["area"] <= DEGENERATE_REL * reference["edge_lengths"].max(axis=-1) ** 2


@pytest.mark.parametrize("seed", [1, 42])
def test_batched_sampler_draws_the_single_sampler_triangles(seed):
    # the one-at-a-time sampler draws from the one-at-a-time reference
    # stream; the batched one reads candidates ahead, yet leaves its stream
    # where the reference stream ends
    for count in (1, 7, 500, QUAD_BLOCK):
        reference = ReferenceStream(seed)
        singles = np.stack([random_triangle(reference).vertices for _ in range(count)])
        stream = SplitMix64(seed)
        batch = random_triangles(stream, count)
        assert batch.vertices.shape == (count, 3, 2)
        assert np.array_equal(batch.vertices, singles), count
        assert stream.counter == reference.counter, count


@pytest.mark.parametrize("seed", [0, 3, 42])
def test_lemma_suite_builds_one_candidate_batch_per_block(seed, monkeypatch):
    # 10 000 samples are five blocks, and each block's candidates are read
    # ahead in one batch, so the geometry kernel runs once per block
    calls = []
    oriented = TriangleGeometry._oriented.__func__

    def counted(cls, v):
        calls.append(len(v))
        return oriented(cls, v)

    monkeypatch.setattr(TriangleGeometry, "_oriented", classmethod(counted))
    assert lemma_suite(samples=10000, seed=seed).all_passed
    assert len(calls) == 5


def random_triangles_rebuilt(stream, count, min_angle):
    # keeps the corners of every batch whose smallest angle is at least
    # min_angle and builds the geometry of all of them once more at the end
    accepted = []
    found = 0
    while found < count:
        candidates = stream.uniform((count - found, 3, 2))
        candidates = candidates[~degenerate(candidates)]
        geom = TriangleGeometry.from_vertices(candidates)
        keep = geom.vertices[angles(geom).min(axis=-1) >= min_angle]
        accepted.append(keep)
        found += len(keep)
    return TriangleGeometry.from_vertices(np.concatenate(accepted))


@pytest.mark.parametrize("count, min_angle", [(1, MIN_SAMPLE_ANGLE), (2500, MIN_SAMPLE_ANGLE)])
def test_sampled_geometry_equals_the_rebuilt_geometry(count, min_angle):
    # the sampler slices the geometry of each batch of candidates by its
    # acceptance mask; 2500 triangles take 2885 candidates, so several
    # batches are drawn
    stream = SplitMix64(8)
    batch = random_triangles(stream, count)
    rebuilt = random_triangles_rebuilt(SplitMix64(8), count, min_angle)
    for name in GEOMETRY_FIELDS:
        field = getattr(batch, name)
        assert np.array_equal(field, getattr(rebuilt, name)), name
        assert not field.flags.writeable, name
    assert batch.area.shape == (count,)
    if count == 2500:
        assert stream.counter == 2885 * 6


@pytest.mark.parametrize("count, message", [(0, "count must be >= 1")])
def test_sampler_refuses_before_drawing(count, message):
    stream = SplitMix64(0)
    with pytest.raises(ValueError, match=message):
        random_triangles(stream, count)
    assert stream.counter == 0


@pytest.fixture(scope="module")
def triangles():
    rng = np.random.default_rng(2024)
    singles = [random_triangle(rng) for _ in range(200)]
    # half of them given clockwise, so the batch reorders them too
    corners = np.stack([g.vertices for g in singles])
    corners[::2] = corners[::2][:, [0, 2, 1]]
    batch = TriangleGeometry.from_vertices(corners)
    assert sum(g.cot.min() < 0.0 for g in singles) > 20  # obtuse ones included
    return singles, batch


def assert_rows(batched, single_values, atol=0.0):
    assert len(batched) == len(single_values)
    for row, single in zip(batched, single_values):
        np.testing.assert_allclose(row, single, rtol=1e-13, atol=atol)


def test_geometry_batch_matches_single(triangles):
    singles, batch = triangles
    for name in GEOMETRY_FIELDS:
        assert_rows(getattr(batch, name), [getattr(g, name) for g in singles])
    assert batch.area.shape == batch.ratio.shape == (len(singles),)
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
    corners = corners[~degenerate(corners)]
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
        lambda g: np.stack(_profile_terms(g), axis=-1),
        lambda g: np.stack(analysis._mass_spectrum(g), axis=-1),
        delta_energy_closed_form,
    ):
        assert_rows(func(batch), [func(g) for g in singles])


def test_delta_solve_batch_matches_single(triangles):
    singles, batch = triangles
    delta = solve_delta_k(batch)
    single_deltas = [solve_delta_k(g) for g in singles]
    assert_rows(delta.energy, [d.energy for d in single_deltas])
    assert_rows(delta.coefficients, [d.coefficients for d in single_deltas])
    assert_rows(delta.corners, [d.corners for d in single_deltas])
    assert_rows(delta.height, [d.height for d in single_deltas])


def test_profile_frame_at_every_apex_position():
    # the longest edge at local index 0, 1 and 2, two-way ties for it at
    # each pair of positions, and the equilateral triangle
    scalene = np.array([(0.0, 0.0), (1.0, 0.0), (0.3, 0.4)])     # longest edge 2
    isosceles = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 2.0)])   # edges 0 and 1 tie
    rotations = [np.roll(t, shift, axis=0) for t in (scalene, isosceles) for shift in range(3)]
    corners = np.stack(rotations + [equilateral_geometry().vertices])
    batch = TriangleGeometry.from_vertices(corners)
    lengths = batch.edge_lengths
    longest = lengths == lengths.max(axis=-1, keepdims=True)
    assert sorted(map(tuple, longest[:6].tolist())) == sorted(
        [(True, False, False), (False, True, False), (False, False, True),
         (True, True, False), (False, True, True), (True, False, True)]
    )
    delta = solve_delta_k(batch)
    single_deltas = [solve_delta_k(TriangleGeometry.from_vertices(c)) for c in corners]
    for name in ("energy", "coefficients", "corners", "height"):
        assert_rows(getattr(delta, name), [getattr(d, name) for d in single_deltas])
    for row, v, lengths_row, is_longest in zip(delta.corners, batch.vertices, lengths, longest):
        apex = int(np.flatnonzero(is_longest)[0])      # the first longest edge's vertex
        zeta = np.full(3, -1.0 / 3.0)
        zeta[apex] = 2.0 / 3.0
        assert np.array_equal(row[:, 1], zeta)
        # xi: the centred corners along the base, from its start to its end
        start, end = v[(apex + 1) % 3], v[(apex + 2) % 3]
        tangent = (end - start) / lengths_row[apex]
        xi = (v - v.mean(axis=0)) @ tangent / lengths_row[apex]
        np.testing.assert_allclose(row[:, 0], xi, rtol=0, atol=1e-15)


def test_right_angle_cotangent_keeps_the_sign_of_its_zero():
    # the 24 ordered right triangles on the corners of the unit square: the
    # right angle's cotangent is a zero whose sign the reference's edge
    # differences decide, so negated edges would flip it on half of them
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    corners = square[list(itertools.permutations(range(4), 3))]
    cot = TriangleGeometry.from_vertices(corners).cot
    reference = indexed_geometry(corners)["cot"]
    assert np.count_nonzero(cot == 0.0) == len(corners)
    assert np.signbit(reference[reference == 0.0]).any()
    assert np.array_equal(np.signbit(cot), np.signbit(reference))


def test_batch_names_first_degenerate_triangle():
    corners = np.array(
        [
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
            [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
        ]
    )
    assert degenerate(corners).tolist() == [False, True, True]
    with pytest.raises(MeshError, match=r"degenerate triangle 1 "):
        TriangleGeometry.from_vertices(corners)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_corner_is_named(value):
    # named before any area, cotangent or size is formed from it
    corners = np.array([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]] * 3)
    corners[1, 2, 0] = value
    corners[2, 0, 1] = value
    with pytest.raises(MeshError, match=r"^triangle 1 has a non-finite corner: vertices "
                       r"\[\[0.0, 0.0\], \[1.0, 0.0\], \[-?(nan|inf), 1.0\]\]$"):
        TriangleGeometry.from_vertices(corners)
    with pytest.raises(MeshError, match=r"^triangle has a non-finite corner: vertices "):
        TriangleGeometry.from_vertices(corners[2])


def test_build_mesh_names_first_degenerate_triangle():
    verts = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0)]
    with pytest.raises(MeshError, match=r"triangle 1 is degenerate"):
        build_mesh(verts, [(0, 1, 2), (0, 1, 3), (1, 4, 2), (1, 3, 5)])


@pytest.mark.parametrize("edge, large", [(1.3e154, False), (1.35e154, True), (1e300, True)])
def test_too_large_triangle_is_named_before_degeneracy(edge, large):
    # a triangle is too large once its longest edge squared overflows, about
    # 1.34e154; the check comes before the degeneracy test, which would
    # otherwise call the overflowed triangle degenerate
    corners = np.array([
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        [(0.0, 0.0), (0.5 * edge, 0.0), (edge, 0.0)],   # degenerate
        [(0.0, 0.0), (edge, 0.0), (0.5 * edge, 0.86 * edge)],
    ])
    message = r"triangle 1 is too large" if large else r"degenerate triangle 1 "
    with pytest.raises(MeshError, match=message):
        TriangleGeometry.from_vertices(corners)
    if large:
        with pytest.raises(MeshError, match=r"triangle 0 is too large"):
            build_mesh(corners[2], [(0, 1, 2)])
    else:
        assert build_mesh(corners[2], [(0, 1, 2)]).num_triangles == 1


@pytest.mark.parametrize(
    "scale, small", [(1e-160, False), (1e-162, True), (1e-300, True), (1e-320, True), (5e-324, True)]
)
def test_too_small_triangle_is_named_apart_from_degeneracy(scale, small):
    # the area of the unit equilateral triangle underflows to 0 below about
    # 1.1e-162 (it is subnormal at 1e-160); degeneracy is decided on the
    # scaled edges, so a collinear triangle stays degenerate at any scale,
    # subnormal corners included (at 5e-324 the corners round to multiples
    # of the smallest subnormal)
    equilateral = scale * np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.5 * math.sqrt(3.0))])
    collinear = scale * np.array([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)])
    with pytest.raises(MeshError, match=r"degenerate triangle 0 "):
        TriangleGeometry.from_vertices(collinear[None])
    with pytest.raises(MeshError, match=r"triangle 0 is degenerate"):
        build_mesh(collinear, [(0, 1, 2)])
    if small:
        message = r"triangle 0 is too small: its area underflows to 0"
        with pytest.raises(MeshError, match=message):
            TriangleGeometry.from_vertices(equilateral)
        with pytest.raises(MeshError, match=message):
            build_mesh(equilateral, [(0, 1, 2)])
    else:
        assert TriangleGeometry.from_vertices(equilateral).area > 0.0
        assert build_mesh(equilateral, [(0, 1, 2)]).areas[0] > 0.0


def test_lemma_suite_spans_blocks():
    samples = 2 * QUAD_BLOCK + 1
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
    corners = mesh.vertices[mesh.triangles]
    x = np.concatenate([x for _, x in spaces.quadrature_blocks(mesh)])
    reference = np.einsum("qk,tkd->tqd", QUAD_POINTS, corners)
    np.testing.assert_allclose(x, reference, rtol=0, atol=1e-15)


def test_quadrature_blocks_match_one_shot():
    # 5 000 cells: two full blocks of quadrature points and a partial one;
    # the reference evaluates every cell in one (nt, nq) array of points made
    # by the same formula, so the blocking is all that is tested
    mesh = jittered_rhombus(50, seed=3)
    assert 2 * QUAD_BLOCK < mesh.num_triangles < 3 * QUAD_BLOCK
    case = CASES["rhombus-sine"]
    corners = mesh.vertices[mesh.triangles]
    x = QUAD_POINTS @ corners
    xs, ys = x[..., 0], x[..., 1]
    f_t = interpolate_p0(case.f, mesh)
    np.testing.assert_allclose(f_t, case.f(xs, ys) @ QUAD_WEIGHTS, rtol=1e-13, atol=0)

    solution = solve(assemble(mesh, cotan_coefficients(mesh), f_t), tol=1e-10)
    areas, w = mesh.areas, QUAD_WEIGHTS
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


# -- the stream a block at a time, and the stability check's memory -------

def test_a_block_of_uniforms_is_the_single_draws():
    singly = SplitMix64(5)
    singles = np.stack([singly.uniform((97,)) for _ in range(13)])
    block = SplitMix64(5)
    assert np.array_equal(block.uniform((13, 97)), singles)
    assert block.counter == singly.counter == 13 * 97


def test_stability_check_memory_is_bounded_at_n256():
    # the profiles and the h1 certificate are evaluated QUAD_BLOCK triangles
    # at a time, so the peak is the per-triangle results and per-edge
    # shares: 8.5 MB on the 131 072 cells.  The mesh's coefficients are
    # computed beforehand, as the CLI's admissibility check does
    mesh = generate_rhombus_equilateral(256)
    mesh.coefficients
    tracemalloc.start()
    try:
        stability_check(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9e6


# -- three-wide axes reduced as column arithmetic ---------------------------

# every ordered triple of these: signed zeros, infinities, NaN, subnormals,
# and ties, both exact and between the zeros
SPECIAL = [-math.inf, -1.5, -0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.0, math.inf, math.nan]


def special_rows() -> np.ndarray:
    rows = np.array(list(itertools.product(SPECIAL, repeat=3)))
    rng = np.random.default_rng(5)
    ties = rng.integers(-2, 3, size=(2000, 3)) * 0.5
    spread = rng.standard_normal((2000, 3)) * np.exp(10.0 * rng.standard_normal((2000, 3)))
    return np.concatenate([rows, ties, spread])


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.signbit(actual[numbers]), np.signbit(expected[numbers]))


def test_column_helpers_give_numpys_reductions_bit_for_bit():
    a = special_rows()
    # a row of three -0.0, which numpy sums to +0.0
    assert ((a == 0.0) & np.signbit(a)).all(axis=-1).any()
    with np.errstate(all="ignore"):
        assert_same_bits(_sum3(a), a.sum(axis=-1))
        assert_same_bits(_max3(a), a.max(axis=-1))
        assert_same_bits(_sum3(a * a), np.sum(a * a, axis=-1))
        # the column product of ``_profile_terms``
        assert_same_bits(a[:, 0] * a[:, 1] * a[:, 2], np.prod(a, axis=-1))
        # leading axes are kept
        assert _sum3(a.reshape(-1, 10, 3)).shape == (len(a) // 10, 10)
    assert np.array_equal(_argmax3(a), np.argmax(a, axis=-1))
    assert _argmax3(np.array([1.0, 3.0, 3.0])) == 1
    # booleans reduce to any, integers to their max
    mask = a > 0.0
    assert np.array_equal(_max3(mask), mask.any(axis=-1))
    ints = np.round(a[-2000:]).astype(int)
    assert np.array_equal(_max3(ints), ints.max(axis=-1))


def test_sort3_equals_numpys_row_sort():
    # indices from 0..3 put two or three equal entries in many rows
    tris = np.random.default_rng(5).integers(0, 4, size=(5000, 3))
    assert (tris[:, 0] == tris[:, 1]).any() and (tris.min(axis=1) == tris.max(axis=1)).any()
    ordered = _sort3(tris)
    assert ordered.dtype == tris.dtype and ordered.flags.c_contiguous
    assert np.array_equal(ordered, np.sort(tris, axis=1))


def test_profile_terms_equal_their_axis_reductions():
    # the same arithmetic as the closed form's sum and np.prod over the
    # cotangent axis, on cotangents that hold the special values
    cot = special_rows()
    ratio = np.linspace(0.2, 3.0, len(cot))
    with np.errstate(all="ignore"):
        denominator, reduced = _profile_terms(SimpleNamespace(cot=cot, ratio=ratio))
        k = 1.0 / (81.0 * ratio**2)
        x = 0.25 / np.sum(1.0 / (1.0 + cot**2), axis=-1)
        expected = (288.0 * x**2 + 12.0 * x + 5.25 - 1.5 * k
                    - 20.25 * ratio * np.prod(cot, axis=-1))
    assert_same_bits(reduced, expected)
    assert_same_bits(denominator, 0.75 - k)


# ufunc reductions and ndarray arg-reductions; every reduction over a
# three-wide axis is column arithmetic, so these are the reductions of whole
# arrays and the few boolean tests left
REDUCTIONS = {
    "<method 'reduce' of 'numpy.ufunc' objects>",
    "<method 'argmax' of 'numpy.ndarray' objects>",
    "<method 'argmin' of 'numpy.ndarray' objects>",
}


def reductions(call) -> int:
    profile = cProfile.Profile()
    profile.runcall(call)
    return sum(
        stat[1] for (_, _, name), stat in pstats.Stats(profile).stats.items()
        if name in REDUCTIONS
    )


@pytest.fixture(scope="module")
def solved32():
    mesh = generate_rhombus_equilateral(32)
    case = CASES["rhombus-sine"]
    f_t = interpolate_p0(case.f, mesh)
    return mesh, case, solve(assemble(mesh, mesh.coefficients, f_t), tol=1e-12)


def build_flipped(mesh):
    # every other triangle clockwise, so build_mesh reorders them
    triangles = np.array(mesh.triangles)
    triangles[::2] = triangles[::2][:, [0, 2, 1]]
    return build_mesh(mesh.vertices, triangles)


# call -> reductions it makes (numpy 2.4).  A whole ``verify`` op on the n=32
# mesh makes 39 ufunc reductions; reducing the three-wide axes with numpy's
# axis reductions made it 139.  The stability check's 17 include six per
# block of the h1 certificate's 3x3 eigenvalue, on axes of its entries.
REDUCTION_COUNTS = {
    "lemma_suite": (lambda mesh, case, sol: lemma_suite(samples=10000, seed=42), 20),
    "stability_check": (lambda mesh, case, sol: stability_check(mesh, trials=100), 17),
    "build_mesh": (lambda mesh, case, sol: build_flipped(mesh), 3),
    "divergence": (lambda mesh, case, sol: spaces.divergence(mesh, sol.p), 0),
    "error_norms": (lambda mesh, case, sol: error_norms(mesh, sol, case), 0),
}


@pytest.mark.parametrize("name", REDUCTION_COUNTS)
def test_reduction_count_is_pinned(solved32, name):
    call, expected = REDUCTION_COUNTS[name]
    assert reductions(lambda: call(*solved32)) == expected
