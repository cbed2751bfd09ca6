import gc
import math

import numpy as np
import pytest

from ptgfv import mesh as mesh_module
from ptgfv.analysis import _circumcenter
from ptgfv.mesh import (
    MeshError,
    MeshFormatError,
    TriangleGeometry,
    build_mesh,
    cotan_coefficients,
    generate_rhombus_equilateral,
    quality_report,
    read_mesh,
    write_mesh,
)

from conftest import diagonal_square_mesh, equilateral_geometry, jittered_rhombus
from oracles import angles, geometry, integrate_triangle


def test_single_triangle_mesh():
    mesh = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert mesh.num_triangles == 1
    assert mesh.num_edges == 3
    assert len(mesh.internal_edges) == 0
    assert len(mesh.boundary_edges) == 3
    centroid = geometry(mesh, 0).vertices.mean(axis=-2)
    for edge in mesh.edges:
        midpoint = 0.5 * (mesh.vertices[edge.tail] + mesh.vertices[edge.head])
        assert float(edge.normal @ (midpoint - centroid)) > 0.0  # outward


def test_mixed_orientation_canonicalized():
    mesh = build_mesh(
        [(0, 0), (1, 0), (0, -1), (0, 1)],
        [(0, 1, 2), (0, 1, 3)],  # first triangle is given clockwise
    )
    for t in range(2):
        v = mesh.vertices[mesh.triangles[t]]
        d1, d2 = v[1] - v[0], v[2] - v[0]
        assert d1[0] * d2[1] - d1[1] * d2[0] > 0.0
    assert len(mesh.internal_edges) == 1
    edge = mesh.edges[mesh.internal_edges[0]]
    assert edge.owner == 0
    assert edge.neighbor == 1
    centroids = mesh.geometries.vertices.mean(axis=-2)
    gap = centroids[1] - centroids[0]
    assert float(edge.normal @ gap) > 0.0


def test_square_with_diagonal_edge_count():
    mesh = diagonal_square_mesh()
    assert mesh.num_edges == 5
    assert len(mesh.boundary_edges) == 4
    assert len(mesh.internal_edges) == 1
    # ids follow the vertex-pair key (0,1) (0,2) (0,3) (1,2) (2,3); the
    # diagonal (0,2) is the one internal edge, owned by the lower triangle
    edges = mesh.edges
    assert edges.tail.tolist() == [0, 2, 3, 1, 2]
    assert edges.head.tolist() == [1, 0, 0, 2, 3]
    assert edges.owner.tolist() == [0, 0, 1, 0, 1]
    assert edges.owner_local.tolist() == [2, 1, 1, 0, 0]
    assert edges.neighbor.tolist() == [-1, 1, -1, -1, -1]
    assert edges.neighbor_local.tolist() == [-1, 2, -1, -1, -1]
    assert np.all(edges.owner[mesh.internal_edges] < edges.neighbor[mesh.internal_edges])
    assert np.array_equal(mesh.boundary_edges, np.flatnonzero(edges.neighbor < 0))
    r = math.sqrt(0.5)
    assert np.allclose(edges.normal, [[0, -1], [-r, r], [-1, 0], [1, 0], [0, 1]], atol=1e-15)
    assert np.allclose(edges.length, [1, math.sqrt(2.0), 1, 1, 1], atol=1e-15)
    assert mesh.tri_edges.tolist() == [[3, 1, 0], [4, 2, 1]]
    assert mesh.tri_signs.tolist() == [[1, 1, 1], [1, 1, -1]]
    assert mesh.edges[1].tail == 2 and mesh.edges[1].neighbor == 1


def test_build_errors():
    with pytest.raises(MeshError, match="out of range"):
        build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 99)])
    with pytest.raises(MeshError, match="duplicate"):
        build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(MeshError, match="degenerate"):
        build_mesh([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])
    with pytest.raises(MeshError, match="repeats"):
        build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)])
    with pytest.raises(MeshError, match="non-conforming"):
        build_mesh(
            [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)],
            [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
        )
    with pytest.raises(MeshError):
        build_mesh([(0, 0), (1, 0)], [])
    # both triangles lie above their shared edge (0, 1)
    with pytest.raises(MeshError, match=r"folded mesh: triangles 0 and 1 .* edge \(0, 1\)"):
        build_mesh([(0, 0), (1, 0), (0.5, 1), (0.5, 0.5)], [(0, 1, 2), (0, 1, 3)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(MeshError, match="vertex 1 has a non-finite coordinate"):
            build_mesh([(0, 0), (bad, 0), (0, 1)], [(0, 1, 2)])


def test_build_errors_name_the_lowest_offender():
    square = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0)]
    with pytest.raises(MeshError, match="triangle 1 has a vertex index out of range 0..4"):
        build_mesh(square, [(0, 1, 2), (0, 1, 7), (0, 1, -1)])
    with pytest.raises(MeshError, match=r"duplicate triangle \(0, 2, 3\)"):
        build_mesh(square, [(0, 2, 3), (0, 1, 2), (3, 2, 0), (2, 1, 0)])
    with pytest.raises(MeshError, match="triangle 1 is degenerate"):
        build_mesh(square, [(1, 2, 3), (0, 1, 4), (0, 2, 2)])
    with pytest.raises(MeshError, match="triangle 1 repeats a vertex"):
        build_mesh(square, [(1, 2, 3), (0, 2, 2), (0, 1, 4)])
    # edges (0, 2) and (0, 1) each belong to three triangles
    star = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1), (-1, 1)]
    with pytest.raises(MeshError, match=r"edge \(0, 1\) belongs to 3"):
        build_mesh(star, [(0, 2, 5), (0, 2, 4), (0, 1, 2), (0, 1, 3), (0, 1, 4)])
    # folds at edge (1, 2) (triangles 0 and 3) and at edge (0, 1) (1 and 2)
    with pytest.raises(MeshError, match=r"triangles 1 and 2 .* edge \(0, 1\)"):
        build_mesh(
            square + [(0.5, 0.5), (0.8, 0.5)], [(1, 2, 5), (0, 1, 3), (0, 1, 5), (1, 2, 6)]
        )


def _reference_edges(mesh):
    """The edge table built one edge at a time from an incidence dict."""
    incidence = {}
    for t, tri in enumerate(mesh.triangles.tolist()):
        for m in range(3):
            p, q = tri[(m + 1) % 3], tri[(m + 2) % 3]
            incidence.setdefault((min(p, q), max(p, q)), []).append((t, m))
    rows = []
    for key in sorted(incidence):
        (owner, m), *rest = sorted(incidence[key])
        tail = mesh.triangles[owner, (m + 1) % 3]
        head = mesh.triangles[owner, (m + 2) % 3]
        tangent = mesh.vertices[head] - mesh.vertices[tail]
        length = float(np.hypot(*tangent))
        normal = np.array([tangent[1], -tangent[0]]) / length
        neighbor, ml = rest[0] if rest else (-1, -1)
        rows.append((tail, head, owner, m, neighbor, ml, *normal, length))
    return np.array(rows)


def test_edge_table_matches_one_edge_at_a_time():
    for mesh in (diagonal_square_mesh(), jittered_rhombus(6, seed=5)):
        edges = mesh.edges
        table = np.column_stack(
            [edges.tail, edges.head, edges.owner, edges.owner_local,
             edges.neighbor, edges.neighbor_local, edges.normal, edges.length]
        )
        assert np.array_equal(table, _reference_edges(mesh))


def test_mesh_object_count_does_not_grow_with_size():
    def held(n):
        gc.collect()
        before = len(gc.get_objects())
        mesh = generate_rhombus_equilateral(n)
        gc.collect()
        count = len(gc.get_objects()) - before
        del mesh
        return count

    held(2)  # first-use caches
    assert held(4) == held(16)


def test_equilateral_geometry_values():
    geom = equilateral_geometry()
    assert geom.area == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-15)
    assert np.allclose(geom.cot, 1.0 / math.sqrt(3.0), rtol=1e-14, atol=0)
    # the equilateral attains the upper gyration bound 1/(3 tan(min angle))
    assert geom.ratio == pytest.approx(1.0 / (3.0 * math.tan(math.pi / 3.0)), rel=1e-14)
    assert geom.ratio == pytest.approx(0.19245008972987526, rel=1e-12)


def test_right_isosceles_circumcenter():
    geom = TriangleGeometry.from_vertices([(0, 0), (1, 0), (0, 1)])
    assert np.allclose(_circumcenter(geom.vertices), [0.5, 0.5], atol=1e-15)
    assert geom.area == pytest.approx(0.5, abs=1e-15)


def test_gyration_radius_against_quadrature():
    # 36 rho^2 = sum of squared edge lengths must match the integral definition
    rng = np.random.default_rng(11)
    for _ in range(200):
        try:
            geom = TriangleGeometry.from_vertices(rng.uniform(size=(3, 2)))
        except MeshError:
            continue
        gx, gy = geom.vertices.mean(axis=-2)
        integral = integrate_triangle(geom, lambda x, y: (x - gx) ** 2 + (y - gy) ** 2)
        assert integral / geom.area**2 == pytest.approx(geom.ratio, rel=1e-12)


def test_gyration_radius_bounds_random():
    rng = np.random.default_rng(5)
    count = 0
    while count < 1000:
        try:
            geom = TriangleGeometry.from_vertices(rng.uniform(size=(3, 2)))
        except MeshError:
            continue
        theta_min = angles(geom).min()
        if theta_min < math.radians(5.0):
            continue
        count += 1
        ratio = geom.ratio
        assert ratio >= 1.0 / 6.0 - 1e-12
        assert ratio <= 1.0 / (3.0 * math.tan(theta_min)) * (1.0 + 1e-12)


def test_angle_sums():
    for mesh in (generate_rhombus_equilateral(3), jittered_rhombus(4, seed=2)):
        for t in range(mesh.num_triangles):
            assert abs(angles(geometry(mesh, t)).sum() - math.pi) < 1e-12


def test_edge_count_identity():
    for mesh in (
        generate_rhombus_equilateral(1),
        generate_rhombus_equilateral(3),
        diagonal_square_mesh(),
        jittered_rhombus(5, seed=3),
    ):
        assert 3 * mesh.num_triangles == 2 * len(mesh.internal_edges) + len(
            mesh.boundary_edges
        )


def test_internal_normals_point_owner_to_neighbor():
    mesh = jittered_rhombus(4, seed=9)
    for e in mesh.internal_edges:
        edge = mesh.edges[e]
        gap = (
            geometry(mesh, edge.neighbor).vertices.mean(axis=-2)
            - geometry(mesh, edge.owner).vertices.mean(axis=-2)
        )
        assert float(edge.normal @ gap) > 0.0


def test_edge_frames_and_signs():
    mesh = jittered_rhombus(3, seed=4)
    for e, edge in enumerate(mesh.edges):
        tangent = mesh.vertices[edge.head] - mesh.vertices[edge.tail]
        assert edge.normal[0] * tangent[1] - edge.normal[1] * tangent[0] > 0.0
        assert np.hypot(*edge.normal) == pytest.approx(1.0, abs=1e-14)
    # stored signs agree with the dot product of canonical and outward normals
    for t in range(mesh.num_triangles):
        v = mesh.vertices[mesh.triangles[t]]
        for m in range(3):
            tangent = v[(m + 2) % 3] - v[(m + 1) % 3]
            outward = np.array([tangent[1], -tangent[0]]) / np.hypot(*tangent)
            edge = mesh.edges[mesh.tri_edges[t, m]]
            assert mesh.tri_signs[t, m] == pytest.approx(
                float(edge.normal @ outward), abs=1e-12
            )


def test_quality_rhombus(rhombus4):
    report = quality_report(rhombus4)
    assert report.admissible
    assert report.all_acute
    assert report.theta_min == pytest.approx(math.pi / 3.0, abs=1e-12)
    assert report.theta_max == pytest.approx(math.pi / 3.0, abs=1e-12)


def test_quality_cocircular_diagonal():
    mesh = diagonal_square_mesh()
    report = quality_report(mesh)
    assert not report.admissible
    assert report.offending_edges() == [int(mesh.internal_edges[0])]


def test_quality_boundary_right_angle():
    # single right triangle: the hypotenuse faces the 90-degree angle
    mesh = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    report = quality_report(mesh)
    assert not report.admissible
    assert len(report.offending_edges()) == 1


@pytest.mark.parametrize("apex", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
def test_sliver_angles_and_coefficients_are_exact(apex):
    # isosceles sliver (0,0), (1,-s), (1,s): its apex angle is 2 atan(s) and
    # each base angle pi/2 - atan(s), so the apex cotangent is
    # (1 - s^2) / (2 s), each base cotangent s, the coefficient of the base
    # (1 - s^2) / (4 s) and that of each leg s / 2
    s = math.tan(apex / 2)
    mesh = build_mesh([(0.0, 0.0), (1.0, -s), (1.0, s)], [(0, 1, 2)])
    cot = mesh.geometries.cot[0]
    assert cot[0] == pytest.approx((1 - s * s) / (2 * s), rel=1e-15, abs=0)
    np.testing.assert_allclose(cot[1:], s, rtol=1e-15, atol=0)
    coeffs = cotan_coefficients(mesh)
    base = int(mesh.tri_edges[0, 0])
    legs = [int(e) for e in mesh.tri_edges[0, 1:]]
    assert coeffs[base] == pytest.approx((1 - s * s) / (4 * s), rel=1e-13, abs=0)
    np.testing.assert_allclose(coeffs[legs], s / 2, rtol=0, atol=5e-16)
    report = quality_report(mesh)
    assert report.admissible
    assert np.array_equal(mesh.coefficients, coeffs)
    assert report.theta_min == pytest.approx(2 * math.atan(s), rel=1e-14, abs=0)
    assert report.theta_max == pytest.approx(math.pi / 2 - math.atan(s), rel=0, abs=5e-16)


def test_quality_report_flags_exactly_the_coefficients_below_tolerance():
    # edge coefficients of a kite whose diagonal has opposite angles 30 and
    # 150 - delta degrees fall on either side of COEFF_TOL as the fourth
    # vertex moves off the circle; the verdict follows the coefficient
    a = (math.cos(math.pi / 6), math.sin(math.pi / 6))
    for shift in (0.0, 1e-13, 2e-13, 1e-12):
        mesh = build_mesh([a, (a[0], -a[1]), (-1.0, 0.0), (1.0 + shift, 0.0)],
                          [(0, 1, 2), (0, 1, 3)])
        report = quality_report(mesh)
        assert not mesh.coefficients.flags.writeable
        assert np.array_equal(mesh.coefficients, cotan_coefficients(mesh))
        assert np.array_equal(report.edge_ok, mesh.coefficients >= mesh_module.COEFF_TOL)
        assert report.admissible == (shift >= 2e-13)


def test_quality_invariance_under_relabel_and_motion(rhombus4):
    base = quality_report(rhombus4)
    perm = np.random.default_rng(0).permutation(rhombus4.num_vertices)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    relabeled = build_mesh(rhombus4.vertices[perm], inverse[rhombus4.triangles])
    angle = 0.7
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    moved = build_mesh(rhombus4.vertices @ rot.T + np.array([3.0, -2.0]), rhombus4.triangles)
    for other in (relabeled, moved):
        report = quality_report(other)
        assert report.admissible == base.admissible
        assert report.all_acute == base.all_acute
        assert report.theta_min == pytest.approx(base.theta_min, abs=1e-9)
        assert report.theta_max == pytest.approx(base.theta_max, abs=1e-9)


def test_cotangents_and_ratio_do_not_depend_on_the_coordinate_scale():
    # cot and r = rho^2 / |K| are dimensionless.  On the 1e-160 mesh of
    # ``verify``'s scale test every area and every product of two edge
    # components is subnormal; both are formed from edges scaled by a power
    # of two, so that mesh has the coefficients of the unit mesh, and a
    # power-of-two scale gives the very same floats
    base = generate_rhombus_equilateral(2)
    tiny = build_mesh(base.vertices * 1e-160, base.triangles).geometries
    np.testing.assert_allclose(tiny.cot, base.geometries.cot, rtol=0, atol=1e-15)
    np.testing.assert_allclose(tiny.ratio, base.geometries.ratio, rtol=1e-15, atol=0)
    jittered = jittered_rhombus(8, seed=1)
    for scale in (2.0**-530, 2.0**500):
        scaled = build_mesh(jittered.vertices * scale, jittered.triangles).geometries
        assert np.array_equal(scaled.cot, jittered.geometries.cot)
        assert np.array_equal(scaled.ratio, jittered.geometries.ratio)


def test_generate_rhombus_counts():
    mesh = generate_rhombus_equilateral(1)
    assert mesh.num_triangles == 2
    assert len(mesh.internal_edges) == 1
    assert len(mesh.boundary_edges) == 4
    mesh = generate_rhombus_equilateral(2)
    assert mesh.num_vertices == 9
    assert mesh.num_edges == 16
    assert mesh.num_triangles == 8
    # Euler characteristic of a disk
    assert mesh.num_vertices - mesh.num_edges + mesh.num_triangles == 1
    assert mesh.h_max == pytest.approx(0.5, abs=1e-15)


def test_generate_rhombus_all_angles_equal():
    mesh = generate_rhombus_equilateral(5)
    for t in range(mesh.num_triangles):
        assert np.allclose(angles(geometry(mesh, t)), math.pi / 3.0, atol=1e-12)
    assert mesh.h_max == pytest.approx(0.2, abs=1e-15)


def test_generate_rhombus_validates_n():
    with pytest.raises(ValueError):
        generate_rhombus_equilateral(0)


def test_mesh_arrays_immutable(rhombus1):
    with pytest.raises(ValueError):
        rhombus1.vertices[0, 0] = 99.0
    with pytest.raises(ValueError):
        rhombus1.tri_signs[0, 0] = -5
    with pytest.raises(ValueError):
        rhombus1.edges.owner[0] = 1


MINIMAL = """ptg-mesh 1
3 1
0 0
1 0
0 1
0 1 2
"""


def test_read_minimal_file():
    mesh = read_mesh(MINIMAL)
    assert mesh.num_vertices == 3
    assert mesh.num_triangles == 1


def test_read_ignores_comments_and_blanks():
    text = "# generated\n\nptg-mesh 1\n# counts\n3 1\n0 0\n1 0\n0 1\n\n0 1 2\n"
    assert read_mesh(text).num_triangles == 1


def test_read_accepts_crlf():
    assert read_mesh(MINIMAL.replace("\n", "\r\n")).num_triangles == 1


def test_read_with_comments_blanks_and_crlf_gives_the_same_arrays():
    # stripping lines and dropping blank and comment lines must leave the
    # very same arrays
    mesh = jittered_rhombus(8, seed=4)
    text = write_mesh(mesh)
    lines = text.split("\n")
    decorated = "\r\n".join(
        ["# made by hand \u00e9\u00e8 \u2028 \u0661_2", ""]
        + lines[:2]
        + ["  # vertices", "\t"]
        + [line + " \r" for line in lines[2:]]
        + ["# end"]
    )
    for variant in (decorated, text.replace("\n", "\r\n"), text + "\n\n# trailing\n"):
        again = read_mesh(variant)
        assert again.vertices.tobytes() == mesh.vertices.tobytes()
        assert again.triangles.tobytes() == mesh.triangles.tobytes()


def test_read_accepts_non_ascii_comments():
    text = "# maillage \u00e0 la main, \u0661\u0662 \u2029\nptg-mesh 1\n# \uff13 1_0\n" + MINIMAL.split("\n", 1)[1]
    assert read_mesh(text).num_triangles == 1


def test_write_read_round_trip():
    mesh = jittered_rhombus(3, seed=12)
    text = write_mesh(mesh)
    again = read_mesh(text)
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.triangles, mesh.triangles)
    assert write_mesh(again) == text  # canonical form is a fixed point


def test_read_round_trip_is_bit_identical():
    mesh = jittered_rhombus(64, seed=9)
    text = write_mesh(mesh)
    again = read_mesh(text)
    assert again.vertices.tobytes() == mesh.vertices.tobytes()
    assert again.triangles.tobytes() == mesh.triangles.tobytes()
    assert write_mesh(again) == text


def _reference_read_mesh(text):
    """The text parser checked one line at a time, as ``read_mesh`` was first
    written, with lines ended by "\n" only and data lines held to ASCII
    without "_"; the bulk parser must accept and reject exactly the same
    files."""
    def plain(line):
        if not line.isascii() or "_" in line:
            raise ValueError(line)

    numbered = [
        (lineno, line.strip())
        for lineno, line in enumerate(text.split("\n"), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise MeshFormatError("empty mesh file", 1)
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(numbered):
            raise MeshFormatError(
                f"unexpected end of file, expected {what}", numbered[-1][0] + 1
            )
        pos += 1
        return numbered[pos - 1]

    lineno, header = take("header")
    if header != "ptg-mesh 1":
        raise MeshFormatError(f"bad header {header!r}, expected 'ptg-mesh 1'", lineno)
    lineno, counts = take("vertex and triangle counts")
    parts = counts.split()
    if len(parts) != 2:
        raise MeshFormatError("expected '<nv> <nt>'", lineno)
    try:
        plain(counts)
        nv, nt = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshFormatError("counts must be integers", lineno) from None
    if nv < 3 or nt < 1:
        raise MeshFormatError(f"implausible counts nv={nv} nt={nt}", lineno)
    verts = []
    for _ in range(nv):
        lineno, line = take("vertex coordinates")
        parts = line.split()
        if len(parts) != 2:
            raise MeshFormatError("expected 'x y'", lineno)
        try:
            plain(line)
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise MeshFormatError("coordinates must be decimal floats", lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MeshFormatError("coordinates must be finite", lineno)
        verts.append((x, y))
    tris = []
    for _ in range(nt):
        lineno, line = take("triangle indices")
        parts = line.split()
        if len(parts) != 3:
            raise MeshFormatError("expected 'i j k'", lineno)
        try:
            plain(line)
            tri = tuple(int(p) for p in parts)
        except ValueError:
            raise MeshFormatError("indices must be integers", lineno) from None
        for idx in tri:
            if not 0 <= idx < nv:
                raise MeshFormatError(f"vertex index {idx} out of range 0..{nv - 1}", lineno)
        tris.append(tri)
    if pos != len(numbered):
        raise MeshFormatError("unexpected content after the declared data", numbered[pos][0])
    try:
        return build_mesh(verts, tris)
    except MeshError as exc:
        raise MeshError(f"invalid mesh in file: {exc}") from exc


SQUARE = "ptg-mesh 1\n4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"

READ_CASES = {
    "canonical": MINIMAL,
    "canonical jittered": write_mesh(jittered_rhombus(6, seed=5)),
    "comments and blanks": "# a\n\nptg-mesh 1\n  # b\n3 1\n\n0 0\n#c\n1 0\n \t\n0 1\n\n0 1 2\n#\n",
    "crlf, tabs and spaces": "ptg-mesh 1\r\n3\t1\r\n  0   0 \r\n1\t\t0\r\n0 1\r\n0  1\t2\r\n",
    "comment after data": MINIMAL + "# trailing comment\n\n",
    "plus sign": SQUARE.replace("1 0\n", "+1 0\n").replace("0 1 2", "0 +1 2"),
    "underscores": SQUARE.replace("1 1\n", "1_000 1\n"),
    "arabic-indic digits": SQUARE.replace("0 2 3", "0 2 \u0663").replace("1 1\n", "\u0661 1\n"),
    "3-token vertex then 1-token vertex": "ptg-mesh 1\n3 1\n0 0 5\n1\n0 1\n0 1 2\n",
    "1-token vertex then 3-token vertex": "ptg-mesh 1\n3 1\n0 0\n1\n0 1 7\n0 1 2\n",
    "4-token then 2-token triangle": SQUARE.replace("0 1 2", "0 1 2 3").replace("0 2 3", "0 2"),
    "NUL in a coordinate": MINIMAL.replace("1 0", "1\0 0"),
    "NUL token": MINIMAL.replace("1 0", "1 \0"),
    "ragged rows aligned by a NUL token": "ptg-mesh 1\n3 1\n0\n\0 0 0\n0 1\n0 1 2\n",
    "float index": MINIMAL.replace("0 1 2", "0 1.0 2"),
    "2-token triangle": SQUARE.replace("0 2 3", "0 2"),
    "4-token triangle": SQUARE.replace("0 2 3", "0 2 3 1"),
    "nan coordinate": MINIMAL.replace("1 0", "nan 0"),
    "inf coordinate": MINIMAL.replace("0 1\n", "0 inf\n"),
    "overflowing coordinate": MINIMAL.replace("1 0", "1e400 0"),
    "word coordinate": MINIMAL.replace("1 0", "one 0"),
    "bad coordinate before a non-finite one": MINIMAL.replace("1 0", "x nan"),
    "negative index": SQUARE.replace("0 2 3", "0 -2 3"),
    "out-of-range index": SQUARE.replace("0 1 2", "0 4 2"),
    "overflowing index": SQUARE.replace("0 1 2", "0 99999999999999999999 2"),
    "second of two bad triangles": SQUARE.replace("0 2 3", "0 2 9"),
    "truncated vertices": "ptg-mesh 1\n4 1\n0 0\n1 0\n0 1\n",
    "truncated after a bad vertex": "ptg-mesh 1\n4 1\n0 0\n1 x\n0 1\n",
    "truncated triangles": SQUARE[: SQUARE.rindex("0 2 3")],
    "truncated after counts": "ptg-mesh 1\n3 1\n",
    "truncated after header": "ptg-mesh 1\n# only a comment\n",
    "trailing content": MINIMAL + "extra stuff\n",
    "trailing vertex-shaped line": MINIMAL + "0 0\n",
    "empty": "",
    "only comments": "# nothing\n\n",
    "bad header": "not-a-mesh 7\n3 1\n",
    "one count": "ptg-mesh 1\n3\n",
    "float counts": "ptg-mesh 1\n3.0 1\n",
    "implausible counts": "ptg-mesh 1\n2 1\n0 0\n1 0\n0 1 1\n",
    "repeated vertex": MINIMAL.replace("0 1 2", "0 1 1"),
    "degenerate triangle": MINIMAL.replace("0 1\n", "2 0\n"),
    "form feed inside a row": SQUARE.replace("0 0\n1 0\n", "0 0\f1 0\n"),
    "vertical tab between indices": SQUARE.replace("0 2 3", "0 2\x0b3"),
    "line separator inside a row": SQUARE.replace("0 2 3", "0 2\u20283"),
    "trailing form feed and line separator": SQUARE.replace("1 0\n", "1 0\f\u2028\n"),
    "carriage returns only": MINIMAL.replace("\n", "\r"),
    "non-ASCII comments": "# \u00e9t\u00e9 \u0661\n" + MINIMAL + "# \u2028_\n",
    "underscore count": "ptg-mesh 1\n3 1_0\n0 0\n1 0\n0 1\n0 1 2\n",
    "fullwidth count": "ptg-mesh 1\n\uff13 1\n0 0\n1 0\n0 1\n0 1 2\n",
    "comment before a bad index": SQUARE.replace("0 1 2", "# triangles\n0 1 7"),
    "blank lines before truncated triangles": "\n\n" + SQUARE[: SQUARE.rindex("0 2 3")],
    "crlf with a bad coordinate": SQUARE.replace("1 1\n", "1 y\n").replace("\n", "\r\n"),
    "trailing comment after extra content": MINIMAL + "extra stuff\n# end\n",
    "carriage return inside a row": SQUARE.replace("0 2 3", "0 2\r3"),
    "tab and unit separator between numbers": SQUARE.replace("1 1\n", "1\t1\n").replace(
        "0 2 3", "0\x1f2 3"
    ),
    "no-break space inside a row": SQUARE.replace("0 2 3", "0 2\xa03"),
    "signed and zero-padded indices": SQUARE.replace("0 1 2", "+0 001 2"),
    "bare-point and exponent coordinates": "ptg-mesh 1\n3 1\n0 0\n.5 5.\n+.5e-3 1E0\n0 1 2\n",
    "NUL in an index": SQUARE.replace("0 2 3", "0 2\x00 3"),
}


def _outcome(parse, text):
    """Mesh arrays of an accepted file; exception class, message and line of
    a rejected one."""
    try:
        mesh = parse(text)
    except MeshError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (
        mesh.vertices.dtype, mesh.vertices.tobytes(),
        mesh.triangles.dtype, mesh.triangles.tobytes(),
    )


@pytest.mark.parametrize("name", sorted(READ_CASES))
def test_read_mesh_matches_one_line_at_a_time(name):
    text = READ_CASES[name]
    assert _outcome(read_mesh, text) == _outcome(_reference_read_mesh, text)


def test_read_mesh_parses_each_block_once(monkeypatch):
    calls = []

    def counted(rows, *args):
        calls.append(len(rows))
        return parse_block(rows, *args)

    parse_block = mesh_module._parse_block
    monkeypatch.setattr(mesh_module, "_parse_block", counted)
    lines = write_mesh(jittered_rhombus(4, seed=2)).split("\n")
    text = "\r\n".join(lines[:2] + [""] + lines[2:] + ["# end", ""])
    mesh = read_mesh(text)
    assert calls == [mesh.num_vertices, mesh.num_triangles]


def test_read_errors_carry_line_numbers():
    with pytest.raises(MeshFormatError, match="line 1"):
        read_mesh("not-a-mesh 7\n3 1\n")
    with pytest.raises(MeshFormatError, match="line 1"):
        read_mesh("")
    bad_index = MINIMAL.replace("0 1 2", "0 1 99")
    with pytest.raises(MeshFormatError, match="line 6") as err:
        read_mesh(bad_index)
    assert "99" in str(err.value)
    with pytest.raises(MeshFormatError, match="unexpected end"):
        read_mesh("ptg-mesh 1\n4 1\n0 0\n1 0\n0 1\n")
    with pytest.raises(MeshFormatError, match="line 2"):
        read_mesh("ptg-mesh 1\n3\n")
    with pytest.raises(MeshFormatError, match="unexpected content"):
        read_mesh(MINIMAL + "extra stuff\n")
    with pytest.raises(MeshFormatError, match="decimal"):
        read_mesh(MINIMAL.replace("1 0", "one 0"))
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(MeshFormatError, match="line 4: coordinates must be finite"):
            read_mesh(MINIMAL.replace("1 0", f"{bad} 0"))
