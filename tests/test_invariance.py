"""Every number the commands report is a property of the mesh, not of how its
file numbers, lists or places it.

Each transform below rewrites the file of one jittered mesh with an angle
above 90 degrees, and ``mesh-info``, ``solve --rhs-const 1`` and
``verify --mesh`` run on both files through the CLI.  The transformed
solution, mapped back cell by cell and edge by edge (the flux up to the
sign of the edge's normal) and divided by s^2 under a scaling by s, must
match the original to 1e-14 of max|u| and 3e-14 of max|p|; the angle
extrema and the coefficient range to 1e-14; h4 to 3e-14 relative; and h3,
a round-off figure, must stay at round-off.  Renumbering, rolling,
reversing and reflecting are exact on the coordinates, so only the solve's
elimination order moves the numbers; rotating, translating and scaling
round every coordinate, and move u by up to 5e-15 of max|u|, p by up to
1e-14 of max|p| and an angle or coefficient by up to 7e-15.  The h1
certificate, a minimum over triangles, must match to 1e-14 relative where
the coordinates are exact and to 3e-14 where they are rounded, as h4 (its
witness has an edge share of 0.057, which amplifies a rounded coefficient),
and its witness triangle must be the image of the original one.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from ptgfv.cli import main
from ptgfv.mesh import read_mesh

from conftest import jittered_rhombus, mesh_text

BASE = jittered_rhombus(24, seed=1)


def _permute(verts, tris):
    rng = np.random.default_rng(0)
    vertex_order = rng.permutation(len(verts))  # new vertex k is old vertex_order[k]
    cells = rng.permutation(len(tris))
    new_index = np.argsort(vertex_order)
    return verts[vertex_order], new_index[tris[cells]], cells, vertex_order


def _roll(verts, tris):
    shifts = np.arange(len(tris)) % 3
    rolled = tris[np.arange(len(tris))[:, None], (np.arange(3) + shifts[:, None]) % 3]
    return verts, rolled


def _rotate(verts, tris):
    c, s = math.cos(0.7), math.sin(0.7)
    return verts @ np.array([[c, s], [-s, c]]) + np.array([3.0, -2.0]), tris


# each transform returns the new vertices and triangles and, if it renumbers
# them, the old index of every new cell and of every new vertex
TRANSFORMS = {
    "permute cells and vertices": (_permute, 1.0),
    "roll corners": (_roll, 1.0),
    "list clockwise": (lambda v, t: (v, t[:, [0, 2, 1]]), 1.0),
    "rotate 0.7 and translate": (_rotate, 1.0),
    "scale 1e3": (lambda v, t: (1e3 * v, t), 1e3),
    "reflect in x": (lambda v, t: (v * np.array([-1.0, 1.0]), t), 1.0),
}
ROUNDING = {"rotate 0.7 and translate", "scale 1e3"}


def _cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _commands(path, csv):
    """mesh-info and verify as parsed JSON, and the solved cell and edge
    values."""
    info = json.loads(_cli("mesh-info", str(path)))
    _cli("solve", "--mesh", str(path), "--rhs-const", "1", "--out", str(csv))
    cells, edges = csv.read_text(encoding="utf-8").split("edge,flux\n")
    u, p = (np.array([float(row.split(",")[1]) for row in text.splitlines()[1:]])
            for text in (cells, "\n" + edges))
    verify = json.loads(_cli("verify", "--samples", "10", "--trials", "5", "--mesh", str(path)))
    return info, u, p, verify["stability"]


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("original")
    path = tmp / "base.msh"
    path.write_text(mesh_text(BASE.vertices, BASE.triangles), encoding="utf-8")
    return _commands(path, tmp / "base.csv")


def test_base_mesh_is_admissible_past_a_right_angle(original):
    info, _, _, stability = original
    assert info["admissible"] is True and info["all_acute"] is False
    assert info["theta_max_degrees"] > 90.0
    assert stability["all_passed"] is True


def _base_edges(mesh, cells, vertex_order):
    """The edge of BASE under every edge of ``mesh``, and the sign that turns
    the base normal into the one of ``mesh``."""
    old = vertex_order[np.stack([mesh.edges.tail, mesh.edges.head])]
    nv = BASE.num_vertices
    base_keys = np.minimum(BASE.edges.tail, BASE.edges.head) * nv + np.maximum(
        BASE.edges.tail, BASE.edges.head
    )
    edge = np.searchsorted(base_keys, old.min(axis=0) * nv + old.max(axis=0))
    assert np.array_equal(base_keys[edge], old.min(axis=0) * nv + old.max(axis=0))
    sign = np.where(cells[mesh.edges.owner] == BASE.edges.owner[edge], 1.0, -1.0)
    return edge, sign


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_reported_numbers_do_not_depend_on_numbering_or_placement(tmp_path, original, name):
    transform, scale = TRANSFORMS[name]
    verts, tris, *renumbering = transform(np.array(BASE.vertices), np.array(BASE.triangles))
    cells, vertex_order = renumbering or (np.arange(BASE.num_triangles), np.arange(BASE.num_vertices))
    path = tmp_path / "moved.msh"
    path.write_text(mesh_text(verts, tris), encoding="utf-8")
    info, u, p, stability = _commands(path, tmp_path / "moved.csv")
    info0, u0, p0, stability0 = original

    u0 = u0[cells]
    edge, sign = _base_edges(read_mesh(path.read_text(encoding="utf-8")), cells, vertex_order)
    p0 = sign * p0[edge]
    assert np.abs(u / scale**2 - u0).max() <= 1e-14 * np.abs(u0).max()
    assert np.abs(p / scale**2 - p0).max() <= 3e-14 * np.abs(p0).max()
    for key in ("theta_min", "theta_max", "coefficient_min", "coefficient_max"):
        assert info[key] == pytest.approx(info0[key], rel=0, abs=1e-14), key
    counts = ("cells", "edges", "internal_edges", "boundary_edges", "admissible", "all_acute")
    assert {k: info[k] for k in counts} == {k: info0[k] for k in counts}
    assert info["h"] == pytest.approx(scale * info0["h"], rel=1e-14, abs=0)

    for key in ("h4_max_ratio", "bound_h4"):
        assert stability[key] == pytest.approx(stability0[key], rel=3e-14, abs=0), key
    assert stability["bound_h1"] == pytest.approx(stability0["bound_h1"], rel=0, abs=1e-14)
    assert max(stability["h3_max_deviation"], stability0["h3_max_deviation"]) <= 3e-14
    for key in ("all_passed", "passed_h1", "passed_h3", "passed_h4"):
        assert stability[key] == stability0[key], key
    rel = 3e-14 if name in ROUNDING else 1e-14
    assert stability["h1_certified"] == pytest.approx(stability0["h1_certified"], rel=rel, abs=0)
    assert cells[stability["h1_certified_triangle"]] == stability0["h1_certified_triangle"]
