"""Property tests: the bulk mesh reader agrees with the line-at-a-time
reference on mutated mesh files, and the edge table and the assembled
system agree with their references on random admissible meshes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial import Delaunay

from ptgfv.mesh import build_mesh, read_mesh
from ptgfv.solver import assemble

from oracles import assert_system_is_reference, edge_table, reference_edges
from test_mesh import SQUARE, _outcome, _reference_read_mesh

# characters that numerals, separators, line ends and comments are made of,
# and ones that Python's str.split or numpy's reader treat apart
MUTATION_ALPHABET = "0123456789+-.eE \t\r\x0b\x0c\x1c\x1d\x1e\x1f\xa0#_\0\n"
HEADER, SQUARE_BODY = SQUARE.split("\n", 1)


@given(st.lists(
    st.tuples(
        st.integers(0, len(SQUARE_BODY)), st.sampled_from(MUTATION_ALPHABET), st.booleans()
    ),
    min_size=1, max_size=4,
))
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
def test_read_mesh_matches_one_line_at_a_time_on_mutated_text(edits):
    # each edit inserts or overwrites one character after the header line
    body = SQUARE_BODY
    for position, char, insert in edits:
        body = body[:position] + char + body[position + (not insert):]
    text = f"{HEADER}\n{body}"
    assert _outcome(read_mesh, text) == _outcome(_reference_read_mesh, text)


def random_delaunay_mesh(n: int, seed: int):
    """The Delaunay triangulation of the unit square's (n + 1)^2 grid with
    its interior points moved by up to 0.3 h per coordinate, vertices
    relabelled at random and about half the triangles listed clockwise."""
    rng = np.random.default_rng(seed)
    j, i = np.divmod(np.arange((n + 1) ** 2), n + 1)
    points = np.column_stack([i, j]) / n
    interior = (0 < i) & (i < n) & (0 < j) & (j < n)
    points[interior] += rng.uniform(-0.3 / n, 0.3 / n, size=(interior.sum(), 2))
    perm = rng.permutation(len(points))
    triangles = np.argsort(perm)[Delaunay(points).simplices]
    flip = rng.random(len(triangles)) < 0.5
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return build_mesh(points[perm], triangles), rng


@given(st.integers(4, 15), st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
def test_edge_table_and_system_match_their_references_on_random_meshes(n, seed):
    mesh, rng = random_delaunay_mesh(n, seed)
    assert np.array_equal(edge_table(mesh), reference_edges(mesh))
    f_t = rng.standard_normal(mesh.num_triangles)
    bc = rng.standard_normal(len(mesh.boundary_edges))
    system = assemble(mesh, mesh.coefficients, f_t, bc)
    assert_system_is_reference(system, mesh, mesh.coefficients, f_t, bc)
