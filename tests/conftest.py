import math

import numpy as np
import pytest

from ptgfv.mesh import Mesh, TriangleGeometry, build_mesh, generate_rhombus_equilateral, quality_report


def equilateral_geometry(side: float = 1.0) -> TriangleGeometry:
    return TriangleGeometry.from_vertices(
        [(0.0, 0.0), (side, 0.0), (side / 2.0, side * math.sqrt(3.0) / 2.0)]
    )


def diagonal_square_mesh() -> Mesh:
    """Unit square split by one diagonal: cocircular, not strictly Delaunay."""
    return build_mesh(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(0, 1, 2), (0, 2, 3)],
    )


def jittered_rhombus(n: int = 5, seed: int = 7, amplitude: float = 0.15) -> Mesh:
    """Equilateral rhombus mesh with interior vertices perturbed; stays admissible."""
    base = generate_rhombus_equilateral(n)
    rng = np.random.default_rng(seed)
    verts = np.array(base.vertices)
    on_boundary = np.zeros(len(verts), dtype=bool)
    for e in base.boundary_edges:
        edge = base.edges[e]
        on_boundary[edge.tail] = on_boundary[edge.head] = True
    shift = rng.uniform(-amplitude / n, amplitude / n, size=verts.shape)
    verts[~on_boundary] += shift[~on_boundary]
    mesh = build_mesh(verts, base.triangles)
    assert quality_report(mesh).admissible
    return mesh


def mesh_text(vertices, triangles) -> str:
    """The ``ptg-mesh 1`` file of the given arrays, triangles as listed."""
    rows = [f"{x:.17g} {y:.17g}" for x, y in np.asarray(vertices).tolist()]
    rows += [f"{i} {j} {k}" for i, j, k in np.asarray(triangles).tolist()]
    return f"ptg-mesh 1\n{len(vertices)} {len(triangles)}\n" + "\n".join(rows) + "\n"


@pytest.fixture
def rhombus1() -> Mesh:
    return generate_rhombus_equilateral(1)


@pytest.fixture
def rhombus4() -> Mesh:
    return generate_rhombus_equilateral(4)
