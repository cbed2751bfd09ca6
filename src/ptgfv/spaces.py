"""Piecewise-constant and lowest-order flux spaces on a triangle mesh.

A cell field is a float array with one value per triangle; a flux field is a
float array with one normal flux per edge, measured against the edge's
canonical normal.  The local
vector basis function attached to edge i of a triangle is
``(x - W_i) / (2|K|)`` with ``W_i`` the opposite vertex; it has unit flux
through edge i and zero flux through the other two, and the field
reconstructed from edge fluxes is affine per triangle with a constant
divergence ``(sum of outward local fluxes) / |K|``.  Its local mass matrix
is evaluated in closed form; every cell integral of the package uses the one
triangle rule ``QUAD_POINTS``/``QUAD_WEIGHTS``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .mesh import _PREV, Mesh, TriangleGeometry, _sum3

__all__ = [
    "divergence",
    "interpolate_p0",
    "local_gram_closed_form",
]

# Triangles per block of every batched kernel: cell integrals, divergence
# profiles and lemma-suite samples are evaluated a block at a time so that
# their temporaries stay a few hundred kB whatever the mesh size or the
# sample count, rather than tens of MB that the allocator keeps.
QUAD_BLOCK = 2048


def _dunavant6() -> tuple[np.ndarray, np.ndarray]:
    # Dunavant's symmetric 12-point rule of degree 6 (IJNME 21 (1985)
    # 1129-1148): two 3-point orbits and one 6-point orbit of barycentric
    # points, weights summing to 1.
    orbits3 = [
        (0.501426509658179, 0.249286745170910, 0.116786275726379),
        (0.873821971016996, 0.063089014491502, 0.050844906370207),
    ]
    orbit6 = (0.053145049844817, 0.310352451033784, 0.082851075618374)
    points, weights = [], []
    for a, b, w in orbits3:
        for bary in ((a, b, b), (b, a, b), (b, b, a)):
            points.append(bary)
            weights.append(w)
    a, b, w = orbit6
    for bary in sorted(set(itertools.permutations((a, b, 1.0 - a - b)))):
        points.append(bary)
        weights.append(w)
    points, weights = np.array(points), np.array(weights)
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


# The triangle rule: barycentric points (12, 3) and weights (12,), read-only.
QUAD_POINTS, QUAD_WEIGHTS = _dunavant6()


def _check_length(values: np.ndarray, count: int, field: str, items: str) -> None:
    """Refuse a field whose length is not the ``count`` of the mesh ``items``
    it lives on: a length-1 field would broadcast over all of them."""
    if len(values) != count:
        raise ValueError(f"{field} length does not match the {items} count")


def _check_cells(mesh: Mesh, values: np.ndarray) -> None:
    _check_length(values, mesh.num_triangles, "scalar field", "triangle")


def local_fluxes(mesh: Mesh, p: np.ndarray) -> np.ndarray:
    """Per-triangle outward fluxes, shape (nt, 3): sign * canonical flux."""
    _check_length(p, mesh.num_edges, "flux field", "edge")
    return mesh.tri_signs * p[mesh.tri_edges]


def divergence(mesh: Mesh, p: np.ndarray) -> np.ndarray:
    """Per-triangle divergence of edge fluxes: net outward flux divided by the area."""
    return _sum3(local_fluxes(mesh, p)) / mesh.areas


def quadrature_blocks(mesh: Mesh):
    """Yield ``(block, x)`` over the mesh in slices of QUAD_BLOCK triangles,
    with ``x`` the (len(block), 12, 2) quadrature points of those triangles."""
    corners = mesh.geometries.vertices                           # (nt, 3, 2)
    for start in range(0, mesh.num_triangles, QUAD_BLOCK):
        block = slice(start, start + QUAD_BLOCK)
        yield block, QUAD_POINTS @ corners[block]


def interpolate_p0(f, mesh: Mesh) -> np.ndarray:
    """Cell means of ``f(x, y)`` (vectorized over numpy arrays) by quadrature;
    ``f`` may return a scalar or any shape that broadcasts to its arguments'."""
    means = np.empty(mesh.num_triangles)
    for block, x in quadrature_blocks(mesh):
        values = np.broadcast_to(np.asarray(f(x[..., 0], x[..., 1]), dtype=float), x.shape[:-1])
        # np.dot hands a broadcast view to BLAS as a full array would be, so
        # a constant has the means of its full array (matmul sums a view in
        # another order)
        means[block] = np.dot(values, QUAD_WEIGHTS)
    return means


def _gram_entries(geometry: TriangleGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``(diag, upper)`` of the local flux mass matrix, each (3, ...) with
    the entry index first: (i, i) is cot(theta_i)/6 + (3/4) r and (i, i+1 mod 3)
    is cot(theta_(i+2))/6 - (3/4) r, theta_(i+2) the third angle, r = rho^2/|K|."""
    cot = np.moveaxis(geometry.cot, -1, 0)
    three_quarters_r = 0.75 * geometry.ratio
    return cot / 6.0 + three_quarters_r, cot[_PREV] / 6.0 - three_quarters_r


def local_gram_closed_form(geometry: TriangleGeometry) -> np.ndarray:
    """Local flux mass matrix with the entries of :func:`_gram_entries`:
    shape (3, 3), or (B, 3, 3) for a batch of triangles."""
    (a, b, c), (d, e, f) = _gram_entries(geometry)
    return np.stack([a, d, f, d, b, e, f, e, c], axis=-1).reshape(*np.shape(a), 3, 3)
