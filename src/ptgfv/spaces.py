"""Piecewise-constant and lowest-order flux spaces on a triangle mesh.

A scalar field holds one value per triangle; a flux field holds one normal
flux per edge, measured against the edge's canonical normal.  The local
vector basis function attached to edge i of a triangle is
``(x - W_i) / (2|K|)`` with ``W_i`` the opposite vertex; it has unit flux
through edge i and zero flux through the other two, and the field
reconstructed from edge fluxes is affine per triangle with a constant
divergence ``(sum of outward local fluxes) / |K|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, TriangleGeometry
from .quadrature import IntervalRule, TriangleRule, interval_rule, triangle_rule

__all__ = [
    "P0Field",
    "RTField",
    "local_fluxes",
    "eval_local_basis",
    "eval_rt_field",
    "divergence",
    "interpolate_p0",
    "interpolate_rt",
    "local_gram_closed_form",
    "local_gram_quadrature",
]

# Triangles per block of quadrature points.  Cell integrals are evaluated a
# block at a time so that their (block, nq) temporaries stay a few hundred kB
# whatever the mesh size, rather than tens of MB that the allocator keeps.
QUAD_BLOCK = 2048


@dataclass
class P0Field:
    """One value per triangle."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    @classmethod
    def zeros(cls, mesh: Mesh) -> "P0Field":
        return cls(np.zeros(mesh.num_triangles))

    def check(self, mesh: Mesh) -> None:
        if len(self.values) != mesh.num_triangles:
            raise ValueError("scalar field length does not match the triangle count")


@dataclass
class RTField:
    """One flux per edge, against the canonical edge normal."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    @classmethod
    def zeros(cls, mesh: Mesh) -> "RTField":
        return cls(np.zeros(mesh.num_edges))

    def check(self, mesh: Mesh) -> None:
        if len(self.values) != mesh.num_edges:
            raise ValueError("flux field length does not match the edge count")


def local_fluxes(mesh: Mesh, p: RTField) -> np.ndarray:
    """Per-triangle outward fluxes, shape (nt, 3): sign * canonical flux."""
    return mesh.tri_signs * p.values[mesh.tri_edges]


def eval_local_basis(geometry: TriangleGeometry, i: int, x) -> np.ndarray:
    """Evaluate local basis function i at point(s) ``x`` inside the triangle.

    ``x`` may be a single point of shape (2,) or an array (..., 2).
    """
    w = geometry.vertices[i]
    return (np.asarray(x, dtype=float) - w) / (2.0 * geometry.area)


def eval_rt_field(mesh: Mesh, p: RTField, t: int, x) -> np.ndarray:
    """Evaluate the flux field inside triangle ``t`` at point(s) ``x``."""
    geom = mesh.geometry(t)
    coeffs = mesh.tri_signs[t] * p.values[mesh.tri_edges[t]]
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(3):
        out += coeffs[i] * eval_local_basis(geom, i, x)
    return out


def divergence(mesh: Mesh, p: RTField) -> P0Field:
    """Per-triangle divergence: net outward flux divided by the area."""
    p.check(mesh)
    return P0Field(local_fluxes(mesh, p).sum(axis=1) / mesh.areas)


def quadrature_blocks(mesh: Mesh, rule: TriangleRule):
    """Yield ``(block, x)`` over the mesh in slices of QUAD_BLOCK triangles,
    with ``x`` the (len(block), nq, 2) quadrature points of those triangles."""
    corners = mesh.geometries.vertices                           # (nt, 3, 2)
    for start in range(0, mesh.num_triangles, QUAD_BLOCK):
        block = slice(start, start + QUAD_BLOCK)
        yield block, np.einsum("qk,tkd->tqd", rule.points, corners[block])


def interpolate_p0(f, mesh: Mesh, rule: TriangleRule | None = None) -> P0Field:
    """Cell means of ``f(x, y)`` (vectorized over numpy arrays) by quadrature."""
    rule = rule or triangle_rule()
    means = np.empty(mesh.num_triangles)
    for block, x in quadrature_blocks(mesh, rule):
        means[block] = np.asarray(f(x[..., 0], x[..., 1]), dtype=float) @ rule.weights
    return P0Field(means)


def interpolate_rt(v, mesh: Mesh, rule: IntervalRule | None = None) -> RTField:
    """Edge fluxes of a vector field ``v(x, y) -> (vx, vy)`` by edge quadrature."""
    rule = rule or interval_rule()
    edges = mesh.edges
    a = mesh.vertices[edges.tail]
    b = mesh.vertices[edges.head]
    pts = a[:, None, :] + rule.points[:, None] * (b - a)[:, None, :]     # (ne, nq, 2)
    vx, vy = v(pts[..., 0], pts[..., 1])
    normal = edges.normal[:, None, :]
    normal_v = np.asarray(vx) * normal[..., 0] + np.asarray(vy) * normal[..., 1]
    fluxes = edges.length * (normal_v @ rule.weights)
    return RTField(fluxes)


# Index of the cotangent in each entry of the closed-form local mass matrix:
# angle i on the diagonal, the third angle k (k not in {i, j}) off it.
_GRAM_COT = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
_GRAM_SIGN = 2.0 * np.eye(3) - 1.0


def local_gram_closed_form(geometry: TriangleGeometry) -> np.ndarray:
    """Local flux mass matrix from the cotangent/gyration-radius formulas.

    Diagonal: cot(theta_i)/6 + (3/4) rho^2/|K|.  Off-diagonal (i, j): uses
    the cotangent of the angle at the third vertex k (k not in {i, j}).
    Shape (3, 3), or (B, 3, 3) for a batch of triangles.
    """
    ratio = np.asarray(geometry.rho2 / geometry.area)[..., None, None]
    cot = 1.0 / np.tan(geometry.angles)
    return cot[..., _GRAM_COT] / 6.0 + 0.75 * ratio * _GRAM_SIGN


def local_gram_quadrature(
    geometry: TriangleGeometry, rule: TriangleRule | None = None
) -> np.ndarray:
    """Local flux mass matrix by quadrature (exact: quadratic integrands)."""
    rule = rule or triangle_rule()
    if rule.degree < 2:
        raise ValueError("mass-matrix quadrature needs a rule of degree >= 2")
    x = rule.points @ geometry.vertices                  # (nq, 2)
    basis = np.stack(
        [eval_local_basis(geometry, i, x) for i in range(3)]
    )                                                    # (3, nq, 2)
    gram = np.einsum("q,iqd,jqd->ij", rule.weights, basis, basis) * geometry.area
    return 0.5 * (gram + gram.T)
