"""Edge transmissibilities and the dual-side data that never needs the dual
basis itself.

The coupling coefficient of an edge is half the sum of the cotangents of the
opposite angles (one angle for a boundary edge).  On a strictly Delaunay mesh
with acute boundary angles every coefficient is positive, which is exactly
what the cell-centered solver needs.  ``cotan_coefficients`` lives in
:mod:`ptgfv.mesh`, whose ``quality_report`` decides admissibility from it.

The remaining objects quantify the prescribed divergence profile of the dual
test functions on one triangle: the minimum-norm quadratic ``delta`` with
unit mean and zero pairing against the three squared vertex distances, its
dimensionless energy ``I = |K| * int(delta^2)``, the closed-form evaluation
of that energy as a ratio of symmetric edge-length polynomials, and the
``nu`` upper bound used by the stability analysis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .mesh import TriangleGeometry, cotan_coefficients
from .quadrature import triangle_rule

__all__ = [
    "DeltaK",
    "cotan_coefficients",
    "solve_delta_k",
    "delta_energy_closed_form",
    "nu_bound",
]

# 8 * 3^5 * 23 / 5
NU_SCALE = 8942.4


def _moment_basis(vertices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """{1, |x-W_1|^2, |x-W_2|^2, |x-W_3|^2} at ``points`` (..., nq, 2) of
    triangles with corners ``vertices`` (..., 3, 2); shape (..., 4, nq)."""
    basis = np.ones(points.shape[:-2] + (4, points.shape[-2]))
    for i in range(3):
        w = vertices[..., i, None, :]
        basis[..., 1 + i, :] = (points[..., 0] - w[..., 0]) ** 2 + (points[..., 1] - w[..., 1]) ** 2
    return basis


@dataclass(frozen=True)
class DeltaK:
    """Divergence profile on one triangle, or on a batch of them.

    ``coefficients`` expands delta in the basis {1, |x-W_1|^2, |x-W_2|^2,
    |x-W_3|^2}; ``energy`` is the dimensionless |K| * int(delta^2).  For a
    batch both carry the batch on their leading axis.
    """

    geometry: TriangleGeometry
    coefficients: np.ndarray
    energy: float

    def moments(self) -> np.ndarray:
        """(int delta, int delta*|x-W_i|^2 for i=1..3) by quadrature; shape
        (4,), or (B, 4) for a batch."""
        rule = triangle_rule()
        v = self.geometry.vertices
        basis = _moment_basis(v, np.einsum("qk,...kd->...qd", rule.points, v))
        vals = np.einsum("...i,...iq->...q", self.coefficients, basis)
        area = np.asarray(self.geometry.area)[..., None]
        return area * np.einsum("q,...iq,...q->...i", rule.weights, basis, vals)


def solve_delta_k(geometry: TriangleGeometry) -> DeltaK:
    """Minimum-norm divergence profile meeting the four moment constraints.

    The minimizer lives in the span of the constraint functions, so it is
    the solution of the 4x4 Gram system of {1, |x-W_i|^2}.  The basis is
    rescaled by the area to keep the system's conditioning independent of
    the triangle size.  The Gram entries are quartic, which the degree-6
    triangle rule integrates exactly.  A batch of triangles is one stacked
    solve of its 4x4 systems.  Raises ``numpy.linalg.LinAlgError`` (a
    ValueError) naming the first triangle whose system is singular.
    """
    rule = triangle_rule()
    v = geometry.vertices
    area = np.asarray(geometry.area)[..., None]                          # (..., 1)
    basis = _moment_basis(v, np.einsum("qk,...kd->...qd", rule.points, v))
    basis[..., 1:, :] /= area[..., None]
    gram = np.einsum("q,...iq,...jq->...ij", rule.weights, basis, basis) * area[..., None]
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
    try:
        scaled = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        for t, matrix in enumerate(gram.reshape(-1, 4, 4)):
            try:
                np.linalg.solve(matrix, rhs)
            except np.linalg.LinAlgError:
                break
        raise np.linalg.LinAlgError(
            f"singular moment system for triangle {t} with vertices "
            f"{v.reshape(-1, 3, 2)[t].tolist()}"
        ) from None
    coeffs = np.concatenate([scaled[..., :1], scaled[..., 1:] / area], axis=-1)
    vals = np.einsum("...iq,...i->...q", basis, scaled)
    energy = area[..., 0] * (area[..., 0] * (vals**2 @ rule.weights))
    coeffs.flags.writeable = False
    return DeltaK(geometry=geometry, coefficients=coeffs, energy=energy)


def _symmetric_sum(lengths: np.ndarray, pattern: tuple[int, int, int]):
    # sum over distinct monomials |a_i|^n |a_j|^m |a_k|^p; a repeated exponent
    # pattern contributes each monomial once (so (1,1,1) gives the plain
    # product and (2,2,0) the three pairwise products)
    return sum(
        lengths[..., 0] ** e[0] * lengths[..., 1] ** e[1] * lengths[..., 2] ** e[2]
        for e in set(itertools.permutations(pattern))
    )


def delta_denominator(geometry: TriangleGeometry):
    """Degree-4 symmetric polynomial D = (7/4) sigma_4 - (1/2) Sigma_{2,2,0}."""
    lengths = geometry.edge_lengths
    return 1.75 * np.sum(lengths**4, axis=-1) - 0.5 * _symmetric_sum(lengths, (2, 2, 0))


def delta_numerator(geometry: TriangleGeometry):
    """Degree-12 symmetric polynomial pairing with D in the energy formula."""
    lengths = geometry.edge_lengths
    product4 = np.prod(lengths, axis=-1) ** 4
    return (
        9.0 * np.sum(lengths**12, axis=-1)
        - 15.0 * _symmetric_sum(lengths, (10, 2, 0))
        + 15.0 * _symmetric_sum(lengths, (8, 4, 0))
        - 33.0 * _symmetric_sum(lengths, (8, 2, 2))
        - 18.0 * _symmetric_sum(lengths, (6, 6, 0))
        + 48.0 * _symmetric_sum(lengths, (6, 4, 2))
        + 558.0 * product4
    )


def delta_energy_closed_form(geometry: TriangleGeometry):
    """Closed-form energy I = N / (128 |K|^4 D) of the divergence profile."""
    return delta_numerator(geometry) / (
        128.0 * geometry.area**4 * delta_denominator(geometry)
    )


def nu_bound(theta_star: float) -> float:
    """Upper bound nu = 8942.4 / tan^4(theta) on the divergence-profile energy
    over all triangles with minimum angle at least ``theta_star``."""
    if not np.all((0.0 < theta_star) & (theta_star < np.pi / 2)):
        raise ValueError("theta_star must lie in (0, pi/2)")
    return NU_SCALE / np.tan(theta_star) ** 4
