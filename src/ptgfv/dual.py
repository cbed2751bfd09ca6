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


@dataclass(frozen=True)
class DeltaK:
    """Divergence profile on one triangle, or on a batch of them.

    ``coefficients`` expands |K| * delta in the dimensionless basis
    {1, |x-W_1|^2/|K|, |x-W_2|^2/|K|, |x-W_3|^2/|K|}; ``energy`` is the
    dimensionless |K| * int(delta^2) and ``mean`` is int(delta), 1 up to
    round-off.  For a batch all three carry the batch on their leading axis.
    """

    coefficients: np.ndarray
    energy: float
    mean: float


def solve_delta_k(geometry: TriangleGeometry) -> DeltaK:
    """Minimum-norm divergence profile meeting the four moment constraints.

    The minimizer lives in the span of the constraint functions {1,
    |x-W_i|^2}.  With the squared distances divided by |K| and G the Gram
    matrix of that basis under the mean over the triangle, the coefficients
    s of |K| * delta solve G s = e_0: row 0 is int(delta) = 1 and rows 1..3
    are the pairings int(delta |x-W_i|^2) / |K| = 0.  The system is
    dimensionless, so its conditioning does not depend on the triangle's
    size, and it yields the energy |K| * int(delta^2) = s^T G s = s_0 and the
    mean (G s)_0 without evaluating delta again.  The Gram entries are
    quartic, which the degree-6 triangle rule integrates exactly.  A batch of
    triangles is one stacked solve of its 4x4 systems.  Raises
    ``numpy.linalg.LinAlgError`` (a ValueError) naming the first triangle
    whose system is singular.
    """
    rule = triangle_rule()
    v = geometry.vertices
    area = np.asarray(geometry.area)[..., None]                          # (..., 1)
    x = rule.points @ v                                                  # (..., nq, 2)
    basis = np.ones(x.shape[:-2] + (4, x.shape[-2]))
    for i in range(3):
        w = v[..., i, None, :]
        basis[..., 1 + i, :] = (x[..., 0] - w[..., 0]) ** 2 + (x[..., 1] - w[..., 1]) ** 2
    basis[..., 1:, :] /= area[..., None]
    gram = np.einsum("q,...iq,...jq->...ij", rule.weights, basis, basis)
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
    try:
        coeffs = np.linalg.solve(gram, rhs)
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
    coeffs.flags.writeable = False
    energy = np.moveaxis(coeffs, -1, 0)[0]              # a float for one triangle
    mean = np.einsum("...j,...j->...", gram[..., 0, :], coeffs)
    return DeltaK(coefficients=coeffs, energy=energy, mean=mean)


def _symmetric_sum(powers: dict[int, np.ndarray], pattern: tuple[int, int, int]):
    # sum over distinct monomials |a_i|^n |a_j|^m |a_k|^p, with powers[e] the
    # edge lengths to the power e; a repeated exponent pattern contributes
    # each monomial once (so (1,1,1) gives the plain product and (2,2,0) the
    # three pairwise products)
    return sum(
        powers[e[0]][..., 0] * powers[e[1]][..., 1] * powers[e[2]][..., 2]
        for e in set(itertools.permutations(pattern))
    )


def delta_denominator(geometry: TriangleGeometry):
    """Degree-4 symmetric polynomial D = (7/4) sigma_4 - (1/2) Sigma_{2,2,0}."""
    powers = {e: geometry.edge_lengths**e for e in (0, 2, 4)}
    return 1.75 * np.sum(powers[4], axis=-1) - 0.5 * _symmetric_sum(powers, (2, 2, 0))


def delta_numerator(geometry: TriangleGeometry):
    """Degree-12 symmetric polynomial pairing with D in the energy formula."""
    lengths = geometry.edge_lengths
    powers = {e: lengths**e for e in range(0, 13, 2)}
    product4 = np.prod(lengths, axis=-1) ** 4
    return (
        9.0 * np.sum(powers[12], axis=-1)
        - 15.0 * _symmetric_sum(powers, (10, 2, 0))
        + 15.0 * _symmetric_sum(powers, (8, 4, 0))
        - 33.0 * _symmetric_sum(powers, (8, 2, 2))
        - 18.0 * _symmetric_sum(powers, (6, 6, 0))
        + 48.0 * _symmetric_sum(powers, (6, 4, 2))
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
