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
of that energy from the triangle's shape alone, its cotangents and
r = rho^2 / |K| (an identity checked by the lemma suite: an independent
check on the solve, which stays because the h3 check of the stability
analysis needs the profile's coefficients, not only its energy), and the
``nu`` upper bound used by the stability analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriangleGeometry, _argmax3, _cross, _dot, _sum3, cotan_coefficients

__all__ = [
    "DeltaK",
    "cotan_coefficients",
    "solve_delta_k",
    "delta_energy_closed_form",
    "nu_bound",
]

# 8 * 3^5 * 23 / 5
NU_SCALE = 8942.4


# eta/h of the corners in the frame of ``solve_delta_k``, in its order: the
# two ends of the longest edge, then the apex opposite it.
_ZETA = np.array([-1.0, -1.0, 2.0]) / 3.0


@dataclass(frozen=True)
class DeltaK:
    """Divergence profile on one triangle, or on a batch of them.

    The frame: xi, eta centred at the centroid, rotated onto the longest
    edge (eta positive towards the opposite vertex) and divided by its
    length L; h = 2|K| / L^2.  ``coefficients`` expands |K| * delta in the
    basis {1, xi, eta/h, rho^2 - mean(rho^2)}, rho^2 = xi^2 + eta^2, whose
    last three members have mean zero, so the first coefficient is 1.
    ``corners`` holds (xi, eta/h) of the vertices in the order of
    ``TriangleGeometry.vertices``, ``height`` is h and ``energy`` the
    dimensionless |K| * int(delta^2).  A batch carries B on the leading axis
    of every field.
    """

    coefficients: np.ndarray  # (4,)
    energy: float
    corners: np.ndarray       # (3, 2)
    height: float

    def values_at(self, barycentric: np.ndarray) -> np.ndarray:
        """|K| * delta at the points with barycentric coordinates
        ``barycentric`` (nq, 3); shape (nq,), or (B, nq) for a batch."""
        x = barycentric @ self.corners                                  # (..., nq, 2)
        xi, zeta = x[..., 0], x[..., 1]
        h2 = np.asarray(self.height)[..., None] ** 2
        # mean(rho^2) = tr(S) / 12 with S the corners' second-moment matrix
        mean_r2 = (_sum3(self.corners[..., 0] ** 2)[..., None] + 2.0 / 3.0 * h2) / 12.0
        c = np.moveaxis(self.coefficients, -1, 0)[..., None]
        return c[0] + c[1] * xi + c[2] * zeta + c[3] * (xi**2 + h2 * zeta**2 - mean_r2)


def solve_delta_k(geometry: TriangleGeometry) -> DeltaK:
    """Minimum-norm divergence profile meeting the four moment constraints.

    int(delta) = 1 and int(delta |x-W_i|^2) = 0 at the vertices W_i say that
    delta pairs with x to the circumcenter x_K and with |x - c|^2 (c the
    centroid) to the power of c, -Sum(l^2)/9.  The minimizer lies in the
    span of the basis of :class:`DeltaK`, so g = |K| delta has mean 1 and
    mean(g phi) = m' for the mean-free members phi: m' is x_K in (xi, eta/h)
    and -Sum(l^2)/9 - mean(rho^2) = -5 mean(rho^2).

    Before centring the longest edge runs from (0, 0) to (1, 0) and the apex
    sits at (a, h); a and b = 1 - a are dot products with their own ends of
    the edge, so neither cancels on a sliver.  With P_k the centred corners,
    S = Sum P_k P_k^T and r_k^2 = |P_k|^2, a centred triangle has moments
    E[X X^T] = S/12 and E[X_a X_b X_c] = Sum_k P_ka P_kb P_kc / 30 (the
    fourth ones likewise), which give the mean Gram matrix 1 (+) G' in
    closed form; mean((rho^2 - mean rho^2)^2) = |S|_F^2/90 - (tr S)^2/720.
    x_K has eta/h = cot(apex)/(2h) - 1/3 = 1/6 - ab/(2h^2).  G' is well
    conditioned on needles and slivers alike, and an inline LDL^T gives the
    energy 1 + m'^T G'^-1 m' and the coefficients (1, G'^-1 m').  A tie for
    the longest edge takes the first one; each gives the same profile up to
    round-off.
    """
    shape = geometry.edge_lengths.shape[:-1]
    v = geometry.vertices.reshape(-1, 3, 2)
    lengths = geometry.edge_lengths.reshape(-1, 3)
    k = _argmax3(lengths)                               # the apex
    rows = np.arange(len(k))
    order = [(k + 1) % 3, (k + 2) % 3, k]               # base start, base end, apex
    start, end, apex = (v.reshape(-1, 2).take(3 * rows + i, axis=0) for i in order)
    length = lengths.take(3 * rows + k)[:, None]        # flat takes beat 2-D fancy indexing
    tangent = (end - start) / length
    to_apex = (apex - start) / length
    a = _dot(to_apex, tangent)
    b = _dot((end - apex) / length, tangent)
    h = _cross(tangent, to_apex)

    # centred corners (xi, eta/h) = (xi, _ZETA) and the entries of G' and m'
    xi = np.stack([-(1.0 + a), 1.0 + b, a - b], axis=-1) / 3.0
    h2 = h * h
    r2 = xi * xi + h2[..., None] * _ZETA**2
    s_xx = _sum3(xi * xi)
    s_xz = (a - b) / 3.0                               # Sum xi_k eta_k / h
    trace = s_xx + 2.0 / 3.0 * h2
    g11 = s_xx / 12.0
    g12 = s_xz / 12.0
    g22 = 1.0 / 18.0
    g13 = _sum3(xi * r2) / 30.0
    g23 = r2 @ _ZETA / 30.0
    g33 = (s_xx**2 + 2.0 * h2 * s_xz**2 + (2.0 / 3.0 * h2) ** 2) / 90.0 - trace**2 / 720.0
    m1 = (b - a) / 6.0
    m2 = 1.0 / 6.0 - a * b / (2.0 * h2)
    m3 = -5.0 / 12.0 * trace

    # G' = L D L^T; y = L^-1 m', energy 1 + y^T D^-1 y, s = L^-T D^-1 y
    l21 = g12 / g11
    l31 = g13 / g11
    d2 = g22 - l21 * g12
    l32 = (g23 - l31 * g12) / d2
    d3 = g33 - l31 * g13 - l32 * l32 * d2
    y2 = m2 - l21 * m1
    y3 = m3 - l31 * m1 - l32 * y2
    s3 = y3 / d3
    s2 = y2 / d2 - l32 * s3
    s1 = m1 / g11 - l21 * s2 - l31 * s3
    energy = 1.0 + m1 * m1 / g11 + y2 * y2 / d2 + y3 * s3

    coefficients = np.stack([np.ones_like(s1), s1, s2, s3], axis=-1).reshape(*shape, 4)
    corners = np.empty_like(v)
    for j, i in enumerate(order):
        corners[rows, i, 0] = xi[:, j]
        corners[rows, i, 1] = _ZETA[j]
    corners = corners.reshape(*shape, 3, 2)
    coefficients.flags.writeable = corners.flags.writeable = False
    # [()] turns the 0-d energy and height of a single triangle into scalars
    return DeltaK(coefficients=coefficients, energy=energy.reshape(shape)[()],
                  corners=corners, height=h.reshape(shape)[()])


def _profile_terms(geometry: TriangleGeometry):
    """D / sigma^4 and B / sigma^4 of the closed-form energy I = 2B / D, from
    the cotangents and r = rho^2 / |K| alone, so that no power of a length
    is formed: with k = 16 |K|^2 / sigma^4 = 1 / (81 r^2) and
    x = R^2 / sigma^2 = 1 / (4 Sum sin^2(theta_i)), D / sigma^4 = 3/4 - k and
    B / sigma^4 = 288 x^2 + 12 x + 21/4 - (3/2) k - (81/4) r Prod cot; the
    paper's numerator is N / sigma^12 = k^2 B / sigma^4.  Neither sum
    cancels: k <= 1/3, and x is large only where two angles are small and
    the third is obtuse, so that Prod cot < 0.
    """
    cot = geometry.cot
    ratio = geometry.ratio
    k = 1.0 / (81.0 * ratio**2)
    x = 0.25 / _sum3(1.0 / (1.0 + cot**2))
    prod = cot[..., 0] * cot[..., 1] * cot[..., 2]
    reduced = 288.0 * x**2 + 12.0 * x + 5.25 - 1.5 * k - 20.25 * ratio * prod
    return 0.75 - k, reduced


def delta_energy_closed_form(geometry: TriangleGeometry):
    """Closed-form energy I = N / (128 |K|^4 D) = 2B / D of the divergence
    profile."""
    denominator, reduced = _profile_terms(geometry)
    return 2.0 * reduced / denominator


def nu_bound(theta_star: float) -> float:
    """Upper bound nu = 8942.4 / tan^4(theta) on the divergence-profile energy
    over all triangles with minimum angle at least ``theta_star``."""
    if not np.all((0.0 < theta_star) & (theta_star < np.pi / 2)):
        raise ValueError("theta_star must lie in (0, pi/2)")
    return NU_SCALE / np.tan(theta_star) ** 4
