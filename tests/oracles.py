"""Single-triangle reference implementations that only the tests use.

Each one evaluates a quantity the package computes in closed form or in
batches, but by a different route: quadrature of the basis functions, the
one-triangle-at-a-time random samplers, edge-flux interpolation by Gauss
quadrature, the flux profile g of the dual edge basis, and the triangle
geometry by index-list gathers.  Tests compare the package against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ptgfv.analysis import MIN_SAMPLE_ANGLE
from ptgfv.mesh import Mesh, TriangleGeometry
from ptgfv.quadrature import TriangleRule, triangle_rule


def geometry(mesh: Mesh, t: int) -> TriangleGeometry:
    """Geometry of triangle ``t``: row ``t`` of ``mesh.geometries``."""
    g = mesh.geometries
    return TriangleGeometry(
        g.vertices[t],
        float(g.area[t]),
        g.edge_lengths[t],
        g.angles[t],
        float(g.rho2[t]),
    )


# -- triangle geometry by index lists --------------------------------------

_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def indexed_geometry(vertices) -> dict[str, np.ndarray]:
    """Area, edge lengths, angles, rho2 and circumcenter of a (B, 3, 2)
    batch of corners in either orientation, by index-list gathers of whole
    vertex arrays; the package computes the same formulas on slices and must
    agree bit for bit."""
    def signed_areas(v):
        d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    v = np.array(vertices, dtype=float).reshape(-1, 3, 2)
    cw = signed_areas(v) < 0.0
    v[cw] = v[cw][:, [0, 2, 1]]
    d = v[:, _PREV] - v[:, _NEXT]
    lengths = np.hypot(d[..., 0], d[..., 1])
    a = v[:, _NEXT] - v
    b = v[:, _PREV] - v
    cross = np.abs(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    dot = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    denom = 2.0 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    n1 = np.sum(d1 * d1, axis=-1)
    n2 = np.sum(d2 * d2, axis=-1)
    center = v[:, 0] + np.stack(
        [(d2[:, 1] * n1 - d1[:, 1] * n2) / denom, (d1[:, 0] * n2 - d2[:, 0] * n1) / denom],
        axis=-1,
    )
    return {
        "vertices": v,
        "area": signed_areas(v),
        "edge_lengths": lengths,
        "angles": np.arctan2(cross, dot),
        "rho2": np.sum(lengths**2, axis=-1) / 36.0,
        "circumcenter": center,
    }


# -- random triangles ------------------------------------------------------

def random_triangle(rng: np.random.Generator, min_angle: float = MIN_SAMPLE_ANGLE) -> TriangleGeometry:
    """Uniform-vertex triangle in the unit square with min angle >= min_angle."""
    while True:
        try:
            geom = TriangleGeometry.from_vertices(rng.uniform(size=(3, 2)))
        except ValueError:
            continue
        if geom.angles.min() >= min_angle:
            return geom


def random_acute_triangle(rng: np.random.Generator, min_angle: float = MIN_SAMPLE_ANGLE) -> TriangleGeometry:
    """As :func:`random_triangle` but with all angles strictly below pi/2."""
    while True:
        geom = random_triangle(rng, min_angle)
        if geom.angles.max() < math.pi / 2:
            return geom


def random_triangle_min_angle(rng: np.random.Generator, theta_star: float) -> TriangleGeometry:
    """Constructive sampler of a triangle whose minimum angle is >= theta_star.

    Draws the angle triple from the simplex {angles >= theta_star, sum pi}
    and builds the triangle from the law of sines under a random rotation
    and scale (rejection sampling would never terminate near 60 degrees).
    """
    if not 0.0 < theta_star <= math.pi / 3:
        raise ValueError("theta_star must lie in (0, pi/3]")
    angles = theta_star + (math.pi - 3.0 * theta_star) * rng.dirichlet(np.ones(3))
    rot = rng.uniform(0.0, 2.0 * math.pi)
    scale = math.exp(rng.uniform(-2.0, 2.0))
    a = np.array([0.0, 0.0])
    b = np.array([math.sin(angles[2]), 0.0])
    c = math.sin(angles[1]) * np.array([math.cos(angles[0]), math.sin(angles[0])])
    cs, sn = math.cos(rot), math.sin(rot)
    rmat = np.array([[cs, -sn], [sn, cs]])
    verts = scale * np.stack([a, b, c]) @ rmat.T + rng.uniform(-1.0, 1.0, size=2)
    return TriangleGeometry.from_vertices(verts)


# -- quadrature ------------------------------------------------------------

@dataclass(frozen=True)
class IntervalRule:
    """Nodes in (0,1) and weights summing to 1, self-tested for exactness."""

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if abs(self.weights.sum() - 1.0) > 1e-14:
            raise ValueError("interval rule weights must sum to 1")
        if self.points.min() <= 0.0 or self.points.max() >= 1.0:
            raise ValueError("interval rule nodes must lie strictly inside (0,1)")
        for k in range(self.degree + 1):
            approx = float(self.weights @ self.points**k)
            if abs(approx - 1.0 / (k + 1)) > 1e-13:
                raise ValueError(f"interval rule fails exactness for s^{k}")


def interval_rule() -> IntervalRule:
    """4-point Gauss-Legendre on (0,1), exact through degree 7."""
    r30 = math.sqrt(30.0)
    t_inner = math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
    t_outer = math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
    nodes = np.array([-t_outer, -t_inner, t_inner, t_outer])
    weights = np.array(
        [(18.0 - r30) / 36.0, (18.0 + r30) / 36.0, (18.0 + r30) / 36.0, (18.0 - r30) / 36.0]
    )
    return IntervalRule((nodes + 1.0) / 2.0, weights / 2.0, degree=7)


def physical_points(rule: TriangleRule, geometry: TriangleGeometry) -> np.ndarray:
    """Map the rule's barycentric nodes onto a physical triangle, shape (nq, 2)."""
    return rule.points @ geometry.vertices


def integrate_triangle(rule: TriangleRule, geometry: TriangleGeometry, f) -> float:
    """Integrate ``f(x, y)`` (vectorized) over a triangle; exact for
    polynomials up to the rule's degree."""
    x = physical_points(rule, geometry)
    return geometry.area * float(rule.weights @ np.asarray(f(x[:, 0], x[:, 1]), dtype=float))


def integrate_interval(rule: IntervalRule, f) -> float:
    """Integrate ``f(s)`` (vectorized) over (0,1)."""
    return float(rule.weights @ np.asarray(f(rule.points), dtype=float))


# -- the edge flux profile -------------------------------------------------

def g_eval(s):
    """The fixed edge flux profile g(s) = 30 s (s-1) (21 s^2 - 21 s + 4)."""
    s = np.asarray(s, dtype=float)
    out = 30.0 * s * (s - 1.0) * (21.0 * s * s - 21.0 * s + 4.0)
    return float(out) if out.ndim == 0 else out


def g_moments() -> tuple[float, float, float]:
    """Moments (int g, int g s, int g s^2) by Gauss quadrature; exactly (1, 1/2, 0)."""
    rule = interval_rule()
    return (
        integrate_interval(rule, g_eval),
        integrate_interval(rule, lambda s: g_eval(s) * s),
        integrate_interval(rule, lambda s: g_eval(s) * s * s),
    )


# -- the flux basis --------------------------------------------------------

def eval_local_basis(geometry: TriangleGeometry, i: int, x) -> np.ndarray:
    """Local basis function i, (x - W_i) / (2|K|), at point(s) ``x`` of shape
    (2,) or (..., 2)."""
    w = geometry.vertices[i]
    return (np.asarray(x, dtype=float) - w) / (2.0 * geometry.area)


def eval_rt_field(mesh: Mesh, p: np.ndarray, t: int, x) -> np.ndarray:
    """Evaluate the flux field inside triangle ``t`` at point(s) ``x``."""
    geom = geometry(mesh, t)
    coeffs = mesh.tri_signs[t] * p[mesh.tri_edges[t]]
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(3):
        out += coeffs[i] * eval_local_basis(geom, i, x)
    return out


def interpolate_rt(v, mesh: Mesh) -> np.ndarray:
    """Edge fluxes of a vector field ``v(x, y) -> (vx, vy)`` by edge quadrature."""
    rule = interval_rule()
    edges = mesh.edges
    a = mesh.vertices[edges.tail]
    b = mesh.vertices[edges.head]
    pts = a[:, None, :] + rule.points[:, None] * (b - a)[:, None, :]     # (ne, nq, 2)
    vx, vy = v(pts[..., 0], pts[..., 1])
    normal = edges.normal[:, None, :]
    normal_v = np.asarray(vx) * normal[..., 0] + np.asarray(vy) * normal[..., 1]
    return edges.length * (normal_v @ rule.weights)


def local_gram_quadrature(geometry: TriangleGeometry) -> np.ndarray:
    """Local flux mass matrix by quadrature (exact: quadratic integrands)."""
    rule = triangle_rule()
    x = physical_points(rule, geometry)                  # (nq, 2)
    basis = np.stack(
        [eval_local_basis(geometry, i, x) for i in range(3)]
    )                                                    # (3, nq, 2)
    gram = np.einsum("q,iqd,jqd->ij", rule.weights, basis, basis) * geometry.area
    return 0.5 * (gram + gram.T)
