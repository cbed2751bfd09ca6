"""Single-triangle reference implementations that only the tests use.

Each one evaluates a quantity the package computes in closed form or in
batches, but by a different route: quadrature of the basis functions, the
one-triangle-at-a-time random samplers, the one-draw-at-a-time SplitMix64
stream in Python ints, the one-field-at-a-time h1 probe,
the moments of the divergence profile from its coefficients, its
energy from an exact Gram matrix in many-digit arithmetic,
edge-flux interpolation by Gauss quadrature, the flux profile g of the dual
edge basis, the triangle geometry and the closed-form local mass matrix
by index-list gathers, the edge table one edge at a time and the cell
system through scipy's COO conversion.  Tests compare the package against
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ptgfv.analysis import MIN_SAMPLE_ANGLE
from ptgfv.mesh import Mesh, TriangleGeometry, build_mesh
from ptgfv.solver import _trace
from ptgfv.spaces import QUAD_POINTS, QUAD_WEIGHTS, local_gram_closed_form


def geometry(mesh: Mesh, t: int) -> TriangleGeometry:
    """Geometry of triangle ``t``: row ``t`` of ``mesh.geometries``."""
    return mesh.geometries[t]


def corner_geometry(corners) -> TriangleGeometry:
    """Geometry of the triangle with corners ``corners`` (3, 2), or the batch
    of a (B, 3, 2) stack of them: ``build_mesh`` on unshared vertices."""
    c = np.asarray(corners, dtype=float)
    batch = build_mesh(c.reshape(-1, 2), np.arange(c.size // 2).reshape(-1, 3)).geometries
    return batch if c.ndim == 3 else batch[0]


# -- triangle geometry by index lists --------------------------------------

_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def indexed_geometry(vertices) -> dict[str, np.ndarray]:
    """Area, edge lengths, cotangents, ratio rho^2/|K| and circumcenter of a
    (B, 3, 2) batch of corners in either orientation, by index-list gathers
    of whole vertex arrays; the package computes the same formulas on slices
    and must agree bit for bit.  Also the angles, by arctan2, and rho^2,
    which the package does not store."""
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
    area = signed_areas(v)
    return {
        "vertices": v,
        "area": area,
        "edge_lengths": lengths,
        "cot": dot / cross,
        "ratio": np.sum((lengths / 6.0) ** 2, axis=-1) / area,
        "angles": np.arctan2(cross, dot),
        "rho2": np.sum(lengths**2, axis=-1) / 36.0,
        "circumcenter": center,
    }


# cotangent of each entry of the closed-form local mass matrix, angle i on
# the diagonal and the angle at the third vertex k (k not in {i, j}) off it,
# and the sign of its (3/4) r term
_GRAM_COT = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
_GRAM_SIGN = 2.0 * np.eye(3) - 1.0


def local_gram_indexed(geometry: TriangleGeometry) -> np.ndarray:
    """The closed-form local mass matrix, (3, 3) or (B, 3, 3), gathered
    whole from index tables; the package writes each entry once and must
    agree bit for bit."""
    ratio = np.asarray(geometry.ratio)[..., None, None]
    return geometry.cot[..., _GRAM_COT] / 6.0 + 0.75 * ratio * _GRAM_SIGN


def angles(geometry: TriangleGeometry) -> np.ndarray:
    """Angles of a triangle (3,) or of a batch (B, 3) by arctan2, from
    :func:`indexed_geometry`."""
    return indexed_geometry(geometry.vertices)["angles"].reshape(np.shape(geometry.cot))


# -- the edge table and the cell system -------------------------------------

def reference_edges(mesh: Mesh) -> np.ndarray:
    """The edge table built one edge at a time from an incidence dict, one
    row (tail, head, owner, owner_local, neighbor, neighbor_local, normal x,
    normal y, length) per edge."""
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


def edge_table(mesh: Mesh) -> np.ndarray:
    """``mesh.edges`` as the columns of :func:`reference_edges`."""
    e = mesh.edges
    return np.column_stack(
        [e.tail, e.head, e.owner, e.owner_local, e.neighbor, e.neighbor_local, e.normal, e.length]
    )


def assemble_reference(mesh: Mesh, coeffs: np.ndarray, f_t: np.ndarray, bc=None):
    """The CSR matrix and right-hand side of ``assemble``, built as
    (row, column, value) triplets that scipy converts and sorts: the
    diagonal by a ``bincount`` over the edges' owner and neighbor entries,
    interleaved in edge order."""
    from scipy.sparse import csr_matrix

    nt = mesh.num_triangles
    w = 1.0 / coeffs
    owner, neighbor = mesh.edges.owner, mesh.edges.neighbor
    boundary = mesh.boundary_edges
    with np.errstate(over="ignore"):
        rhs = mesh.areas * f_t
    np.add.at(rhs, owner[boundary], _trace(mesh, bc) * w[boundary])
    pairs = np.stack([owner, neighbor], axis=-1).ravel()
    weights = np.repeat(w, 2)
    present = pairs >= 0
    diag = np.bincount(pairs[present], weights[present], minlength=nt)
    internal = mesh.internal_edges
    couple = np.stack([owner[internal], neighbor[internal]], axis=-1)
    rows = np.concatenate([couple.ravel(), np.arange(nt)])
    cols = np.concatenate([couple[:, ::-1].ravel(), np.arange(nt)])
    vals = np.concatenate([np.repeat(-w[internal], 2), diag])
    return csr_matrix((vals, (rows, cols)), shape=(nt, nt)), rhs


def assert_system_is_reference(system, mesh: Mesh, coeffs, f_t, bc=None) -> None:
    """``system``'s CSR arrays and right-hand side equal
    :func:`assemble_reference`'s byte for byte, index dtype included."""
    matrix, rhs = assemble_reference(mesh, coeffs, f_t, bc)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(system.matrix, name), getattr(matrix, name)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
    assert system.rhs.tobytes() == rhs.tobytes()


# -- the random stream -----------------------------------------------------

def splitmix64(seed: int, counter: int = 0):
    """Yield the SplitMix64 outputs of ``seed`` from draw ``counter`` on, one
    at a time in Python ints: the sequential generator, whose state steps
    by 0x9E3779B97F4A7C15 before each output."""
    mask = (1 << 64) - 1
    state = (seed + counter * 0x9E3779B97F4A7C15) & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


class ReferenceStream:
    """Uniforms on [0, 1) from :func:`splitmix64`, one draw at a time: the
    top 53 bits of each output times 2^-53.  ``counter`` is the index of the
    next draw."""

    def __init__(self, seed: int, counter: int = 0):
        self.draws = splitmix64(seed, counter)
        self.counter = counter

    def uniform(self, size) -> np.ndarray:
        self.counter += math.prod(size)
        values = [(next(self.draws) >> 11) * 2.0**-53 for _ in range(math.prod(size))]
        return np.array(values).reshape(size)


# -- random triangles ------------------------------------------------------

def random_triangle(rng: np.random.Generator, min_angle: float = MIN_SAMPLE_ANGLE) -> TriangleGeometry:
    """Uniform-vertex triangle in the unit square with min angle >= min_angle."""
    while True:
        try:
            geom = corner_geometry(rng.uniform(size=(3, 2)))
        except ValueError:
            continue
        if angles(geom).min() >= min_angle:
            return geom


def random_acute_triangle(rng: np.random.Generator, min_angle: float = MIN_SAMPLE_ANGLE) -> TriangleGeometry:
    """As :func:`random_triangle` but with all angles strictly below pi/2."""
    while True:
        geom = random_triangle(rng, min_angle)
        if angles(geom).max() < math.pi / 2:
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
    return corner_geometry(verts)


# -- the h1 probe ----------------------------------------------------------

def h1_probe_reference(mesh: Mesh, trials: int, seed: int) -> float:
    """Smallest ratio sum(c_a p_a^2) / p^T M p over ``trials`` flux fields of
    entries uniform on [-1/2, 1/2), drawn and evaluated one field at a time
    from ``ReferenceStream(seed)``, with M assembled from the closed-form
    local mass matrices by one einsum per field.  Every field bounds the h1
    constant, the infimum of the ratio, from above."""
    coefficients = mesh.coefficients
    grams = local_gram_closed_form(mesh.geometries)
    stream = ReferenceStream(seed)
    h1_min = math.inf
    for _ in range(trials):
        p = stream.uniform((mesh.num_edges,)) - 0.5
        loc = mesh.tri_signs * p[mesh.tri_edges]
        norm2 = float(np.einsum("ti,tij,tj->", loc, grams, loc))
        h1_min = min(h1_min, float(coefficients @ p**2) / norm2)
    return h1_min


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


def physical_points(geometry: TriangleGeometry) -> np.ndarray:
    """Map the triangle rule's barycentric nodes onto a physical triangle, shape (nq, 2)."""
    return QUAD_POINTS @ geometry.vertices


def integrate_triangle(geometry: TriangleGeometry, f) -> float:
    """Integrate ``f(x, y)`` (vectorized) over a triangle with the triangle
    rule; exact for polynomials up to degree 6."""
    x = physical_points(geometry)
    return geometry.area * float(QUAD_WEIGHTS @ np.asarray(f(x[:, 0], x[:, 1]), dtype=float))


def delta_moments(geometry: TriangleGeometry, coefficients) -> np.ndarray:
    """(int delta, int delta |x-W_i|^2 for i=1..3) of one triangle's
    divergence profile, with |K| delta evaluated from its ``coefficients``
    in {1, xi, eta/h, rho^2 - mean(rho^2)} at the rule's physical points;
    shape (4,).

    The frame is built here from the vertices: xi and eta are the offsets
    from the centroid along and across the first longest edge (eta towards
    the opposite vertex), divided by its length L, h = 2|K|/L^2 and
    mean(rho^2) is the rule's mean of xi^2 + eta^2.
    """
    v = geometry.vertices
    k = int(np.argmax(geometry.edge_lengths))
    tail, head = v[(k + 1) % 3], v[(k + 2) % 3]
    length = math.dist(tail, head)
    along = (head - tail) / length
    across = np.array([-along[1], along[0]])
    if (v[k] - tail) @ across < 0.0:
        across = -across
    x = physical_points(geometry)                                 # (nq, 2)
    xi = (x - v.mean(axis=0)) @ along / length
    eta = (x - v.mean(axis=0)) @ across / length
    height = 2.0 * geometry.area / length**2
    rho2 = xi**2 + eta**2
    profile = np.vstack([np.ones(len(x)), xi, eta / height, rho2 - QUAD_WEIGHTS @ rho2])
    delta = coefficients @ profile / geometry.area
    squared = np.sum((x[None] - v[:, None]) ** 2, axis=-1)        # (3, nq)
    basis = np.vstack([np.ones(len(x)), squared])                 # (4, nq)
    return geometry.area * (basis * delta) @ QUAD_WEIGHTS


def delta_energy_reference(vertices, digits: int = 100) -> float:
    """|K| int(delta^2) of the triangle with corners ``vertices``, solved
    with ``digits`` decimal digits in mpmath (imported here: it is not a
    dependency of the package).

    The constraint basis {1, |x-W_i|^2} is multiplied out as polynomials in
    the barycentric coordinates, and its Gram matrix under the mean over
    the triangle is exact from mean(lambda^alpha) = 2 alpha! / (|alpha|+2)!;
    the energy is the first entry of G^-1 e_0.  It does not depend on the
    scale, so the corners are first divided by their longest edge: mpmath's
    LU calls a matrix singular against an absolute tolerance.
    """
    import mpmath

    def product(p, q):
        out = {}
        for a, ca in p.items():
            for b, cb in q.items():
                key = tuple(i + j for i, j in zip(a, b))
                out[key] = out.get(key, 0) + ca * cb
        return out

    def mean(p):
        f = mpmath.factorial
        return sum(c * 2 * f(a[0]) * f(a[1]) * f(a[2]) / f(sum(a) + 2) for a, c in p.items())

    with mpmath.workdps(digits):
        v = [[mpmath.mpf(float(c)) for c in row] for row in vertices]
        longest = max(
            mpmath.hypot(v[i][0] - v[i - 1][0], v[i][1] - v[i - 1][1]) for i in range(3)
        )
        v = [[c / longest for c in row] for row in v]
        unit = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        basis = [{(0, 0, 0): mpmath.mpf(1)}]
        for w in v:
            square = {}
            for d in range(2):
                offset = {unit[k]: v[k][d] - w[d] for k in range(3)}
                for key, c in product(offset, offset).items():
                    square[key] = square.get(key, 0) + c
            basis.append(square)
        gram = mpmath.matrix([[mean(product(p, q)) for q in basis] for p in basis])
        return float(mpmath.lu_solve(gram, mpmath.matrix([1, 0, 0, 0]))[0])


def cotan_coefficients_reference(mesh: Mesh, digits: int = 60) -> list[float]:
    """Cotangent coefficients of every edge, with each cotangent evaluated
    as dot / |cross| of the two edges at its corner in ``digits`` decimal
    digits of mpmath."""
    import mpmath

    def cot(t: int, i: int):
        v = [[mpmath.mpf(float(c)) for c in mesh.vertices[k]] for k in mesh.triangles[t]]
        a = [v[(i + 1) % 3][d] - v[i][d] for d in range(2)]
        b = [v[(i + 2) % 3][d] - v[i][d] for d in range(2)]
        return (a[0] * b[0] + a[1] * b[1]) / abs(a[0] * b[1] - a[1] * b[0])

    def coefficient(e) -> float:
        corners = [(e.owner, e.owner_local), (e.neighbor, e.neighbor_local)]
        return float(sum(cot(t, i) for t, i in corners if t >= 0) / 2)

    with mpmath.workdps(digits):
        return [coefficient(e) for e in mesh.edges]


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
    x = physical_points(geometry)                        # (nq, 2)
    basis = np.stack(
        [eval_local_basis(geometry, i, x) for i in range(3)]
    )                                                    # (3, nq, 2)
    gram = np.einsum("q,iqd,jqd->ij", QUAD_WEIGHTS, basis, basis) * geometry.area
    return 0.5 * (gram + gram.T)
