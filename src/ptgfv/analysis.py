"""Verification instruments: manufactured-solution error norms and rates,
randomized checks of the closed-form lemmas, and the stability inequalities.

Everything randomized is seeded and reproducible.  Random triangles draw
their vertices uniformly in the unit square and reject a minimum angle below
5 degrees; every bound is then checked against the sampled triangle's own
minimum angle, never a global one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import (
    delta_denominator,
    delta_energy_closed_form,
    delta_numerator,
    nu_bound,
    solve_delta_k,
)
from .mesh import (
    Mesh,
    MeshQualityReport,
    TriangleGeometry,
    cotan_coefficients,
    generate_rhombus_equilateral,
    quality_report,
)
from .quadrature import triangle_rule
from .solver import Solution, assemble, solve
from .spaces import interpolate_p0, local_fluxes, local_gram_closed_form, quadrature_blocks

__all__ = [
    "ManufacturedCase",
    "CASES",
    "error_norms",
    "ConvergenceLevel",
    "ConvergenceReport",
    "convergence_study",
    "CheckResult",
    "LemmaSuiteReport",
    "lemma_suite",
    "StabilityReport",
    "stability_check",
]

MIN_SAMPLE_ANGLE = math.radians(5.0)


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic solution/source pair with a domain generator.

    ``u``, ``f`` map coordinate arrays to value arrays; ``grad_u`` returns
    the pair of partial derivatives.  ``exact`` returns ``(u, ux, uy, f)``
    at once, for :func:`error_norms`; by default it calls ``u``, ``grad_u``
    and ``f`` in turn, and a case may supply one that shares their work.
    All built-in cases vanish on their domain boundary.
    """

    name: str
    generator: object  # Callable[[int], Mesh]
    u: object          # Callable[(x, y) arrays] -> array
    f: object
    grad_u: object     # Callable -> (ux, uy)
    exact: object = None  # Callable -> (u, ux, uy, f)

    def __post_init__(self):
        if self.exact is None:
            def exact(x, y):
                u = self.u(x, y)
                ux, uy = self.grad_u(x, y)
                return u, ux, uy, self.f(x, y)

            object.__setattr__(self, "exact", exact)


def _make_rhombus_sine() -> ManufacturedCase:
    s3 = math.sqrt(3.0)
    pi = math.pi

    # sin and cos of pi times the skew coordinates of the rhombus,
    # xi = x - y/sqrt(3) and eta = 2y/sqrt(3): both run over (0, 1) inside
    # the domain
    def trig(x, y):
        a = pi * (x - y / s3)
        b = pi * (2.0 * y / s3)
        return np.sin(a), np.cos(a), np.sin(b), np.cos(b)

    def source(sa, ca, sb, cb):
        return (4.0 * pi**2 / 3.0) * (2.0 * sa * sb + ca * cb)

    def gradient(sa, ca, sb, cb):
        cs = ca * sb
        sc = sa * cb
        return pi * cs, pi * (-cs / s3 + 2.0 * sc / s3)

    def u(x, y):
        sa, _, sb, _ = trig(x, y)
        return sa * sb

    def f(x, y):
        return source(*trig(x, y))

    def grad_u(x, y):
        return gradient(*trig(x, y))

    def exact(x, y):
        sa, ca, sb, cb = t = trig(x, y)
        return (sa * sb, *gradient(*t), source(*t))

    return ManufacturedCase(
        name="rhombus-sine",
        generator=generate_rhombus_equilateral,
        u=u,
        f=f,
        grad_u=grad_u,
        exact=exact,
    )


CASES: dict[str, ManufacturedCase] = {"rhombus-sine": _make_rhombus_sine()}


def error_norms(
    mesh: Mesh,
    solution: Solution,
    case: ManufacturedCase,
) -> tuple[float, float, float]:
    """L2 errors (scalar, flux, flux divergence) of a discrete solution.

    The divergence error uses the identity div(grad u) = -f so the exact
    solution never has to be differentiated twice numerically.
    """
    rule = triangle_rule()
    areas = mesh.areas
    w = rule.weights
    # affine flux per triangle: p(x) = a_t * x - b_t
    loc = local_fluxes(mesh, solution.p)                          # (nt, 3)
    net = loc.sum(axis=1)
    a_t = net / (2.0 * areas)
    b_t = np.einsum("ti,tid->td", loc, mesh.geometries.vertices) / (2.0 * areas[:, None])
    div_t = net / areas

    eu2 = ep2 = ediv2 = 0.0
    for block, x in quadrature_blocks(mesh, rule):              # x: (b, nq, 2)
        xs, ys = x[..., 0], x[..., 1]
        area = areas[block]
        u_vals, gx, gy, f_vals = (np.asarray(a, dtype=float) for a in case.exact(xs, ys))
        eu2 += float(area @ (((u_vals - solution.u[block, None]) ** 2) @ w))

        px = a_t[block, None] * xs - b_t[block, None, 0]
        py = a_t[block, None] * ys - b_t[block, None, 1]
        ep2 += float(area @ (((gx - px) ** 2 + (gy - py) ** 2) @ w))

        ediv2 += float(area @ (((-f_vals - div_t[block, None]) ** 2) @ w))
    return math.sqrt(eu2), math.sqrt(ep2), math.sqrt(ediv2)


@dataclass(frozen=True)
class ConvergenceLevel:
    n: int
    h: float
    eu: float
    ep: float
    ediv: float
    combined: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class ConvergenceReport:
    case: str
    levels: tuple[ConvergenceLevel, ...]

    def rates(self, key: str) -> list[float]:
        """Observed orders between consecutive levels for one error column."""
        vals = [getattr(level, key) for level in self.levels]
        hs = [level.h for level in self.levels]
        return [
            math.log(vals[i] / vals[i + 1]) / math.log(hs[i] / hs[i + 1])
            for i in range(len(vals) - 1)
        ]

    def final_rate(self, key: str) -> float:
        return self.rates(key)[-1]


def convergence_study(
    case: ManufacturedCase,
    levels: list[int],
    tol: float = 1e-12,
) -> ConvergenceReport:
    """Solve the case on a sequence of refinements and report errors/rates."""
    if len(levels) < 2:
        raise ValueError("a convergence study needs at least 2 levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    rows = []
    for n in levels:
        mesh = case.generator(n)
        coeffs = cotan_coefficients(mesh)
        f_t = interpolate_p0(case.f, mesh)
        solution = solve(assemble(mesh, coeffs, f_t), tol=tol)
        eu, ep, ediv = error_norms(mesh, solution, case)
        rows.append(
            ConvergenceLevel(
                n=n,
                h=mesh.h_max,
                eu=eu,
                ep=ep,
                ediv=ediv,
                combined=eu + math.hypot(ep, ediv),
                iterations=solution.iterations,
                residual=solution.residual,
            )
        )
    if any(b.h >= a.h for a, b in zip(rows, rows[1:])):
        raise ValueError("refinement did not decrease the mesh size")
    return ConvergenceReport(case=case.name, levels=tuple(rows))


def random_triangles(
    rng: np.random.Generator, count: int, min_angle: float = MIN_SAMPLE_ANGLE
) -> TriangleGeometry:
    """``count`` triangles with vertices uniform in the unit square and
    minimum angle at least ``min_angle``, in the order a one-at-a-time
    rejection sampler would draw them from the same generator."""
    accepted = []
    found = 0
    while found < count:
        # (k, 3, 2) uniforms are k draws of (3, 2) from the same stream
        candidates = rng.uniform(size=(count - found, 3, 2))
        candidates = candidates[~TriangleGeometry.degenerate(candidates)]
        geom = TriangleGeometry.from_vertices(candidates)
        keep = geom.vertices[geom.angles.min(axis=-1) >= min_angle]
        accepted.append(keep)
        found += len(keep)
    return TriangleGeometry.from_vertices(np.concatenate(accepted))


def _circumcenter(v: np.ndarray) -> np.ndarray:
    """Circumcenters (..., 2) of the triangles with corners ``v`` (..., 3, 2)."""
    d1 = v[..., 1, :] - v[..., 0, :]
    d2 = v[..., 2, :] - v[..., 0, :]
    denom = 2.0 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
    n1 = np.sum(d1 * d1, axis=-1)
    n2 = np.sum(d2 * d2, axis=-1)
    return v[..., 0, :] + np.stack(
        [(d2[..., 1] * n1 - d1[..., 1] * n2) / denom, (d1[..., 0] * n2 - d2[..., 0] * n1) / denom],
        axis=-1,
    )


def circumcenter_edge_distances(geometry: TriangleGeometry) -> np.ndarray:
    """Signed circumcenter-to-edge distances, positive towards the interior.

    Entry i belongs to the edge opposite vertex i and equals
    |a_i| * cot(angle_i) / 2 for any triangle (the distance itself on acute
    triangles, negative where the opposite angle is obtuse).  Shape (3,), or
    (B, 3) for a batch.
    """
    v = geometry.vertices
    p = np.roll(v, -1, axis=-2)
    q = np.roll(v, -2, axis=-2)
    mid = 0.5 * (p + q)
    tangent = (q - p) / np.hypot(q[..., 0] - p[..., 0], q[..., 1] - p[..., 1])[..., None]
    inward = v - mid
    inward = inward - tangent * np.sum(inward * tangent, axis=-1, keepdims=True)
    inward = inward / np.hypot(inward[..., 0], inward[..., 1])[..., None]
    return np.sum((_circumcenter(v)[..., None, :] - mid) * inward, axis=-1)


@dataclass(frozen=True)
class CheckResult:
    check: str
    samples: int
    passed: bool
    worst_slack: float
    witness: list | None


@dataclass(frozen=True)
class LemmaSuiteReport:
    seed: int
    checks: tuple[CheckResult, ...]
    max_energy_ratio: float  # max observed I / nu(theta_min), expected << 1

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# Triangles per batch of the lemma suite: as fast as one batch of 10 000,
# with a tenth of its temporary memory.
BLOCK = 1000

def _lemma_slacks(geom: TriangleGeometry) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-triangle slack of every named check, and the energy ratio I / nu.

    Slack >= 0 means the triangle passed; the tolerance of equality-style
    checks is folded into the slack.
    """
    theta_min = geom.angles.min(axis=-1)
    tan_min = np.tan(theta_min)
    ratio = geom.rho2 / geom.area
    gyration = np.minimum(ratio - 1.0 / 6.0, 1.0 / (3.0 * tan_min) - ratio) + 1e-12

    gram = local_gram_closed_form(geom)
    eig = np.linalg.eigvalsh(gram)
    lam_lo = tan_min**2 / 48.0
    lam_hi = 5.0 / (4.0 * tan_min)
    eigen = np.minimum(eig.min(axis=-1) - lam_lo, lam_hi - eig.max(axis=-1)) + 1e-12

    tr_expected = 15.0 * ratio / 4.0
    trace = 1e-10 - np.abs(np.trace(gram, axis1=-2, axis2=-1) - tr_expected) / tr_expected
    det_expected = geom.rho2 / (16.0 * geom.area)
    determinant = 1e-10 - np.abs(np.linalg.det(gram) - det_expected) / det_expected
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    upper = gram[..., [0, 1, 2], [1, 2, 0]]
    pairwise = np.sum(diag * np.roll(diag, -1, axis=-1) - upper**2, axis=-1)
    pairwise_expected = 1.0 / 12.0 + 2.25 * ratio**2
    minors = 1e-10 - np.abs(pairwise - pairwise_expected) / pairwise_expected

    cot = 1.0 / np.tan(geom.angles)
    cotan_sum = 1e-11 - np.abs(cot.sum(axis=-1) - 9.0 * ratio) / (9.0 * ratio)
    cotan_prod = 1e-11 - np.abs(np.sum(cot * np.roll(cot, -1, axis=-1), axis=-1) - 1.0)

    energy = solve_delta_k(geom).energy
    energy_ratio = energy / nu_bound(theta_min)
    closed = delta_energy_closed_form(geom)
    energy_match = 1e-8 - np.abs(energy - closed) / closed

    sigma2 = np.sum(geom.edge_lengths**2, axis=-1)
    denom_bound = delta_denominator(geom) / sigma2**2 - 5.0 / 12.0 + 1e-12
    numer_bound = 23.0 - delta_numerator(geom) / sigma2**6

    dist = circumcenter_edge_distances(geom)
    err = np.abs(0.5 / np.tan(geom.angles) - dist / geom.edge_lengths)
    circum = 1e-11 - err.max(axis=-1)

    slacks = {
        "gyration-radius-bounds": gyration,
        "mass-matrix-eigenvalue-bounds": eigen,
        "mass-matrix-trace-identity": trace,
        "mass-matrix-determinant-identity": determinant,
        "mass-matrix-pairwise-minor-identity": minors,
        "cotangent-sum-identity": cotan_sum,
        "cotangent-product-identity": cotan_prod,
        "divergence-profile-energy-bound": 1.0 - energy_ratio,
        "divergence-profile-closed-form": energy_match,
        "denominator-lower-bound": denom_bound,
        "numerator-upper-bound": numer_bound,
        "circumcenter-distance-identity": circum,
    }
    return slacks, energy_ratio


def lemma_suite(samples: int = 10000, seed: int = 42) -> LemmaSuiteReport:
    """Run every closed-form identity and bound on random triangles.

    The triangles are checked in batches of BLOCK.  A NaN slack counts as a
    failed sample.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    blocks = (
        random_triangles(rng, min(BLOCK, samples - start))
        for start in range(0, samples, BLOCK)
    )

    count = 0
    worst: dict[str, float] = {}
    witness: dict[str, list] = {}
    max_ratio = 0.0
    for geom in blocks:
        count += len(geom.vertices)
        slacks, energy_ratio = _lemma_slacks(geom)
        max_ratio = max(max_ratio, float(energy_ratio.max()))
        for name, slack in slacks.items():
            slack = np.where(np.isnan(slack), -math.inf, slack)
            i = int(np.argmin(slack))
            if name not in worst or slack[i] < worst[name]:
                worst[name] = float(slack[i])
                witness[name] = geom.vertices[i].tolist()

    checks = tuple(
        CheckResult(check=name, samples=count, passed=bool(w >= 0.0), worst_slack=w,
                    witness=witness[name])
        for name, w in worst.items()
    )
    return LemmaSuiteReport(seed=seed, checks=checks, max_energy_ratio=max_ratio)


@dataclass(frozen=True)
class StabilityReport:
    """Stability constants of a mesh against the explicit bounds of the
    convergence analysis; h3 and h4 are exact, h1 is sampled.

    The h1 bound is <= 0 once an angle reaches a right angle, where every
    ratio passes it: on a mesh that is not ``all_acute`` ``passed_h1`` is
    None (not applicable), with ``theta_max_triangle`` as the witness, and
    ``h1_min_ratio`` is still reported.
    """

    theta_min: float
    theta_max: float
    theta_max_triangle: int  # a triangle with the angle theta_max
    trials: int
    bound_h1: float          # (2/5) cot(theta_max) tan(theta_min)
    bound_h3: float          # exactly 1
    bound_h4: float          # sqrt(nu(theta_min))
    h1_min_ratio: float
    h3_max_deviation: float  # max over triangles of |int(delta) - 1|
    h4_max_ratio: float      # sqrt(max_energy)
    max_energy: float        # max per-triangle |K| int(delta^2)
    passed_h1: bool | None
    passed_h3: bool
    passed_h4: bool

    @property
    def all_passed(self) -> bool:
        return self.passed_h1 is not False and self.passed_h3 and self.passed_h4


def stability_check(
    mesh: Mesh,
    trials: int = 100,
    seed: int = 42,
    report: MeshQualityReport | None = None,
) -> StabilityReport:
    """Evaluate the three computable stability inequalities on a mesh.

    The divergence-side ratios weigh a per-triangle quantity by |K| div(p)^2,
    and the divergence maps the flux fields onto all cell fields, so their
    suprema are per-triangle extrema: the largest deviation of the mean of
    the solved divergence profile from 1 (h3), and the square root of the
    largest profile energy (h4).  The h1 lower bound is probed with
    ``trials`` flux fields of i.i.d. standard normal entries, whose smallest
    ratio is an upper estimate of the infimum: the pairing reduces to
    sum(c_a p_a^2) by the orthogonality of the dual basis, and the squared
    field norm comes from the local mass matrices.  ``report`` is the mesh's
    quality report, computed when absent.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    report = report or quality_report(mesh)
    if not report.admissible:
        raise ValueError("stability check requires an admissible mesh")
    rng = np.random.default_rng(seed)

    geom = mesh.geometries
    grams = local_gram_closed_form(geom)                       # (nt, 3, 3)
    delta = solve_delta_k(geom)
    max_energy = float(delta.energy.max())
    h1_min = math.inf
    for _ in range(trials):
        p = rng.standard_normal(mesh.num_edges)
        loc = mesh.tri_signs * p[mesh.tri_edges]               # (nt, 3)
        norm2 = float(np.einsum("ti,tij,tj->", loc, grams, loc))
        h1_min = min(h1_min, float(report.coefficients @ p**2) / norm2)

    theta_min, theta_max = report.theta_min, report.theta_max
    bound_h1 = 0.4 * math.tan(theta_min) / math.tan(theta_max)
    bound_h4 = math.sqrt(nu_bound(theta_min))
    h3_deviation = float(np.abs(delta.moments()[:, 0] - 1.0).max())
    return StabilityReport(
        theta_min=theta_min,
        theta_max=theta_max,
        theta_max_triangle=int(geom.angles.max(axis=1).argmax()),
        trials=trials,
        bound_h1=bound_h1,
        bound_h3=1.0,
        bound_h4=bound_h4,
        h1_min_ratio=h1_min,
        h3_max_deviation=h3_deviation,
        h4_max_ratio=math.sqrt(max_energy),
        max_energy=max_energy,
        passed_h1=bool(h1_min >= bound_h1 - 1e-12) if report.all_acute else None,
        passed_h3=bool(h3_deviation <= 1e-12),
        passed_h4=bool(math.sqrt(max_energy) <= bound_h4),
    )
