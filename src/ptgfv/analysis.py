"""Verification instruments: manufactured-solution error norms and rates,
randomized checks of the closed-form lemmas, and the stability inequalities,
evaluated in closed form triangle by triangle.

The lemma suite is the one randomized check; it is seeded and reproducible.
Its draws come from :class:`SplitMix64`, a counter-based stream in this
module, so seeded output does not depend on the numpy version (NEP 19 keeps
numpy's ``Generator`` streams stable only within a version).  Random triangles draw their vertices
uniformly in the unit square and reject a minimum angle below 5 degrees;
every bound is then checked against the sampled triangle's own minimum
angle, never a global one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dual import (
    NU_SCALE,
    _profile_terms,
    delta_energy_closed_form,
    nu_bound,
    solve_delta_k,
)
from .mesh import (
    _NEXT,
    _PREV,
    Mesh,
    TriangleGeometry,
    _cross,
    _dot,
    _max3,
    _sum3,
    generate_rhombus_equilateral,
    quality_report,
)
from .solver import Solution, assemble, solve
from .spaces import (
    QUAD_BLOCK,
    QUAD_POINTS,
    QUAD_WEIGHTS,
    _check_cells,
    _gram_entries,
    interpolate_p0,
    local_fluxes,
    local_gram_closed_form,
    quadrature_blocks,
)

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
    _check_cells(mesh, solution.u)
    areas = mesh.areas
    w = QUAD_WEIGHTS
    # affine flux per triangle: p(x) = a_t * x - b_t
    loc = local_fluxes(mesh, solution.p)                          # (nt, 3)
    net = _sum3(loc)
    a_t = net / (2.0 * areas)
    b_t = np.einsum("ti,tid->td", loc, mesh.geometries.vertices) / (2.0 * areas[:, None])
    div_t = net / areas

    eu2 = ep2 = ediv2 = 0.0
    for block, x in quadrature_blocks(mesh):                    # x: (b, nq, 2)
        xs, ys = x[..., 0], x[..., 1]
        area = areas[block]
        u_vals, gx, gy, f_vals = (
            np.broadcast_to(np.asarray(a, dtype=float), xs.shape) for a in case.exact(xs, ys)
        )
        eu2 += float(area @ (((u_vals - solution.u[block, None]) ** 2) @ w))

        px = a_t[block, None] * xs - b_t[block, None, 0]
        py = a_t[block, None] * ys - b_t[block, None, 1]
        ep2 += float(area @ (((gx - px) ** 2 + (gy - py) ** 2) @ w))

        ediv2 += float(area @ (((-f_vals - div_t[block, None]) ** 2) @ w))
    return math.sqrt(eu2), math.sqrt(ep2), math.sqrt(ediv2)


@dataclass(frozen=True)
class ConvergenceLevel:
    """Errors of one refinement level.  ``ecc`` is the discrete L2 error
    (sum |K| (u_K - u(x_K))^2)^(1/2) at the circumcenters x_K, where the
    four-point scheme's cell values converge at second order."""

    n: int
    h: float
    eu: float
    ep: float
    ediv: float
    combined: float
    ecc: float


@dataclass(frozen=True)
class ConvergenceReport:
    case: str
    levels: tuple[ConvergenceLevel, ...]

    def rates(self, key: str) -> list[float]:
        """Observed orders between consecutive levels for one error column;
        NaN for a pair whose errors are not both positive, such as the zero
        errors of an exactly solved case, where no order is observed."""
        vals = [getattr(level, key) for level in self.levels]
        hs = [level.h for level in self.levels]
        return [
            math.log(vals[i] / vals[i + 1]) / math.log(hs[i] / hs[i + 1])
            if vals[i] > 0.0 and vals[i + 1] > 0.0 else math.nan
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
        f_t = interpolate_p0(case.f, mesh)
        solution = solve(assemble(mesh, mesh.coefficients, f_t), tol=tol)
        eu, ep, ediv = error_norms(mesh, solution, case)
        centers = _circumcenter(mesh.geometries.vertices)
        ecc = mesh.areas @ (solution.u - case.u(centers[:, 0], centers[:, 1])) ** 2
        rows.append(
            ConvergenceLevel(
                n=n,
                h=mesh.h_max,
                eu=eu,
                ep=ep,
                ediv=ediv,
                combined=eu + math.hypot(ep, ediv),
                ecc=math.sqrt(ecc),
            )
        )
    if any(b.h >= a.h for a, b in zip(rows, rows[1:])):
        raise ValueError("refinement did not decrease the mesh size")
    return ConvergenceReport(case=case.name, levels=tuple(rows))


# SplitMix64's state increment, and the shift and multiplier of the first
# two of its three xor-shift rounds.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
)


class SplitMix64:
    """Counter-based uniform stream: draw k of seed s is the SplitMix64
    finaliser of s + (k + 1) * 0x9E3779B97F4A7C15 mod 2^64 (G. Steele, D. Lea
    and C. Flood, OOPSLA 2014), a pure hash of (s, k), so a block of n draws
    is the n single draws that follow.  ``counter`` is the index of the next
    draw; it starts at 0, and setting it moves the stream to that draw.

    Raises ValueError for a seed outside 0..2^64 - 1.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in 0..2**64 - 1, got {seed}")
        self.seed = seed
        self.counter = 0

    def uniform(self, size: tuple[int, ...]) -> np.ndarray:
        """Uniforms on [0, 1) of shape ``size``: the top 53 bits of each of
        the next draws, times 2^-53."""
        n = int(math.prod(size))
        # the first state in Python ints: a numpy scalar product would warn
        # on the wrap-around that array arithmetic does silently
        first = (self.seed + (self.counter + 1) * _GOLDEN) % (1 << 64)
        self.counter += n
        z = np.arange(n, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(first)
        for shift, factor in _MIX:
            z ^= z >> shift
            z *= factor
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        u = z.astype(float)
        u *= 2.0**-53
        return u.reshape(size)


def random_triangles(stream: SplitMix64, count: int) -> TriangleGeometry:
    """``count`` triangles with vertices uniform in the unit square and
    minimum angle at least MIN_SAMPLE_ANGLE, in the order a one-at-a-time
    rejection sampler would draw them from the same stream: each candidate
    takes the next six uniforms as its corners.

    About 87% of the candidates pass, so each batch reads ahead 1.25 times
    the triangles still missing, plus 16.  The stream is counter-based, so
    its counter is then set just past the last candidate kept: the samples
    and the stream's final counter do not depend on the batch size.

    Raises ValueError for a ``count`` below 1.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    cot_max = 1.0 / math.tan(MIN_SAMPLE_ANGLE)
    accepted = []
    found = 0
    while found < count:
        need = count - found
        start = stream.counter
        candidates = stream.uniform((need + need // 4 + 16, 3, 2))
        # corners are multiples of 2^-53 in [0, 1): no edge overflows, and a
        # zero area is always flagged degenerate, so this never raises
        geom, _, degenerate = TriangleGeometry._oriented(candidates)
        keep = np.flatnonzero((_max3(geom.cot) <= cot_max) & ~degenerate)[:need]
        if len(keep) == need:
            stream.counter = start + 6 * (int(keep[-1]) + 1)
        accepted.append([getattr(geom, f.name)[keep] for f in dataclasses.fields(geom)])
        found += len(keep)
    fields = [np.concatenate(parts) for parts in zip(*accepted)]
    for field in fields:
        field.flags.writeable = False
    return TriangleGeometry(*fields)


def _circumcenter(v: np.ndarray) -> np.ndarray:
    """Circumcenters (..., 2) of the triangles with corners ``v`` (..., 3, 2)."""
    d1 = v[..., 1, :] - v[..., 0, :]
    d2 = v[..., 2, :] - v[..., 0, :]
    denom = 2.0 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
    n1 = _dot(d1, d1)
    n2 = _dot(d2, d2)
    return v[..., 0, :] + np.stack(
        [(d2[..., 1] * n1 - d1[..., 1] * n2) / denom, (d1[..., 0] * n2 - d2[..., 0] * n1) / denom],
        axis=-1,
    )


def circumcenter_edge_distances(geometry: TriangleGeometry) -> np.ndarray:
    """Signed circumcenter-to-edge distances, positive towards the interior.

    Entry i belongs to the edge opposite vertex i, from vertex i+1 to vertex
    i+2, and equals |a_i| * cot(angle_i) / 2 for any triangle (the distance
    itself on acute triangles, negative where the opposite angle is obtuse):
    the cross product of the edge with the offset of the circumcenter from
    its start, divided by its length.  Shape (3,), or (B, 3) for a batch.
    """
    v = geometry.vertices
    p = v.take(_NEXT, axis=-2)
    center = _circumcenter(v)[..., None, :]
    return _cross(v.take(_PREV, axis=-2) - p, center - p) / geometry.edge_lengths


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


def _determinant(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Determinants of symmetric 3x3 matrices with diagonals ``diag`` (3, ...)
    and entries (i, i+1 mod 3) ``upper`` (3, ...), entry index first: the
    cofactor expansion multiplied out."""
    a, b, c = diag
    d, e, f = upper
    return a * b * c + 2.0 * d * e * f - a * e * e - b * f * f - c * d * d


def _mass_spectrum(geom: TriangleGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalues of ``local_gram_closed_form(geom)``.

    Its characteristic polynomial is (lam - 3r/4)(lam^2 - 3r lam + 1/12),
    r = rho^2 / |K|, and the quadratic's discriminant 9r^2 - 1/3 is the sum
    of squares s^2 = Sum_{i<j} (cot_i - cot_j)^2 / 18, 0 on the equilateral
    triangle.  So the largest root is (3r + s) / 2 and the smallest of the
    quadratic is 1/12 over it: no term cancels.
    """
    cot, ratio = geom.cot, geom.ratio
    top = 3.0 * ratio + np.sqrt(_sum3((cot - cot[..., _NEXT]) ** 2) / 18.0)
    return np.minimum(0.75 * ratio, 1.0 / (6.0 * top)), 0.5 * top


def _lemma_slacks(geom: TriangleGeometry) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-triangle slack of every named check, and the energy ratio I / nu.

    Slack >= 0 means the triangle passed; the tolerance of equality-style
    checks is folded into the slack.
    """
    cot = geom.cot
    cot_max = _max3(cot)                        # cot(theta_min)
    ratio = geom.ratio
    gyration = np.minimum(ratio - 1.0 / 6.0, cot_max / 3.0 - ratio) + 1e-12

    eig_min, eig_max = _mass_spectrum(geom)
    lam_lo = 1.0 / (48.0 * cot_max**2)
    lam_hi = 1.25 * cot_max
    eigen = np.minimum(eig_min - lam_lo, lam_hi - eig_max) + 1e-12

    # the trace, determinant and pairwise minors tie the code's mass matrix
    # to r and fix the spectrum above.  Row i of ``diag`` and of ``upper``
    # holds the entries (i, i) and (i, i+1 mod 3) of every matrix
    gram = local_gram_closed_form(geom)
    diag, upper = gram[..., [0, 1, 2], [0, 1, 2]].T, gram[..., [0, 1, 2], [1, 2, 0]].T
    tr_expected = 15.0 * ratio / 4.0
    trace = 1e-10 - np.abs(diag.sum(axis=0) - tr_expected) / tr_expected
    det_expected = ratio / 16.0
    determinant = 1e-10 - np.abs(_determinant(diag, upper) - det_expected) / det_expected
    pairwise = np.sum(diag * diag[_NEXT] - upper**2, axis=0)
    pairwise_expected = 1.0 / 12.0 + 2.25 * ratio**2
    minors = 1e-10 - np.abs(pairwise - pairwise_expected) / pairwise_expected

    cotan_sum = 1e-11 - np.abs(_sum3(cot) - 9.0 * ratio) / (9.0 * ratio)
    cotan_prod = 1e-11 - np.abs(_sum3(cot * cot[..., _NEXT]) - 1.0)

    energy = solve_delta_k(geom).energy
    energy_ratio = energy / (NU_SCALE * cot_max**4)      # nu(theta_min)
    closed = delta_energy_closed_form(geom)
    energy_match = 1e-12 - np.abs(energy - closed) / closed

    # D / sigma^4 and N / sigma^12 = k^2 B / sigma^4, k = 1 / (81 r^2)
    denominator, reduced = _profile_terms(geom)
    denom_bound = denominator - 5.0 / 12.0 + 1e-12
    numer_bound = 23.0 - reduced / (81.0 * ratio**2) ** 2

    dist = circumcenter_edge_distances(geom)
    err = np.abs(0.5 * cot - dist / geom.edge_lengths)
    circum = 1e-11 - _max3(err)

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

    The triangles are checked in batches of QUAD_BLOCK.  A NaN slack counts
    as a failed sample.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    stream = SplitMix64(seed)
    blocks = (
        random_triangles(stream, min(QUAD_BLOCK, samples - start))
        for start in range(0, samples, QUAD_BLOCK)
    )

    count = 0
    worst: dict[str, float] = {}
    witness: dict[str, list] = {}
    max_ratio = 0.0
    for geom in blocks:
        count += len(geom.vertices)
        slacks, energy_ratio = _lemma_slacks(geom)
        max_ratio = max(max_ratio, float(energy_ratio.max()))
        # one row per check; each row's first smallest slack is its worst
        table = np.stack(list(slacks.values()))
        table[np.isnan(table)] = -math.inf
        rows = np.argmin(table, axis=1)
        smallest = table[np.arange(len(table)), rows].tolist()
        for name, i, slack in zip(slacks, rows.tolist(), smallest):
            if name not in worst or slack < worst[name]:
                worst[name] = slack
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
    convergence analysis (see :func:`stability_check`): h3 and h4 are
    exact, and ``h1_certified`` is a proved lower bound on the h1 constant.

    The h1 bound is <= 0 once an angle reaches a right angle, where every
    value passes it: on a mesh that is not ``all_acute`` ``passed_h1`` is
    None (not applicable), with ``theta_max_triangle`` as the witness, and
    ``h1_certified`` is still reported.
    """

    theta_min: float
    theta_max: float
    theta_max_triangle: int  # a triangle with the angle theta_max
    bound_h1: float          # (2/5) cot(theta_max) tan(theta_min)
    bound_h3: float          # exactly 1
    bound_h4: float          # sqrt(nu(theta_min))
    h1_certified: float      # (1 - 1e-12) min over triangles of lambda_K
    h1_certified_triangle: int  # the first triangle with the smallest lambda_K
    h3_max_deviation: float  # max over triangles of |int(delta) - 1| / int(|delta|)
    h4_max_ratio: float      # sqrt(max_energy)
    max_energy: float        # max per-triangle |K| int(delta^2)
    passed_h1: bool | None
    passed_h3: bool
    passed_h4: bool

    @property
    def all_passed(self) -> bool:
        return self.passed_h1 is not False and self.passed_h3 and self.passed_h4


def _largest_eigenvalue(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Largest eigenvalues of the symmetric 3x3 matrices A of
    :func:`_determinant`, by the trigonometric solution of their
    characteristic cubic (O. K. Smith, Comm. ACM 4 (1961) 168).

    With q the mean eigenvalue and B = (A - qI) / p scaled to |B|_F^2 = 6,
    the largest eigenvalue is q + 2p cos(phi), where cos(3 phi) is
    det(B) / 2.  The angle is taken by arctan2 with sin(3 phi) = |B ^ C|_F / 6,
    C = B^2 - 2I, the root of the cubic's discriminant as a sum of squares
    (the Gram determinant of I, B, B^2): where two eigenvalues meet, 3 phi
    is a multiple of pi and an arccos of det(B) / 2 alone would keep only
    half the digits.  Where p is 0, A = qI and the angle is 0.
    """
    q = diag.sum(axis=0) / 3.0
    x = diag - q
    p = np.sqrt((np.sum(x * x, axis=0) + 2.0 * np.sum(upper * upper, axis=0)) / 6.0)
    scale = np.where(p > 0.0, p, 1.0)
    x = x / scale
    y = upper / scale
    # B^2 - 2I; the entry (i, i+1) of B^2 is y_i (x_i + x_{i+1}) + y_{i+1} y_{i+2}
    # and x_i + x_{i+1} = -x_{i+2}
    cx = x * x + y * y + y[_PREV] ** 2 - 2.0
    cy = y[_NEXT] * y[_PREV] - x[_PREV] * y
    # |B ^ C|^2 over the six distinct entries, an off-diagonal one counted twice
    wedge2 = (
        np.sum((x * cx[_NEXT] - x[_NEXT] * cx) ** 2, axis=0)
        + 4.0 * np.sum((y * cy[_NEXT] - y[_NEXT] * cy) ** 2, axis=0)
        + 2.0 * np.sum((x[:, None] * cy - cx[:, None] * y) ** 2, axis=(0, 1))
    )
    phi = np.arctan2(np.sqrt(wedge2) / 6.0, 0.5 * _determinant(x, y)) / 3.0
    return q + 2.0 * p * np.cos(phi)


def _h1_split_bound(geom: TriangleGeometry, share: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue lambda_K of the pencil (G_K, M_K) of each
    triangle, G_K = diag(``share``) of its edges, (B, 3), and M_K its local
    mass matrix: 1 / lambda_max of B_K = G_K^(-1/2) M_K G_K^(-1/2), whose
    entries are those of M_K divided by sqrt(g_i g_j).  G_K is diagonal, so
    the edge signs of the global mass matrix cancel.
    """
    diag, upper = _gram_entries(geom)
    g = share.T                                            # (3, B)
    return 1.0 / _largest_eigenvalue(diag / g, upper / np.sqrt(g * g[_NEXT]))


def stability_check(mesh: Mesh) -> StabilityReport:
    """Evaluate the three computable stability inequalities on a mesh.

    The divergence-side ratios weigh a per-triangle quantity by |K| div(p)^2,
    and the divergence maps the flux fields onto all cell fields, so their
    suprema are per-triangle extrema: the largest deviation of the mean of
    the solved divergence profile from 1 (h3), and the square root of the
    largest profile energy (h4).  The mean is the rule's mean of the
    profile's values at its points, and its deviation is measured relative
    to the mean of their absolute values, the scale of its round-off: a
    needle's profile has values near 1e14 that cancel to its mean 1.

    h1 asks for beta > 0 with sum(c_a p_a^2) >= beta p^T M p for every flux
    field p, M the global mass matrix (the pairing reduces to that sum by
    the orthogonality of the dual basis).  Each triangle takes the share
    c_a / n_a of the coefficient of each of its edges, n_a = 2 inside and 1
    on the boundary, so both sides are sums of 3x3 forms over triangles and
    beta >= min_K lambda_K, the smallest eigenvalue of each triangle's
    pencil (:func:`_h1_split_bound`), positive on every admissible mesh
    (I. Babuska, Numer. Math. 16 (1971); D. Chapelle and K. J. Bathe,
    Comput. Struct. 47 (1993)).  ``h1_certified`` is that minimum times
    (1 - 1e-12), a margin for round-off.

    All of it is evaluated QUAD_BLOCK triangles at a time, so only the
    per-triangle results grow with the mesh.  The angle extrema and
    admissibility come from ``quality_report(mesh)`` and the coefficients
    from ``mesh.coefficients``.
    """
    geom = mesh.geometries
    cot = geom.cot
    report = quality_report(mesh)
    if not report.admissible:
        raise ValueError("stability check requires an admissible mesh")

    share = mesh.coefficients / np.where(mesh.edges.neighbor >= 0, 2.0, 1.0)
    energy = np.empty(mesh.num_triangles)
    deviation = np.empty(mesh.num_triangles)
    h1 = np.empty(mesh.num_triangles)
    for start in range(0, mesh.num_triangles, QUAD_BLOCK):
        block = slice(start, start + QUAD_BLOCK)
        tris = geom[block]
        delta = solve_delta_k(tris)
        values = delta.values_at(QUAD_POINTS)              # |K| delta, (b, nq)
        energy[block] = delta.energy
        deviation[block] = np.abs(values @ QUAD_WEIGHTS - 1.0) / (np.abs(values) @ QUAD_WEIGHTS)
        h1[block] = _h1_split_bound(tris, share[mesh.tri_edges[block]])
    max_energy = float(energy.max())
    h3_deviation = float(deviation.max())
    h1_triangle = int(h1.argmin())
    h1_certified = (1.0 - 1e-12) * float(h1[h1_triangle])

    bound_h1 = 0.4 * float(cot.min() / cot.max())
    bound_h4 = math.sqrt(nu_bound(report.theta_min))
    return StabilityReport(
        theta_min=report.theta_min,
        theta_max=report.theta_max,
        # the first smallest cotangent in row order lies in the first
        # triangle whose smallest cotangent is the mesh's smallest
        theta_max_triangle=int(cot.argmin()) // 3,
        bound_h1=bound_h1,
        bound_h3=1.0,
        bound_h4=bound_h4,
        h1_certified=h1_certified,
        h1_certified_triangle=h1_triangle,
        h3_max_deviation=h3_deviation,
        h4_max_ratio=math.sqrt(max_energy),
        max_energy=max_energy,
        passed_h1=bool(h1_certified >= bound_h1 - 1e-12) if report.all_acute else None,
        passed_h3=bool(h3_deviation <= 1e-12),
        passed_h4=bool(math.sqrt(max_energy) <= bound_h4),
    )
