import dataclasses
import math

import numpy as np
import pytest

from ptgfv.analysis import (
    CASES,
    ManufacturedCase,
    SplitMix64,
    _determinant,
    _lemma_slacks,
    _mass_spectrum,
    convergence_study,
    error_norms,
    lemma_suite,
    random_triangles,
    stability_check,
)
from ptgfv.dual import cotan_coefficients, nu_bound, solve_delta_k
from ptgfv.mesh import TriangleGeometry, generate_rhombus_equilateral
from ptgfv.solver import Solution, assemble, solve
from ptgfv.spaces import QUAD_POINTS, QUAD_WEIGHTS, interpolate_p0, local_gram_closed_form

from conftest import diagonal_square_mesh, equilateral_geometry, jittered_rhombus
from oracles import angles, indexed_geometry, interpolate_rt, random_triangle_min_angle

CASE = CASES["rhombus-sine"]
SQRT3 = math.sqrt(3.0)


def test_case_source_matches_five_point_laplacian():
    rng = np.random.default_rng(83)
    h = 1e-4
    for _ in range(100):
        s, t = rng.uniform(0.05, 0.95, size=2)
        x, y = s + 0.5 * t, t * SQRT3 / 2.0  # interior of the rhombus
        lap = (
            CASE.u(x + h, y)
            + CASE.u(x - h, y)
            + CASE.u(x, y + h)
            + CASE.u(x, y - h)
            - 4.0 * CASE.u(x, y)
        ) / h**2
        assert abs(lap + CASE.f(x, y)) <= 1e-5


def test_case_vanishes_on_boundary():
    s = np.linspace(0.0, 1.0, 57)
    sides = [
        (s, np.zeros_like(s)),                        # bottom
        (0.5 + s, np.full_like(s, SQRT3 / 2.0)),      # top
        (0.5 * s, s * SQRT3 / 2.0),                   # left
        (1.0 + 0.5 * s, s * SQRT3 / 2.0),             # right
    ]
    for x, y in sides:
        assert np.max(np.abs(CASE.u(x, y))) < 1e-12


def test_case_gradient_matches_finite_differences():
    rng = np.random.default_rng(89)
    h = 1e-6
    for _ in range(50):
        s, t = rng.uniform(0.05, 0.95, size=2)
        x, y = s + 0.5 * t, t * SQRT3 / 2.0
        gx, gy = CASE.grad_u(x, y)
        assert gx == pytest.approx((CASE.u(x + h, y) - CASE.u(x - h, y)) / (2 * h), abs=1e-6)
        assert gy == pytest.approx((CASE.u(x, y + h) - CASE.u(x, y - h)) / (2 * h), abs=1e-6)


def _solve_case(n, tol=1e-12):
    mesh = CASE.generator(n)
    coeffs = cotan_coefficients(mesh)
    f_t = interpolate_p0(CASE.f, mesh)
    return mesh, solve(assemble(mesh, coeffs, f_t), tol=tol)


def test_error_norms_decrease_with_refinement():
    mesh8, sol8 = _solve_case(8)
    mesh16, sol16 = _solve_case(16)
    e8 = error_norms(mesh8, sol8, CASE)
    e16 = error_norms(mesh16, sol16, CASE)
    assert all(v > 0.0 for v in e8)
    assert all(b < a for a, b in zip(e8, e16))


def test_error_norms_of_injected_exact_solution():
    # interpolated exact data: the scalar error is the projection error, O(h)
    errors = []
    for n in (8, 16):
        mesh = CASE.generator(n)
        injected = Solution(
            u=interpolate_p0(CASE.u, mesh),
            p=interpolate_rt(lambda x, y: CASE.grad_u(x, y), mesh),
            iterations=0,
            residual=0.0,
        )
        eu, ep, ediv = error_norms(mesh, injected, CASE)
        assert eu > 0.0
        errors.append(eu)
    assert errors[1] < 0.6 * errors[0]


def test_error_norms_zero_case():
    mesh = generate_rhombus_equilateral(4)
    zero_case = ManufacturedCase(
        name="zero",
        generator=generate_rhombus_equilateral,
        u=lambda x, y: np.zeros_like(x),
        f=lambda x, y: np.zeros_like(x),
        grad_u=lambda x, y: (np.zeros_like(x), np.zeros_like(y)),
    )
    coeffs = cotan_coefficients(mesh)
    solution = solve(assemble(mesh, coeffs, interpolate_p0(zero_case.f, mesh)))
    eu, ep, ediv = error_norms(mesh, solution, zero_case)
    assert max(eu, ep, ediv) <= 1e-12


def test_error_norms_take_scalar_values():
    mesh = jittered_rhombus(8, seed=2)
    f_t = interpolate_p0(lambda x, y: 1.0, mesh)
    solution = solve(assemble(mesh, cotan_coefficients(mesh), f_t))
    scalar = ManufacturedCase(
        name="scalar",
        generator=generate_rhombus_equilateral,
        u=lambda x, y: 1.0,
        f=lambda x, y: 1.0,
        grad_u=lambda x, y: (0.0, 0.0),
    )
    full = ManufacturedCase(
        name="full",
        generator=generate_rhombus_equilateral,
        u=lambda x, y: 0 * x + 1.0,
        f=lambda x, y: 0 * x + 1.0,
        grad_u=lambda x, y: (0 * x, 0 * y),
    )
    assert error_norms(mesh, solution, scalar) == error_norms(mesh, solution, full)


def test_default_exact_calls_u_grad_u_and_f():
    calls = []

    def field(name, value):
        def call(x, y):
            calls.append(name)
            return value(x, y)
        return call

    case = ManufacturedCase(
        name="traced",
        generator=generate_rhombus_equilateral,
        u=field("u", CASE.u),
        f=field("f", CASE.f),
        grad_u=field("grad_u", CASE.grad_u),
    )
    x, y = np.array([0.3, 0.9]), np.array([0.2, 0.4])
    u, ux, uy, f = case.exact(x, y)
    assert calls == ["u", "grad_u", "f"]
    assert np.array_equal(u, CASE.u(x, y))
    assert np.array_equal(np.stack([ux, uy]), np.stack(CASE.grad_u(x, y)))
    assert np.array_equal(f, CASE.f(x, y))


@pytest.mark.parametrize(
    "mesh",
    [generate_rhombus_equilateral(16), jittered_rhombus(16, seed=1)],
    ids=["equilateral", "jittered"],
)
def test_shared_trig_error_norms_are_bit_identical(mesh):
    # rhombus-sine's exact() shares four trig arrays among u, grad u and f;
    # a case built from the same three callables without it takes the
    # default path and must give the very same floats
    plain = ManufacturedCase(
        name="plain", generator=CASE.generator, u=CASE.u, f=CASE.f, grad_u=CASE.grad_u
    )
    f_t = interpolate_p0(CASE.f, mesh)
    solution = solve(assemble(mesh, cotan_coefficients(mesh), f_t), tol=1e-10)
    assert error_norms(mesh, solution, CASE) == error_norms(mesh, solution, plain)
    x = np.random.default_rng(3).uniform(size=(50, 7, 2))
    shared = CASE.exact(x[..., 0], x[..., 1])
    default = plain.exact(x[..., 0], x[..., 1])
    for a, b in zip(shared, default):
        assert np.array_equal(a, b)


def test_convergence_study_validation():
    with pytest.raises(ValueError, match="at least 2"):
        convergence_study(CASE, [8])
    with pytest.raises(ValueError, match="increasing"):
        convergence_study(CASE, [16, 8])


def test_convergence_study_two_coarse_levels():
    report = convergence_study(CASE, [4, 8])
    assert report.levels[0].h == pytest.approx(0.25, abs=1e-15)
    assert report.final_rate("combined") > 0.8
    assert report.final_rate("ep") > 0.8


def test_convergence_ecc_is_the_error_at_the_circumcenters():
    # (sum |K| (u_K - u(x_K))^2)^(1/2) with x_K from the index-list oracle
    mesh = jittered_rhombus(8, seed=4)
    case = dataclasses.replace(CASE, generator=lambda n: jittered_rhombus(8 * n, seed=4))
    level = convergence_study(case, [1, 2]).levels[0]
    solution = solve(assemble(mesh, cotan_coefficients(mesh), interpolate_p0(case.f, mesh)))
    x = indexed_geometry(mesh.vertices[mesh.triangles])["circumcenter"]
    exact = math.sqrt(sum(
        area * (u - case.u(cx, cy)) ** 2 for area, u, (cx, cy) in zip(mesh.areas, solution.u, x)
    ))
    assert level.ecc == pytest.approx(exact, rel=1e-12)


def test_lemma_suite_passes_and_reproducible():
    one = lemma_suite(samples=300, seed=42)
    assert one.all_passed
    assert one.max_energy_ratio < 1.0
    two = lemma_suite(samples=300, seed=42)
    assert one == two
    other = lemma_suite(samples=300, seed=43)
    assert other != one


def test_lemma_suite_single_sample():
    assert lemma_suite(samples=1, seed=42).all_passed
    with pytest.raises(ValueError):
        lemma_suite(samples=0)


def test_lemma_suite_full_size():
    report = lemma_suite(samples=10000, seed=42)
    assert report.all_passed
    assert report.max_energy_ratio < 1.0
    for check in report.checks:
        assert check.samples == 10000
        assert check.worst_slack >= 0.0
    # the closed form and the solve agree to round-off, so the check's
    # slack is at most its tolerance of 1e-12
    worst = {c.check: c.worst_slack for c in report.checks}
    assert worst["divergence-profile-closed-form"] <= 1e-12
    # the paper's constants 23 and 8942.4 leave these two checks 23x slack,
    # so no sample nears their edge: a band around the seed-42 worst slack
    # is what catches a loosened constant (23 -> 230, or nu -> 5 nu)
    assert worst["numerator-upper-bound"] == pytest.approx(22.012357, abs=1e-6)
    assert worst["divergence-profile-energy-bound"] == pytest.approx(0.957972, abs=1e-6)


def _all_slacks_pass(slacks):
    return all((slack >= 0.0).all() for slack in slacks.values())


def test_lemma_suite_on_given_triangles():
    slacks, energy_ratio = _lemma_slacks(
        TriangleGeometry.from_vertices(equilateral_geometry().vertices[None])
    )
    assert _all_slacks_pass(slacks)
    # on the equilateral the energy ratio is (128/3) / nu(pi/3)
    assert energy_ratio.max() == pytest.approx((128.0 / 3.0) / 993.6, rel=1e-9)


def test_lemma_suite_near_degenerate_triangle():
    theta = math.radians(5.01)
    apex = math.pi - 2.0 * theta
    geom = random_triangle_min_angle(np.random.default_rng(0), theta)
    skinny = [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.5, 0.5 * math.tan(theta)),
    ]  # isosceles with base angles 5.01 degrees
    slacks, _ = _lemma_slacks(TriangleGeometry.from_vertices([geom.vertices, skinny]))
    assert _all_slacks_pass(slacks)
    assert apex > math.pi / 2  # obtuse stress case exercised


def _needles(degrees: float) -> list:
    theta = math.radians(degrees)
    return [
        [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5 * math.tan(theta))],        # isosceles, base angles theta
        [(0.0, 0.0), (1.0, 0.0), (math.cos(theta), math.sin(theta))],  # isosceles, apex theta
        [(0.0, 0.0), (1.0, 0.0), (3.0 * math.cos(theta), 3.0 * math.sin(theta))],
    ]


GRAM_FAMILIES = {
    "sampled": lambda: random_triangles(SplitMix64(1), 10000).vertices,
    # a double smallest eigenvalue, 1/6, in every orientation and scale
    "right isosceles": lambda: [
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)],
        [(3.0, 1.0), (1.0, 3.0), (1.0, 1.0)],
        [(0.0, 0.0), (1e-3, 1e-3), (-1e-3, 1e-3)],
    ],
    "5 degree needles": lambda: _needles(5.0),
    # a double largest eigenvalue
    "equilateral": lambda: [equilateral_geometry().vertices, equilateral_geometry(7.0).vertices],
}


@pytest.mark.parametrize("family", GRAM_FAMILIES)
def test_closed_form_gram_kernels_match_lapack(family):
    # the lemma suite's closed forms against LAPACK, relative to the largest
    # eigenvalue; two eigenvalues meet on the right-isosceles and
    # equilateral families
    geom = TriangleGeometry.from_vertices(GRAM_FAMILIES[family]())
    gram = local_gram_closed_form(geom)
    diag = gram[..., [0, 1, 2], [0, 1, 2]].T
    upper = gram[..., [0, 1, 2], [1, 2, 0]].T
    eig = np.linalg.eigvalsh(gram)
    scale = eig[:, -1]
    lo, hi = _mass_spectrum(geom)
    assert np.max(np.abs(lo - eig[:, 0]) / scale) <= 1e-12
    assert np.max(np.abs(hi - eig[:, -1]) / scale) <= 1e-12
    det = np.linalg.det(gram)
    assert np.max(np.abs(_determinant(diag, upper) - det) / det) <= 1e-12


def test_mass_matrix_characteristic_polynomial():
    # the closed-form mass matrix on symbols, with the squared edge lengths
    # s_i, Heron's |K| and cot_i = (sigma^2 - 2 s_i) / (4|K|): its
    # characteristic polynomial is (lam - 3r/4)(lam^2 - 3r lam + 1/12), and
    # the quadratic's discriminant is the sum of squares _mass_spectrum takes
    sp = pytest.importorskip("sympy")
    squares = sp.symbols("s0:3", positive=True)
    sigma2 = sum(squares)
    area = sp.sqrt(2 * sum(a * b for a, b in zip(squares, squares[1:] + squares[:1]))
                   - sum(a * a for a in squares)) / 4
    cot = [(sigma2 - 2 * a) / (4 * area) for a in squares]
    ratio = sigma2 / (36 * area)
    geom = TriangleGeometry(vertices=None, area=area, edge_lengths=None,
                            cot=np.array(cot, dtype=object), ratio=ratio)
    # every float of the closed form is 1/6 or 3/4
    gram = sp.nsimplify(sp.Matrix(local_gram_closed_form(geom)))
    lam = sp.Symbol("lam")
    expected = (lam - 3 * ratio / 4) * (lam**2 - 3 * ratio * lam + sp.Rational(1, 12))
    assert sp.simplify(gram.charpoly(lam).as_expr() - sp.expand(expected)) == 0
    spread2 = sum((cot[i] - cot[j]) ** 2 for i, j in ((0, 1), (1, 2), (2, 0))) / 18
    assert sp.simplify(9 * ratio**2 - sp.Rational(1, 3) - spread2) == 0


def test_stability_on_equilateral_rhombus(rhombus4):
    report = stability_check(rhombus4, trials=100)
    assert report.bound_h1 == pytest.approx(0.4, rel=1e-12)
    assert report.h1_certified >= 0.4 - 1e-12
    # every triangle's pencil has the eigenvalue 1, and so does the mesh's
    assert report.h1_certified == pytest.approx(1.0, rel=0, abs=2e-12)
    assert report.h3_max_deviation <= 1e-12
    assert report.bound_h4 == pytest.approx(math.sqrt(nu_bound(math.pi / 3.0)), rel=1e-12)
    assert report.h4_max_ratio <= report.bound_h4
    # every triangle is congruent, so the divergence-energy ratio is constant
    assert report.h4_max_ratio == pytest.approx(math.sqrt(128.0 / 3.0), rel=1e-9)
    assert report.max_energy == pytest.approx(128.0 / 3.0, rel=1e-9)
    assert report.passed_h1 is True
    assert report.all_passed


@pytest.mark.parametrize("margin, passed", [(-1e-4, False), (1e-4, True)])
def test_h4_gate_flips_at_its_bound(rhombus4, monkeypatch, margin, passed):
    # nu patched so that bound_h4 sits just below or just above sqrt(max_energy)
    from ptgfv import analysis

    max_energy = stability_check(rhombus4, trials=1).max_energy
    monkeypatch.setattr(analysis, "nu_bound", lambda theta: max_energy * (1.0 + margin) ** 2)
    report = stability_check(rhombus4, trials=1)
    assert report.bound_h4 == pytest.approx(math.sqrt(max_energy) * (1.0 + margin), rel=1e-14)
    assert report.passed_h4 is passed
    assert report.all_passed is passed


def test_stability_on_nonuniform_admissible_mesh():
    # perturbed mesh: angle extrema straddle 60 degrees, bounds follow them
    from conftest import jittered_rhombus
    from ptgfv.mesh import quality_report

    mesh = jittered_rhombus(4, seed=33)
    quality = quality_report(mesh)
    assert quality.all_acute  # keeps the lower-bound constant positive
    assert quality.theta_max > math.pi / 3 > quality.theta_min
    report = stability_check(mesh, trials=50)
    expected_h1 = 0.4 * math.tan(quality.theta_min) / math.tan(quality.theta_max)
    assert report.bound_h1 == pytest.approx(expected_h1, rel=1e-12)
    assert report.all_passed
    assert report.h4_max_ratio <= math.sqrt(report.max_energy) * (1.0 + 1e-12)


def test_stability_check_reads_the_angles_of_its_own_mesh():
    # the jittered mesh is admissible but not acute (34.6/91.6 degrees), so
    # its h1 bound does not apply
    from ptgfv.mesh import quality_report

    mesh = jittered_rhombus(24, seed=1)
    quality = quality_report(mesh)
    checked = stability_check(mesh, trials=1)
    assert (checked.theta_min, checked.theta_max) == (quality.theta_min, quality.theta_max)
    assert math.degrees(checked.theta_min) == pytest.approx(34.6, abs=0.05)
    assert math.degrees(checked.theta_max) == pytest.approx(91.6, abs=0.05)
    assert checked.passed_h1 is None


def test_stability_h1_not_applicable_past_a_right_angle():
    # admissible, but one angle is 90.59 degrees: the paper's h1 bound is
    # negative there and would pass any ratio
    from conftest import jittered_rhombus
    from ptgfv.mesh import quality_report

    mesh = jittered_rhombus(24)
    quality = quality_report(mesh)
    assert quality.admissible and not quality.all_acute
    report = stability_check(mesh, trials=20)
    assert report.bound_h1 < 0.0
    assert report.passed_h1 is None
    cot = mesh.geometries.cot
    assert cot[report.theta_max_triangle].min() == cot.min()
    assert report.theta_max == quality.theta_max == math.atan2(1.0, cot.min())
    witness = angles(mesh.geometries[report.theta_max_triangle])
    assert witness.max() == pytest.approx(report.theta_max, rel=1e-15)
    assert math.degrees(report.theta_max) == pytest.approx(90.589, abs=1e-3)
    assert report.passed_h3 and report.passed_h4 and report.all_passed
    record = dataclasses.asdict(report)
    assert record["passed_h1"] is None
    assert record["theta_max_triangle"] == report.theta_max_triangle
    assert record["h1_certified"] == report.h1_certified > 0.0


def test_stability_h3_h4_are_exact_extrema():
    # the divergence-weighted ratios are weighted means of per-cell values,
    # so their suprema are per-cell extrema that no flux field exceeds
    from conftest import jittered_rhombus

    # h3 measures each mean against the mean of |delta|, the scale of its
    # round-off, so its ratio sums both over the cells
    mesh = jittered_rhombus(24)
    report = stability_check(mesh, trials=5)
    delta = solve_delta_k(mesh.geometries)
    values = delta.values_at(QUAD_POINTS)
    means = values @ QUAD_WEIGHTS
    scales = np.abs(values) @ QUAD_WEIGHTS
    assert report.h3_max_deviation == float((np.abs(means - 1.0) / scales).max())
    assert report.h4_max_ratio == math.sqrt(delta.energy.max())
    assert report.h4_max_ratio == pytest.approx(6.600, abs=1e-3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.standard_normal(mesh.num_edges)
        weight = (mesh.tri_signs * p[mesh.tri_edges]).sum(axis=1) ** 2 / mesh.areas
        h3 = abs(float(weight @ (means - 1.0))) / float(weight @ scales)
        h4 = math.sqrt(float(weight @ delta.energy) / weight.sum())
        assert h3 <= report.h3_max_deviation + 1e-15
        assert h4 <= report.h4_max_ratio * (1.0 + 1e-14)


def test_stability_rejects_inadmissible_mesh():
    with pytest.raises(ValueError, match="admissible"):
        stability_check(diagonal_square_mesh())


def test_stability_deterministic(rhombus4):
    a = stability_check(rhombus4, trials=20)
    b = stability_check(rhombus4, trials=20)
    assert a == b


def test_min_angle_sampler():
    rng = np.random.default_rng(97)
    for degrees in (20.0, 45.0, 60.0):
        theta = math.radians(degrees)
        for _ in range(50):
            geom = random_triangle_min_angle(rng, theta)
            assert angles(geom).min() >= theta - 1e-9
    with pytest.raises(ValueError):
        random_triangle_min_angle(rng, math.radians(61.0))
