"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantities when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from ptgfv.analysis import (
    CASES,
    circumcenter_edge_distances,
    convergence_study,
    stability_check,
)
from ptgfv.cli import main
from ptgfv.dual import (
    _profile_terms,
    cotan_coefficients,
    delta_energy_closed_form,
    nu_bound,
    solve_delta_k,
)
from ptgfv.mesh import Mesh, build_mesh, generate_rhombus_equilateral, write_mesh
from ptgfv.solver import assemble, discrete_gradient, solve
from ptgfv.spaces import divergence, interpolate_p0, local_gram_closed_form

from conftest import diagonal_square_mesh, equilateral_geometry, jittered_rhombus
from oracles import (
    angles,
    g_eval,
    geometry,
    integrate_interval,
    interval_rule,
    local_gram_quadrature,
    random_acute_triangle,
    random_triangle,
)

SQRT3 = math.sqrt(3.0)


def test_criterion_1_convergence_rate(capsys):
    # combined and flux-only observed orders >= 0.9 between the finest levels,
    # and the circumcenter error's order >= 1.8
    start = time.perf_counter()
    code = main(["convergence", "--case", "rhombus-sine", "--levels", "8,16,32,64"])
    elapsed = time.perf_counter() - start
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert code == 0
    assert elapsed <= 60.0
    combined_rate = float(rows[-1][6])
    ecc_rate = float(rows[-1][8])
    h_fine = [float(rows[-2][1]), float(rows[-1][1])]
    ep_fine = [float(rows[-2][3]), float(rows[-1][3])]
    ep_rate = math.log(ep_fine[0] / ep_fine[1]) / math.log(h_fine[0] / h_fine[1])
    assert combined_rate >= 0.9
    assert ep_rate >= 0.9
    assert ecc_rate >= 1.8
    print(
        f"ACCEPTANCE 1 convergence: PASS (combined rate {combined_rate:.3f}, "
        f"flux rate {ep_rate:.3f}, circumcenter rate {ecc_rate:.3f}, {elapsed:.1f}s)"
    )


def jittered_case(seed: int):
    """The rhombus-sine case on the jittered family of ``seed``."""
    return dataclasses.replace(
        CASES["rhombus-sine"], generator=lambda n: jittered_rhombus(n, seed=seed)
    )


@pytest.mark.parametrize("seed", range(1, 9))
def test_criterion_1_circumcenter_rate_on_jittered_meshes(seed):
    # the cell values are second-order accurate at the circumcenters on
    # non-uniform admissible meshes too
    report = convergence_study(jittered_case(seed), [8, 16, 32, 64])
    assert report.final_rate("ecc") >= 1.8
    assert report.final_rate("combined") >= 0.9


def centroid_coefficients(mesh):
    """The two-point coefficients d / |e| with d the distance between the
    centroids of the two cells (the centroid's distance to the edge on the
    boundary) in place of the circumcenters'."""
    edges = mesh.edges
    centroids = mesh.geometries.vertices.mean(axis=1)
    values = 2.0 * mesh.areas[edges.owner] / (3.0 * edges.length**2)
    internal = mesh.internal_edges
    d = centroids[edges.owner[internal]] - centroids[edges.neighbor[internal]]
    values[internal] = np.hypot(d[:, 0], d[:, 1]) / edges.length[internal]
    return values


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_circumcenter_gate_rejects_centroid_transmissibilities(monkeypatch, seed):
    # on the equilateral family centroids are circumcenters; on the jittered
    # family the centroid scheme's circumcenter error stalls below first
    # order on every pair, while its combined rate passes the first-order
    # gate up to n = 32
    monkeypatch.setattr(Mesh, "coefficients", property(centroid_coefficients))
    report = convergence_study(jittered_case(seed), [8, 16, 32, 64])
    assert max(report.rates("ecc")) < 1.8
    assert report.rates("combined")[1] >= 0.9


def test_criterion_2_scheme_equivalence():
    tol = 1e-12
    solved = []
    case = CASES["rhombus-sine"]
    mesh = generate_rhombus_equilateral(8)
    solved.append((mesh, interpolate_p0(case.f, mesh)))
    mesh1 = generate_rhombus_equilateral(1)
    solved.append((mesh1, np.ones(2)))
    jitter = jittered_rhombus(5, seed=31)
    rng = np.random.default_rng(101)
    solved.append((jitter, rng.uniform(-1.0, 1.0, jitter.num_triangles)))

    worst_balance = 0.0
    for mesh_i, f_t in solved:
        coeffs = cotan_coefficients(mesh_i)
        system = assemble(mesh_i, coeffs, f_t)
        solution = solve(system, tol=tol)
        cell = np.abs(
            mesh_i.areas * f_t + mesh_i.areas * divergence(mesh_i, solution.p)
        )
        bound = 10.0 * tol * float(np.linalg.norm(system.rhs))
        assert cell.max() <= bound
        worst_balance = max(worst_balance, cell.max() / bound)
        again = discrete_gradient(mesh_i, coeffs, solution.u)
        assert np.array_equal(solution.p, again)

    # cotangent coefficients equal the circumcenter-distance transmissibilities
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        geom = random_acute_triangle(rng)
        single = build_mesh(geom.vertices, [(0, 1, 2)])
        coeffs = cotan_coefficients(single)
        dist = circumcenter_edge_distances(geometry(single, 0))
        lengths = geometry(single, 0).edge_lengths
        for m in range(3):
            err = abs(coeffs[single.tri_edges[0, m]] - dist[m] / lengths[m])
            assert err <= 1e-11
            worst = max(worst, err)
    # internal edge: the coefficient is the sum of the two distance ratios
    coeffs = cotan_coefficients(jitter)
    for e in jitter.internal_edges:
        edge = jitter.edges[e]
        total = 0.0
        for t, local in ((edge.owner, edge.owner_local), (edge.neighbor, edge.neighbor_local)):
            geom = geometry(jitter, t)
            total += circumcenter_edge_distances(geom)[local] / geom.edge_lengths[local]
        assert coeffs[e] == pytest.approx(total, abs=1e-11)
    print(
        f"ACCEPTANCE 2 scheme equivalence: PASS "
        f"(balance at {worst_balance:.2e} of bound, circumcenter mismatch {worst:.2e})"
    )


def test_criterion_3_gram_closed_form():
    rng = np.random.default_rng(42)
    worst_entry = 0.0
    worst_trace = 0.0
    worst_det = 0.0
    for _ in range(1000):
        geom = random_triangle(rng)
        closed = local_gram_closed_form(geom)
        quad = local_gram_quadrature(geom)
        scale = float(np.abs(quad).max())
        entry = float(np.max(np.abs(closed - quad))) / scale
        assert entry <= 1e-11
        worst_entry = max(worst_entry, entry)
        ratio = geom.ratio
        trace_err = abs(float(np.trace(closed)) - 3.75 * ratio) / (3.75 * ratio)
        det_expected = ratio / 16.0
        det_err = abs(float(np.linalg.det(closed)) - det_expected) / det_expected
        assert trace_err <= 1e-10
        assert det_err <= 1e-10
        worst_trace = max(worst_trace, trace_err)
        worst_det = max(worst_det, det_err)
    print(
        f"ACCEPTANCE 3 mass-matrix closed form: PASS "
        f"(entry {worst_entry:.2e}, trace {worst_trace:.2e}, det {worst_det:.2e})"
    )


def test_criterion_4_eigenvalue_bounds():
    rng = np.random.default_rng(42)
    for _ in range(10000):
        geom = random_triangle(rng)
        theta = float(angles(geom).min())
        eig = np.linalg.eigvalsh(local_gram_closed_form(geom))
        assert eig.min() >= math.tan(theta) ** 2 / 48.0 - 1e-12
        assert eig.max() <= 5.0 / (4.0 * math.tan(theta)) + 1e-12
    eig = np.sort(np.linalg.eigvalsh(local_gram_closed_form(equilateral_geometry())))
    expected = np.array([1.0 / (4.0 * SQRT3), 1.0 / (2.0 * SQRT3), 1.0 / (2.0 * SQRT3)])
    assert np.max(np.abs(eig - expected)) <= 1e-12
    print("ACCEPTANCE 4 eigenvalue bounds: PASS (10000 triangles + equilateral spectrum)")


def test_criterion_5_divergence_profile_energy():
    # the equilateral value 128/3 is pinned by the least-squares oracle and
    # attains the lower bound D = (5/12) sigma2^2 with equality
    rng = np.random.default_rng(42)
    worst_match = 0.0
    for _ in range(1000):
        geom = random_triangle(rng)
        closed = delta_energy_closed_form(geom)
        energy = solve_delta_k(geom).energy
        err = abs(energy - closed) / closed
        assert err <= 1e-12
        worst_match = max(worst_match, err)
        assert energy <= nu_bound(float(angles(geom).min()))
        # D / sigma^4 and N / sigma^12 = k^2 B / sigma^4, k = 1 / (81 r^2)
        denominator, reduced = _profile_terms(geom)
        assert denominator >= (5.0 / 12.0) * (1.0 - 1e-12)
        assert reduced / (81.0 * geom.ratio**2) ** 2 <= 23.0
    equilateral_energy = solve_delta_k(equilateral_geometry()).energy
    assert equilateral_energy == pytest.approx(128.0 / 3.0, rel=1e-9)
    print(
        f"ACCEPTANCE 5 divergence-profile energy: PASS "
        f"(worst mismatch {worst_match:.2e}, equilateral I = {equilateral_energy:.12f})"
    )


def test_criterion_6_flux_profile():
    rule = interval_rule()
    mass = integrate_interval(rule, g_eval)
    second = integrate_interval(rule, lambda s: g_eval(s) * s * s)
    s = np.linspace(0.0, 1.0, 101)
    symmetry = float(np.max(np.abs(g_eval(s) - g_eval(1.0 - s))))
    assert abs(mass - 1.0) <= 1e-13
    assert abs(second) <= 1e-13
    assert g_eval(0.0) == 0.0
    assert symmetry <= 1e-13
    print(
        f"ACCEPTANCE 6 flux profile: PASS "
        f"(mass defect {abs(mass - 1.0):.1e}, second moment {abs(second):.1e}, "
        f"symmetry {symmetry:.1e})"
    )


def test_criterion_7_stability_hypotheses():
    mesh = generate_rhombus_equilateral(4)
    report = stability_check(mesh)
    assert report.h1_certified >= 0.4 - 1e-12
    assert report.h3_max_deviation <= 1e-12
    assert report.h4_max_ratio <= math.sqrt(nu_bound(math.pi / 3.0))
    print(
        f"ACCEPTANCE 7 stability hypotheses: PASS "
        f"(H1 certified {report.h1_certified:.4f} >= 0.4, H3 dev {report.h3_max_deviation:.2e}, "
        f"H4 max {report.h4_max_ratio:.4f} <= {report.bound_h4:.2f}, "
        f"observed max sqrt(I) = {math.sqrt(report.max_energy):.4f})"
    )


def test_criterion_8_uniqueness_and_degeneracy(tmp_path, capsys):
    mesh = generate_rhombus_equilateral(6)
    coeffs = cotan_coefficients(mesh)
    solution = solve(assemble(mesh, coeffs, np.zeros(mesh.num_triangles)))
    zero_norm = float(np.max(np.abs(solution.u))) if mesh.num_triangles else 0.0
    assert zero_norm <= 1e-12

    square = tmp_path / "cocircular.msh"
    square.write_text(write_mesh(diagonal_square_mesh()), encoding="utf-8")
    code = main(["solve", "--mesh", str(square), "--rhs-const", "1"])
    capsys.readouterr()
    assert code == 3
    print(
        f"ACCEPTANCE 8 uniqueness/degeneracy: PASS "
        f"(zero-source max |u| = {zero_norm:.1e}, cocircular mesh exit code 3)"
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    mesh_path = tmp_path / "mesh.msh"
    commands = [
        ["generate", "--n", "3", "--out", str(mesh_path)],
        ["mesh-info", str(mesh_path)],
        ["solve", "--mesh", str(mesh_path), "--case", "rhombus-sine",
         "--out", str(tmp_path / "sol.csv")],
        ["convergence", "--levels", "2,4", "--out", str(tmp_path / "rates.csv")],
        ["verify", "--samples", "50", "--seed", "42"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            code = main(list(argv))
            out = capsys.readouterr().out
            files = {}
            for name in ("mesh.msh", "sol.csv", "sol.csv.json", "rates.csv"):
                path = tmp_path / name
                if path.exists():
                    files[name] = path.read_bytes()
            runs.append((code, out, files))
        assert runs[0] == runs[1], f"nondeterministic output for {argv[0]}"
    print("ACCEPTANCE 9 determinism: PASS (5 commands byte-identical across reruns)")


def test_acceptance_summary_values():
    # spot values the criteria rely on, frozen from the verified derivations
    assert nu_bound(math.pi / 4.0) == pytest.approx(8942.4, rel=1e-12)
    assert 0.4 == pytest.approx(0.4 * math.tan(math.pi / 3.0) / math.tan(math.pi / 3.0))
    assert math.sqrt(128.0 / 3.0) == pytest.approx(6.5319726474218085, rel=1e-12)
