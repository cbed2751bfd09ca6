"""The h1 certificate of ``stability_check``: a proved lower bound on the h1
constant beta = min over flux fields p of sum(c_a p_a^2) / p^T M p.

Each triangle K takes the share c_a / n_a of the coefficient of each of its
edges, n_a the number of triangles on edge a, and lambda_K is the smallest
eigenvalue of the pencil (diag of the shares, M_K).  The package computes
it in closed form; LAPACK is used here only, as the reference.  The
reference solves the reciprocal pencil (M_K, shares) and inverts its largest
eigenvalue: a generalized ``eigh`` factors its second matrix, and M_K of a
sliver is too ill-conditioned for a Cholesky factor.  The shares are counted
here from the triangles' edge lists, not from the edges' neighbours.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg

from ptgfv.analysis import _h1_split_bound, stability_check
from ptgfv.mesh import MeshError, generate_rhombus_equilateral, quality_report, read_mesh
from ptgfv.spaces import local_gram_closed_form

from conftest import jittered_rhombus
from oracles import corner_geometry, h1_probe_reference
from test_cli import CORPUS


def _admissible_corpus():
    meshes = {}
    for name, text in sorted(CORPUS.items()):
        try:
            mesh = read_mesh(text)
        except MeshError:
            continue
        if quality_report(mesh).admissible:
            meshes[name] = text
    return meshes


ADMISSIBLE_CORPUS = _admissible_corpus()
JITTERED = {f"jittered {n}": n for n in (16, 24, 64)}


def _mesh(name):
    if name in JITTERED:
        return jittered_rhombus(JITTERED[name], seed=1)
    if name.startswith("equilateral "):
        return generate_rhombus_equilateral(int(name.split()[1]))
    return read_mesh(ADMISSIBLE_CORPUS[name])


def _shares(mesh) -> np.ndarray:
    """(nt, 3) share of each triangle in the coefficient of each of its edges."""
    counts = np.bincount(mesh.tri_edges.ravel(), minlength=mesh.num_edges)
    return (mesh.coefficients / counts)[mesh.tri_edges]


def _lapack_lambdas(geom, shares) -> np.ndarray:
    grams = local_gram_closed_form(geom)
    return np.array([
        1.0 / scipy.linalg.eigh(gram, np.diag(g), eigvals_only=True)[-1]
        for gram, g in zip(grams, shares)
    ])


def test_the_corpus_has_its_admissible_meshes():
    # slivers down to an apex of 1e-10, needles, the scaled triangle, the
    # reader's canonical jittered mesh and a clockwise jittered one
    assert len(ADMISSIBLE_CORPUS) == 13
    assert sum(name.startswith("sliver") for name in ADMISSIBLE_CORPUS) == 7


@pytest.mark.parametrize("name", [*JITTERED, *ADMISSIBLE_CORPUS])
def test_each_lambda_matches_lapack(name):
    mesh = _mesh(name)
    shares = _shares(mesh)
    reference = _lapack_lambdas(mesh.geometries, shares)
    lam = _h1_split_bound(mesh.geometries, shares)
    np.testing.assert_allclose(lam, reference, rtol=1e-13, atol=0)
    report = stability_check(mesh)
    assert report.h1_certified == pytest.approx((1.0 - 1e-12) * reference.min(), rel=1e-13, abs=0)
    assert reference[report.h1_certified_triangle] <= reference.min() * (1.0 + 1e-13)


def test_lambda_on_the_24_right_triangles():
    # every ordered right triangle on the corners of the unit square: the
    # right angle's cotangent is a signed zero, and with equal shares the
    # pencil's smallest eigenvalue is 1 over the mass matrix's largest
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    geom = corner_geometry(square[list(itertools.permutations(range(4), 3))])
    assert len(geom.cot) == 24
    rng = np.random.default_rng(3)
    for shares in (np.ones((24, 3)), rng.uniform(0.05, 2.0, size=(24, 3))):
        reference = _lapack_lambdas(geom, shares)
        np.testing.assert_allclose(_h1_split_bound(geom, shares), reference, rtol=1e-13, atol=0)


def _exact_beta(mesh) -> float:
    """beta by a dense generalized ``eigh`` of the assembled pencil, again
    through the reciprocal of the largest eigenvalue of (M, diag(c))."""
    grams = local_gram_closed_form(mesh.geometries)
    signs = mesh.tri_signs
    mass = np.zeros((mesh.num_edges, mesh.num_edges))
    for i, j in itertools.product(range(3), repeat=2):
        np.add.at(mass, (mesh.tri_edges[:, i], mesh.tri_edges[:, j]),
                  signs[:, i] * signs[:, j] * grams[:, i, j])
    top = mesh.num_edges - 1
    largest = scipy.linalg.eigh(mass, np.diag(mesh.coefficients), eigvals_only=True,
                                subset_by_index=[top, top])[0]
    return 1.0 / largest


SMALL = ["equilateral 4", "equilateral 8", "jittered 16", "jittered 24", *ADMISSIBLE_CORPUS]


@pytest.mark.parametrize("name", SMALL)
def test_certificate_is_below_the_exact_constant_and_every_field(name):
    # the h1 gate's check: an inflated certificate, or one without the edge
    # split, passes beta; the split keeps within 6% of beta (5.4% on the
    # jittered n=16 mesh, equality on a one-triangle mesh), so a deflated
    # one fails too.  Every sampled field bounds beta from above: on the
    # 1e-10 sliver, the 20 fields' smallest ratio is 2.6e-4 and beta 1.5e-20
    mesh = _mesh(name)
    certified = stability_check(mesh).h1_certified
    beta = _exact_beta(mesh)
    assert 0.94 * beta <= certified <= beta
    assert beta <= h1_probe_reference(mesh, trials=20, seed=42) * (1.0 + 1e-12)


@pytest.mark.parametrize("n, expected", [(None, 1.000), (16, 0.359), (24, 0.309), (64, 0.374)])
def test_certificate_matches_the_table(n, expected):
    # equilateral n=32, then jittered_rhombus(n, seed=1), where beta is
    # 1.000, 0.379, 0.318 and 0.381; the last two meshes are past 90 degrees
    mesh = generate_rhombus_equilateral(32) if n is None else jittered_rhombus(n, seed=1)
    report = stability_check(mesh)
    assert report.h1_certified == pytest.approx(expected, abs=5e-4)
    assert report.passed_h1 is (True if n in (None, 16) else None)
