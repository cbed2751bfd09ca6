"""Cell-centered four-point solver for the Poisson problem.

The discrete gradient divides the jump of the scalar unknown across each
edge by the edge's coupling coefficient; a homogeneous (or prescribed)
boundary trace enters the boundary edges the same way.  Eliminating the
fluxes leaves a symmetric positive definite system on the cell values, one
row per triangle: diagonal = sum of inverse coefficients over the triangle's
edges, off-diagonal = -1/coefficient towards each internal neighbor, right
hand side = cell integral of the source plus the boundary-trace
contributions.  The solve is one sparse LU factorisation (SuperLU) with at
most one step of iterative refinement, after which the flux is recovered
through the discrete gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .mesh import COEFF_TOL, Mesh
from .spaces import _check_cells, _check_length, divergence

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = [
    "SparseSystem",
    "Solution",
    "FluxBalanceReport",
    "ConvergenceError",
    "discrete_gradient",
    "assemble",
    "solve",
    "flux_balance_check",
]

# Columns SuperLU factors as one panel.  The panel workspace takes about 16
# bytes per panel column per cell: 10 MB at n=128 for SuperLU's default of
# 20, which spills out of cache.  One column per panel keeps the ordering and
# the L+U fill, so the solution moves by round-off only, and factors in about
# a third less time at n=64..256 (README.md, *Linear solver*).
PANEL_SIZE = 1

# Smallest normal float: a right-hand side whose entries all lie below it
# carries fewer significant digits than the solve needs.
TINY = np.finfo(float).tiny


class ConvergenceError(RuntimeError):
    """The solve stagnated above the tolerance, or its right-hand side has no
    digits to solve for; the message names the floor or the entry."""


def _trace(mesh: Mesh, bc: np.ndarray | None) -> np.ndarray:
    """The boundary trace ``bc``, one mean per boundary edge in the order of
    ``mesh.boundary_edges``; None is the zero trace of the model problem."""
    if bc is None:
        return np.zeros(len(mesh.boundary_edges))
    _check_length(bc, len(mesh.boundary_edges), "boundary data", "boundary edge")
    return bc


# The benchmark's binding: perfbench/workloads.py builds its zero trace as
# ``solver.DirichletData.zero(mesh)`` (tests/test_api.py runs the
# benchmark's toy workloads).  It is no type, and it goes when the benchmark
# builds the array itself (ROADMAP item 1).
DirichletData = SimpleNamespace(zero=lambda mesh: _trace(mesh, None))


def _check_coefficients(mesh: Mesh, coeffs: np.ndarray) -> None:
    """Refuse coefficients that are not one finite number >= COEFF_TOL per
    edge: ``quality_report``'s rule, and no inf, which drops its edge."""
    _check_length(coeffs, mesh.num_edges, "coefficient array", "edge")
    bad = np.flatnonzero(~((coeffs >= COEFF_TOL) & np.isfinite(coeffs)))
    if bad.size:
        raise ValueError(
            f"non-positive or non-finite coupling coefficient on edge {int(bad[0])}; "
            "the mesh fails the angle conditions"
        )


def discrete_gradient(
    mesh: Mesh,
    coeffs: np.ndarray,
    u: np.ndarray,
    bc: np.ndarray | None = None,
) -> np.ndarray:
    """Edge fluxes of the discrete gradient of the cell values ``u``.

    Internal edge (owner K, neighbor L): (u_L - u_K) / c; boundary edge:
    (bc - u_K) / c, with ``bc`` the boundary trace (None: zero).  Refuses
    the coefficients that ``assemble`` refuses.
    """
    _check_coefficients(mesh, coeffs)
    _check_cells(mesh, u)
    bc = _trace(mesh, bc)
    far = np.empty(mesh.num_edges)
    internal = mesh.internal_edges
    far[internal] = u[mesh.edges.neighbor[internal]]
    far[mesh.boundary_edges] = bc
    return (far - u[mesh.edges.owner]) / coeffs


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of ``v``, taken of ``v`` divided by a power of two
    near max|v|: squared entries below about 1e-154 underflow to zero.  The
    scaling is exact, so this equals ``np.linalg.norm(v)`` wherever that
    neither underflows nor overflows."""
    scale = math.ldexp(1.0, math.frexp(float(np.abs(v).max(initial=0.0)))[1])
    return scale * float(np.linalg.norm(v / scale))


@dataclass
class SparseSystem:
    """Assembled SPD system together with the data needed to recover fluxes."""

    matrix: csr_matrix
    rhs: np.ndarray
    mesh: Mesh
    coeffs: np.ndarray
    bc: np.ndarray  # boundary trace, one mean per boundary edge

    @property
    def rhs_norm(self) -> float:
        """Euclidean norm of the right-hand side, free of underflow."""
        return _norm(self.rhs)


def assemble(
    mesh: Mesh,
    coeffs: np.ndarray,
    f_t: np.ndarray,
    bc: np.ndarray | None = None,
) -> SparseSystem:
    """Assemble the cell-centered system A u = b for the cell source means
    ``f_t`` and the boundary trace ``bc`` (None: zero).

    Refuses a NaN or inf coefficient and any below COEFF_TOL (the edges that
    ``quality_report`` flags), since positivity guarantees a unique solution.
    """
    # scipy is imported by the functions that use it, not by the module:
    # loading scipy.sparse costs about 20 MB and 0.2 s, which commands that
    # never assemble (generate, mesh-info, verify) should not pay
    from scipy.sparse import csr_matrix

    _check_coefficients(mesh, coeffs)
    _check_cells(mesh, f_t)
    bc = _trace(mesh, bc)
    nt = mesh.num_triangles
    w = 1.0 / coeffs
    owner, neighbor = mesh.edges.owner, mesh.edges.neighbor
    boundary = mesh.boundary_edges
    # a product past the largest float is an inf entry, which ``solve`` names
    with np.errstate(over="ignore"):
        rhs = mesh.areas * f_t
    np.add.at(rhs, owner[boundary], bc * w[boundary])
    # the diagonal sums 1/c over each triangle's edges; the owner and
    # neighbor entries are interleaved in edge order so that every row adds
    # its terms in the same order as an edge-by-edge loop
    pairs = np.stack([owner, neighbor], axis=-1).ravel()
    weights = np.repeat(w, 2)
    present = pairs >= 0
    diag = np.bincount(pairs[present], weights[present], minlength=nt)
    internal = mesh.internal_edges
    couple = np.stack([owner[internal], neighbor[internal]], axis=-1)
    rows = np.concatenate([couple.ravel(), np.arange(nt)])
    cols = np.concatenate([couple[:, ::-1].ravel(), np.arange(nt)])
    vals = np.concatenate([np.repeat(-w[internal], 2), diag])
    matrix = csr_matrix((vals, (rows, cols)), shape=(nt, nt))
    return SparseSystem(matrix=matrix, rhs=rhs, mesh=mesh, coeffs=coeffs, bc=bc)


@dataclass
class Solution:
    """Cell values, recovered edge fluxes and solver diagnostics."""

    u: np.ndarray   # one value per triangle
    p: np.ndarray   # one flux per edge, against the canonical edge normal
    iterations: int
    residual: float
    residual_history: list[float] = field(default_factory=list, repr=False)


def solve(system: SparseSystem, tol: float = 1e-12) -> Solution:
    """Solve the assembled system by sparse LU and recover the flux field.

    ``tol`` bounds the true relative residual |b - A x| / |b|.  When the
    first solve misses it, one step of iterative refinement follows; if the
    residual is still above ``tol`` the system's conditioning floor lies
    above it, and :class:`ConvergenceError` names the floor reached rather
    than returning a false success.  A right-hand side with an inf or NaN
    entry is named by its first such cell.  A nonzero right-hand side whose
    largest entry is below the smallest normal float has lost its digits to
    underflow, and the error names it instead of a floor (from that cut up,
    rounding a subnormal entry is round-off relative to |b|).
    ``Solution.iterations`` counts the LU
    solves: 1, 2 after refinement, 0 for a zero right-hand side.
    """
    # imported here for the reason given in ``assemble``
    from scipy.sparse.linalg import splu

    matrix, rhs = system.matrix, system.rhs
    x = np.zeros(len(rhs))
    history: list[float] = []
    bad = np.flatnonzero(~np.isfinite(rhs))
    if bad.size:
        t = int(bad[0])
        raise ConvergenceError(f"non-finite right-hand side: b = {float(rhs[t])} in cell {t}")
    if np.any(rhs):
        peak = float(np.abs(rhs).max())
        if peak < TINY:
            raise ConvergenceError(
                f"subnormal right-hand side: max |b| = {peak:.3e} is below the "
                f"smallest normal float {TINY:.3e}, so its entries have lost their digits"
            )
        norm_rhs = system.rhs_norm
        # the matrix is exactly symmetric, so its transpose, a CSC view of
        # the CSR arrays, is the matrix itself without a tocsc() copy
        lu = splu(
            matrix.T,
            permc_spec="MMD_AT_PLUS_A",
            panel_size=PANEL_SIZE,
            options={"SymmetricMode": True},
        )
        x = lu.solve(rhs)
        r = rhs - matrix @ x
        history.append(_norm(r) / norm_rhs)
        # a NaN residual is not converged
        if not history[-1] <= tol:
            x += lu.solve(r)
            history.append(_norm(rhs - matrix @ x) / norm_rhs)
        if not history[-1] <= tol:
            raise ConvergenceError(
                f"direct solve did not reach {tol}: stagnated at the floor "
                f"{history[-1]:.3e} after one refinement step"
            )
    p = discrete_gradient(system.mesh, system.coeffs, x, system.bc)
    residual = history[-1] if history else 0.0
    return Solution(u=x, p=p, iterations=len(history), residual=residual, residual_history=history)


@dataclass
class FluxBalanceReport:
    """Conservation diagnostics of a solved system."""

    cell_residuals: np.ndarray      # |K| * (f_K + div(p)_K) per triangle
    max_cell_residual: float
    global_imbalance: float         # sum(|K| f_K) + sum(boundary fluxes)

    def passes(self, threshold: float) -> bool:
        return self.max_cell_residual <= threshold


def flux_balance_check(mesh: Mesh, solution: Solution, f_t: np.ndarray) -> FluxBalanceReport:
    """Per-cell balance between the source means ``f_t`` and the recovered
    flux divergence, plus the global flux/source budget over the boundary."""
    _check_cells(mesh, f_t)
    div = divergence(mesh, solution.p)
    cell = mesh.areas * (f_t + div)
    boundary_flux = float(np.sum(solution.p[mesh.boundary_edges]))
    return FluxBalanceReport(
        cell_residuals=cell,
        max_cell_residual=float(np.max(np.abs(cell))),
        global_imbalance=float(np.sum(mesh.areas * f_t) + boundary_flux),
    )
