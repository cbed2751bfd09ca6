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

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .dual import DualCoefficients
from .mesh import Mesh
from .spaces import P0Field, RTField, divergence

__all__ = [
    "DirichletData",
    "SparseSystem",
    "Solution",
    "FluxBalanceReport",
    "ConvergenceError",
    "discrete_gradient",
    "assemble",
    "solve",
    "flux_balance_check",
]

# Coefficients this close to zero count as zero (a cocircular edge pair gives
# an exact zero only up to the rounding of the two cotangents).
COEFF_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """The solve stagnated above the tolerance; carries the residual history."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


@dataclass
class DirichletData:
    """Boundary trace means, one value per boundary edge (aligned with
    ``mesh.boundary_edges``); all zeros in the model problem."""

    values: np.ndarray

    @classmethod
    def zero(cls, mesh: Mesh) -> "DirichletData":
        return cls(np.zeros(len(mesh.boundary_edges)))

    def check(self, mesh: Mesh) -> None:
        if len(self.values) != len(mesh.boundary_edges):
            raise ValueError("boundary data length does not match the boundary edge count")


def discrete_gradient(
    mesh: Mesh,
    coeffs: DualCoefficients,
    u: P0Field,
    bc: DirichletData | None = None,
) -> RTField:
    """Edge fluxes of the discrete gradient of a cell field.

    Internal edge (owner K, neighbor L): (u_L - u_K) / c; boundary edge:
    (trace - u_K) / c.  Requires every coefficient to be nonzero.
    """
    u.check(mesh)
    bc = bc or DirichletData.zero(mesh)
    bc.check(mesh)
    zero = np.flatnonzero(np.abs(coeffs.values) < COEFF_TOL)
    if zero.size:
        raise ValueError(f"zero coupling coefficient on edge {int(zero[0])}")
    far = np.empty(mesh.num_edges)
    internal = mesh.internal_edges
    far[internal] = u.values[mesh.edges.neighbor[internal]]
    far[mesh.boundary_edges] = bc.values
    fluxes = (far - u.values[mesh.edges.owner]) / coeffs.values
    return RTField(fluxes)


@dataclass
class SparseSystem:
    """Assembled SPD system together with the data needed to recover fluxes."""

    matrix: csr_matrix
    rhs: np.ndarray
    mesh: Mesh
    coeffs: DualCoefficients
    bc: DirichletData


def assemble(
    mesh: Mesh,
    coeffs: DualCoefficients,
    f_t: P0Field,
    bc: DirichletData | None = None,
) -> SparseSystem:
    """Assemble the cell-centered system A u = b.

    Refuses meshes with a non-positive coupling coefficient anywhere, since
    positivity is what guarantees a unique solution.
    """
    f_t.check(mesh)
    bc = bc or DirichletData.zero(mesh)
    bc.check(mesh)
    bad = np.flatnonzero(coeffs.values < COEFF_TOL)
    if bad.size:
        raise ValueError(
            f"non-positive coupling coefficient on edge {int(bad[0])}; "
            "the mesh fails the angle conditions"
        )
    nt = mesh.num_triangles
    w = 1.0 / coeffs.values
    owner, neighbor = mesh.edges.owner, mesh.edges.neighbor
    boundary = mesh.boundary_edges
    rhs = mesh.areas * f_t.values
    np.add.at(rhs, owner[boundary], bc.values * w[boundary])
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

    u: P0Field
    p: RTField
    iterations: int
    residual: float
    residual_history: list[float] = field(default_factory=list, repr=False)


def solve(system: SparseSystem, tol: float = 1e-12) -> Solution:
    """Solve the assembled system by sparse LU and recover the flux field.

    ``tol`` bounds the true relative residual |b - A x| / |b|.  When the
    first solve misses it, one step of iterative refinement follows; if the
    residual is still above ``tol`` the system's conditioning floor lies
    above it, and :class:`ConvergenceError` names the floor reached rather
    than returning a false success.  ``Solution.iterations`` counts the LU
    solves: 1, 2 after refinement, 0 for a zero right-hand side.
    """
    # imported here because it costs memory and start-up time that commands
    # which never solve (verify, mesh-info) should not pay
    from scipy.sparse.linalg import splu

    matrix, rhs = system.matrix, system.rhs
    norm_rhs = float(np.linalg.norm(rhs))
    x = np.zeros(len(rhs))
    history: list[float] = []
    if norm_rhs > 0.0:
        lu = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        x = lu.solve(rhs)
        r = rhs - matrix @ x
        history.append(float(np.linalg.norm(r)) / norm_rhs)
        if history[-1] > tol:
            x += lu.solve(r)
            history.append(float(np.linalg.norm(rhs - matrix @ x)) / norm_rhs)
        if history[-1] > tol:
            raise ConvergenceError(
                f"direct solve did not reach {tol}: stagnated at the floor "
                f"{history[-1]:.3e} after one refinement step",
                history,
            )
    u = P0Field(x)
    p = discrete_gradient(system.mesh, system.coeffs, u, system.bc)
    residual = history[-1] if history else 0.0
    return Solution(u=u, p=p, iterations=len(history), residual=residual, residual_history=history)


@dataclass
class FluxBalanceReport:
    """Conservation diagnostics of a solved system."""

    cell_residuals: np.ndarray      # |K| * (f_K + div(p)_K) per triangle
    max_cell_residual: float
    global_imbalance: float         # sum(|K| f_K) + sum(boundary fluxes)

    def passes(self, threshold: float) -> bool:
        return self.max_cell_residual <= threshold


def flux_balance_check(mesh: Mesh, solution: Solution, f_t: P0Field) -> FluxBalanceReport:
    """Per-cell balance between the source and the recovered flux divergence,
    plus the global flux/source budget over the boundary."""
    div = divergence(mesh, solution.p)
    cell = mesh.areas * (f_t.values + div.values)
    boundary_flux = float(np.sum(solution.p.values[mesh.boundary_edges]))
    return FluxBalanceReport(
        cell_residuals=cell,
        max_cell_residual=float(np.max(np.abs(cell))),
        global_imbalance=float(np.sum(mesh.areas * f_t.values) + boundary_flux),
    )
