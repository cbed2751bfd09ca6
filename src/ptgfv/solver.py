"""Cell-centered four-point solver for the Poisson problem.

The discrete gradient divides the jump of the scalar unknown across each
edge by the edge's coupling coefficient; a homogeneous (or prescribed)
boundary trace enters the boundary edges the same way.  Eliminating the
fluxes leaves a symmetric positive definite system on the cell values, one
row per triangle: diagonal = sum of inverse coefficients over the triangle's
edges, off-diagonal = -1/coefficient towards each internal neighbor, right
hand side = cell integral of the source plus the boundary-trace
contributions.  The solve is a deterministic Jacobi-preconditioned conjugate
gradient, after which the flux is recovered through the discrete gradient.
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
    """Conjugate gradient hit the iteration cap; carries the residual history."""

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


def _pcg(matrix: csr_matrix, rhs: np.ndarray, tol: float, max_iter: int):
    """Jacobi-preconditioned CG with a fixed, serial update order.

    Convergence is tested on the recursive residual, then confirmed against
    the true residual b - A x (the recursive one drifts below machine
    precision on long runs); on disagreement the iteration restarts from the
    true residual, so the returned value is always the true relative one.
    """
    n = len(rhs)
    norm_rhs = float(np.linalg.norm(rhs))
    x = np.zeros(n)
    history: list[float] = []
    if norm_rhs == 0.0:
        return x, 0, 0.0, history
    precond = matrix.diagonal()
    r = rhs.copy()
    z = r / precond
    p = z.copy()
    rz = float(r @ z)
    k = 0
    while k < max_iter:
        k += 1
        q = matrix @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rel = float(np.linalg.norm(r)) / norm_rhs
        history.append(rel)
        if rel <= tol:
            true_r = rhs - matrix @ x
            true_rel = float(np.linalg.norm(true_r)) / norm_rhs
            if true_rel <= tol:
                return x, k, true_rel, history
            r = true_r
            z = r / precond
            p = z.copy()
            rz = float(r @ z)
            continue
        z = r / precond
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    last = history[-1] if history else 1.0
    raise ConvergenceError(
        f"conjugate gradient did not reach {tol} in {max_iter} iterations "
        f"(residual {last:.3e})",
        history,
    )


def solve(system: SparseSystem, tol: float = 1e-12, max_iter: int | None = None) -> Solution:
    """Solve the assembled system and recover the flux field.

    The reported residual is the true relative one, so tolerances below
    what the system's conditioning allows end in :class:`ConvergenceError`
    rather than a false success.
    """
    if max_iter is None:
        max_iter = 10 * system.matrix.shape[0] + 100
    x, iterations, residual, history = _pcg(system.matrix, system.rhs, tol, max_iter)
    u = P0Field(x)
    p = discrete_gradient(system.mesh, system.coeffs, u, system.bc)
    return Solution(u=u, p=p, iterations=iterations, residual=residual, residual_history=history)


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
