"""Cell-centered four-point finite volume discretization of the Poisson
problem on triangular meshes, with flux reconstruction in the lowest-order
H(div)-conforming space and a verification suite for the closed-form
geometric identities and stability constants behind the scheme.
"""

from .analysis import (
    CASES,
    CheckResult,
    ConvergenceLevel,
    ConvergenceReport,
    LemmaSuiteReport,
    ManufacturedCase,
    StabilityReport,
    convergence_study,
    error_norms,
    lemma_suite,
    stability_check,
)
from .dual import (
    DeltaK,
    cotan_coefficients,
    delta_energy_closed_form,
    nu_bound,
    solve_delta_k,
)
from .mesh import (
    Mesh,
    MeshError,
    MeshFormatError,
    MeshQualityReport,
    TriangleGeometry,
    build_mesh,
    generate_rhombus_equilateral,
    quality_report,
    read_mesh,
    write_mesh,
)
from .solver import (
    ConvergenceError,
    DirichletData,
    FluxBalanceReport,
    Solution,
    SparseSystem,
    assemble,
    discrete_gradient,
    flux_balance_check,
    solve,
)
from .spaces import (
    divergence,
    interpolate_p0,
    local_gram_closed_form,
)

__version__ = "0.1.0"
