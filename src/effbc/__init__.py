"""effbc: a numerical laboratory for effective boundary conditions.

Computes far-field limits of periodic-data half-space problems for
divergence form elliptic operators (linear systems and monotone
nonlinear equations), characterizes directional limits at rational
directions through a reduced half-space problem for the homogenized
operator, and measures the continuity (linear) or discontinuity
(nonlinear) of the resulting effective Dirichlet data.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EffbcError,
    InvalidDirectionError,
    InvalidMeshError,
    NonConvergedError,
    OperatorInvalidError,
    SolverFailureError,
)
from .fields import (
    LinearTensorField,
    PeriodicFieldExpr,
    constant_field,
    cosine_field,
    evaluate_field,
    identity_tensor,
    isotropic_tensor,
    laminate_tensor,
    make_field,
    validate_tensor,
)
from .grid import StripGrid, TorusGrid, build_strip_grid, planar_strip_grid
from .homogenize import (
    HomogenizedTensor,
    constant_tensor,
    epsilon_refinement_study,
    homogenize_linear,
)
from .lattice import (
    DiophantineApprox,
    DirectionalApproach,
    RationalDirection,
    brute_force_approximate,
    decompose_direction,
    dirichlet_approximate,
    make_rational_direction,
    parse_direction,
)
from .layers import (
    BoundaryLayerResult,
    ShiftProfile,
    boundary_layer_limit,
    fit_decay,
    shift_profile,
)
from .operators import (
    DirectMap,
    KinkPotential2D,
    QuadraticPotential,
    ReducedRootKink,
    RootKinkOperator,
    validate_operator,
)
from .second_cell import (
    DirectionalLimit,
    GapCertificate,
    SweepReport,
    continuity_sweep,
    directional_limit,
    effective_operator,
    eta_independence_check,
    gap_certificate,
    predict_phi_star,
    reduce_tensor,
    reduced_kink_residual,
    subsolution_residual,
)
from .solve import (
    StripProblem,
    StripSolution,
    discrete_residual,
    solve_linear,
    solve_nonlinear,
    solve_strip,
)
