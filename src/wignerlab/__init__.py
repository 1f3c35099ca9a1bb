"""Solver library and experiment harness for the one-dimensional stationary
Wigner boundary-value problem with inflow boundary conditions.

The package implements two discretizations of the nonlocal velocity
coupling: the singular form (divide the convolution by v) and a
regularized form that subtracts the conserved kernel moment before
dividing, which stays uniformly bounded as the velocity mesh is refined.
"""

from .bvp_solver import (BoundaryConditions, SpatialMesh, WignerSolution,
                         assemble_system, solve, solve_bvp, solution_to_csv)
from .diagnostics import (ExperimentReport, constraint_residual,
                          convergence_order, l2_error)
from .errors import (ConfigurationError, ContractError, ResourceError,
                     SolverError, WignerlabError)
from .operators import (VelocityMesh, WignerKernel, apply_A, apply_B,
                        apply_theta, build_theta_kernel, operator_norm)
from .potential import PotentialProfile, barrier_profile, potential_difference
from .wigner_potential import QuadratureSpec

__version__ = "0.1.0"

__all__ = [
    "BoundaryConditions", "SpatialMesh", "WignerSolution", "assemble_system",
    "solve", "solve_bvp", "solution_to_csv",
    "ExperimentReport", "constraint_residual", "convergence_order", "l2_error",
    "ConfigurationError", "ContractError", "ResourceError", "SolverError",
    "WignerlabError",
    "VelocityMesh", "WignerKernel", "apply_A", "apply_B", "apply_theta",
    "build_theta_kernel", "operator_norm",
    "PotentialProfile", "barrier_profile", "potential_difference",
    "QuadratureSpec",
    "__version__",
]
