"""Cone state spaces and cone-preserving numerics for multifactor square-root models."""

from .admissible import (
    AdmissibilityReport,
    AdmissibleMatrix,
    build_canonical,
    build_q2,
    build_q3,
    canonical_inverse,
    check_admissible,
    q3_bounds,
    q3_defaults,
)
from .cone import (
    ConeDomain,
    canonical_anchor,
    contains,
    original,
    transformed,
)
from .model import DriftSystem, ModelParams, TransformedDynamics, kernel_eval, load_params
from .pde import (
    PdeProblem,
    SolveReport,
    convergence_study,
    manufactured_solution,
    observed_orders,
    residual_check,
    solve,
    source_term,
)
from .scheme import (
    PathConfig,
    SampleCloud,
    ThreePointLaw,
    mean_oracle,
    simulate,
    three_point_law,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "AdmissibleMatrix",
    "ConeDomain",
    "DriftSystem",
    "ModelParams",
    "PathConfig",
    "PdeProblem",
    "SampleCloud",
    "SolveReport",
    "ThreePointLaw",
    "TransformedDynamics",
    "build_canonical",
    "build_q2",
    "build_q3",
    "canonical_anchor",
    "canonical_inverse",
    "check_admissible",
    "contains",
    "convergence_study",
    "kernel_eval",
    "load_params",
    "manufactured_solution",
    "mean_oracle",
    "observed_orders",
    "original",
    "q3_bounds",
    "q3_defaults",
    "residual_check",
    "simulate",
    "solve",
    "source_term",
    "three_point_law",
    "transformed",
]
