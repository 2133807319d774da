"""Cone state spaces and cone-preserving numerics for multifactor square-root models."""

import os

# The forked workers of scheme.forked_map are the one level of parallelism.
# OpenBLAS reads this only when its library loads, through numpy in the imports
# below.  Unpinned, numpy's and SciPy's pools each start a thread that spins for
# 0.1-0.15 s of CPU although no product of the presets is large enough to use
# it (pde-conv CPU time 2.10 -> 1.64 s at the same wall time), and each forked
# worker starts a pool of its own (a 40-factor simulate of 20 000 paths took
# 1.26-1.69 s unpinned, 0.67 s pinned, on 2 vCPUs).  A caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
from .oracle import mean_oracle
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
