"""Backward pricing PDE in transformed coordinates with a manufactured solution.

The PDE is posed on a truncated box in the transformed space where the true
state domain is the non-negative orthant.  A quadratic-in-space, linear-in-
time exact solution is imposed through a fabricated source term and through
Dirichlet data on the box boundary, so the discretization error is directly
measurable.  Boxes that keep the last coordinate non-negative give a
parabolic problem and second-order convergence; boxes that dip below zero
make the diffusion coefficient negative and the march blows up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray
from scipy import sparse
from scipy.sparse.linalg import splu

from .admissible import AdmissibleMatrix
from .model import DriftSystem, ModelParams, TransformedDynamics

Array = NDArray[np.float64]

#: discrete errors above this are reported as a blow-up
BLOWUP_THRESHOLD = 1e6
#: state magnitudes above this abort the march early
EARLY_EXIT_MAGNITUDE = 1e100


@dataclass(frozen=True, eq=False)
class PdeProblem:
    """Transformed-coordinate PDE setup on a truncated box.

    ``box`` lists one (lo, hi) interval per dimension; ``n`` is both the
    number of grid intervals per dimension and the number of time steps.
    """

    params: ModelParams
    matrix: AdmissibleMatrix
    alpha: Array
    beta: float
    T: float
    box: tuple[tuple[float, float], ...]
    n: int
    time_scheme: str = "cn"

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (self.params.n_factors,):
            raise ValueError(f"alpha must have shape ({self.params.n_factors},)")
        if not np.all(np.isfinite(alpha)) or not math.isfinite(self.beta):
            raise ValueError("alpha and beta must be finite")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if len(box) != self.params.n_factors:
            raise ValueError(f"box must list {self.params.n_factors} intervals")
        if not all(math.isfinite(lo) and math.isfinite(hi) and hi > lo for lo, hi in box):
            raise ValueError("box intervals must be finite and have positive length")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon must be finite and > 0, got {self.T}")
        if self.n < 2:
            raise ValueError(f"grid resolution must be >= 2, got {self.n}")
        if self.time_scheme not in ("cn", "ie"):
            raise ValueError(f"time_scheme must be 'cn' or 'ie', got {self.time_scheme!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: final-time nodal L2 error or a blow-up flag."""

    n: int
    l2_error: float
    blow_up: bool
    runtime_s: float
    fallback_upwind: bool = False
    time_scheme: str = "cn"


def manufactured_solution(problem: PdeProblem, z, t: float):
    """Exact solution 1 + sum_i alpha_i z_i^2 + beta t."""
    z_arr = np.asarray(z, dtype=float)
    vals = 1.0 + (z_arr * z_arr) @ problem.alpha + problem.beta * float(t)
    return float(vals) if z_arr.ndim == 1 else vals


def source_term(problem: PdeProblem, z):
    """Fabricated source that makes the manufactured solution exact.

    Applies the generator of :class:`TransformedDynamics` to the exact
    solution; :func:`residual_check` validates it in original coordinates.
    """
    z_arr = np.atleast_2d(np.asarray(z, dtype=float))
    dynamics = TransformedDynamics.from_params(problem.params, problem.matrix)
    grad = 2.0 * problem.alpha * z_arr
    vals = (
        problem.beta
        + np.einsum("ki,ki->k", grad, dynamics.drift(z_arr))
        + 2.0 * problem.alpha[-1] * dynamics.diffusion(z_arr)
    )
    return float(vals[0]) if np.asarray(z).ndim == 1 else vals


def residual_check(problem: PdeProblem, n_samples: int = 100, seed: int = 0) -> float:
    """Max PDE residual of the manufactured solution at random box points.

    Applies the generator in original coordinates, drift A v + b and
    diffusion nu^2 (w @ v) 1 1^T, to g(Q v) at v = Q^-1 z by the chain rule,
    so a vanishing residual certifies :func:`source_term` independently of
    the transformed dynamics.
    """
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in problem.box])
    hi = np.array([b[1] for b in problem.box])
    z = rng.uniform(lo, hi, size=(n_samples, len(problem.box)))

    params = problem.params
    q = problem.matrix.Q
    original = DriftSystem.from_params(params)
    v = z @ problem.matrix.Qinv.T
    grad = 2.0 * problem.alpha * z
    noise = q @ np.ones(params.n_factors)
    operator = (
        problem.beta
        + np.einsum("ki,ki->k", (v @ original.A.T + original.b) @ q.T, grad)
        + 0.5 * params.nu**2 * (v @ params.w) * (noise**2 @ (2.0 * problem.alpha))
    )
    return float(np.max(np.abs(operator - source_term(problem, z))))


def _assemble(problem: PdeProblem, upwind: bool):
    """Spatial operator on interior rows acting on the full node vector.

    A sum over axes of 1-D stencils lifted to the grid by Kronecker products
    and scaled by the coefficients of :class:`TransformedDynamics` at the
    nodes.  The drift along each axis is discretized in divergence form, the
    central difference of the coefficient-times-value product corrected by
    the exact coefficient divergence, or with ``upwind`` by the one-sided
    difference on the side the drift transports from; the degenerate
    last-coordinate diffusion uses the plain central second difference with
    no regularization.
    """
    ndim = len(problem.box)
    n = problem.n
    axes = [np.linspace(lo, hi, n + 1) for lo, hi in problem.box]
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    dynamics = TransformedDynamics.from_params(problem.params, problem.matrix)
    drift = dynamics.drift(nodes)

    def along(dim, weights):
        """The 1-D stencil with these weights on v[i-1], v[i], v[i+1], lifted to axis dim."""
        one_d = sparse.diags(weights, (-1, 0, 1), shape=(n + 1, n + 1))
        outer = sparse.identity((n + 1) ** dim)
        inner = sparse.identity((n + 1) ** (ndim - 1 - dim))
        return sparse.kron(sparse.kron(outer, one_d), inner, format="csr")

    op = sparse.csr_matrix((len(nodes), len(nodes)))
    for dim, (lo, hi) in enumerate(problem.box):
        h = (hi - lo) / n
        c = drift[:, dim]
        if upwind:  # dv/dtau = c dv/dz transports from the +side when c > 0
            op += (sparse.diags(np.maximum(c, 0.0) / h) @ along(dim, (0.0, -1.0, 1.0))
                   + sparse.diags(np.minimum(c, 0.0) / h) @ along(dim, (-1.0, 1.0, 0.0)))
        else:
            op += along(dim, (-1.0, 0.0, 1.0)) @ sparse.diags(c / (2.0 * h))
            op -= dynamics.divergence[dim] * sparse.identity(len(nodes))
        if dim == ndim - 1:
            op += sparse.diags(dynamics.diffusion(nodes) / h**2) @ along(dim, (1.0, -2.0, 1.0))
    interior = np.arange(len(nodes)).reshape((n + 1,) * ndim)[(slice(1, -1),) * ndim].ravel()
    return op[interior], nodes, interior


def _march(problem: PdeProblem, upwind: bool):
    """Run the backward time march; returns (error_l2, blow_up, sol_extent).

    One theta-step per time level (theta = 1/2 for ``cn``, 1 for ``ie``):
    (I - theta dt L_II) v_new = v_old + dt (L x - phi), where x mixes the old
    state and the new boundary data as (1 - theta) old + theta new.
    """
    n = problem.n
    op, nodes, interior = _assemble(problem, upwind)
    boundary = np.ones(len(nodes), dtype=bool)
    boundary[interior] = False
    spatial = 1.0 + (nodes * nodes) @ problem.alpha
    phi_int = source_term(problem, nodes[interior])

    dt = problem.T / n
    theta = 0.5 if problem.time_scheme == "cn" else 1.0
    try:
        lu = splu((sparse.identity(interior.size) - theta * dt * op[:, interior]).tocsc())
    except RuntimeError:
        return math.inf, True, math.inf

    full = spatial + problem.beta * problem.T  # state at t = T
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            mixed = (1.0 - theta) * full
            full[boundary] = spatial[boundary] + problem.beta * (problem.T - m * dt)
            mixed[boundary] += theta * full[boundary]
            v_int = lu.solve(full[interior] + dt * (op @ mixed - phi_int))
            if not np.all(np.isfinite(v_int)) or np.max(np.abs(v_int)) > EARLY_EXIT_MAGNITUDE:
                return math.inf, True, math.inf
            full[interior] = v_int

    # the boundary error is zero and every interior node has weight prod(h)
    cell = math.prod((hi - lo) / n for lo, hi in problem.box)
    l2 = math.sqrt(cell * float(np.sum((v_int - spatial[interior]) ** 2)))
    if not math.isfinite(l2) or l2 > BLOWUP_THRESHOLD:
        return math.inf, True, math.inf
    return l2, False, float(np.max(full) - np.min(full))


def solve(problem: PdeProblem) -> SolveReport:
    """March the PDE backward from the terminal data and report the error.

    Dirichlet data from the exact solution is imposed on the whole box
    boundary at every time level.  On coarse grids (n <= 8) an oscillation
    beyond ten times the exact data range triggers a rerun with first-order
    upwind drift, recorded in the report.
    """
    start = time.perf_counter()
    l2, blew, extent = _march(problem, upwind=False)
    fallback = False
    if not blew and problem.n <= 8:
        exact_extent = _exact_range(problem)
        if extent > 10.0 * exact_extent:
            l2, blew, extent = _march(problem, upwind=True)
            fallback = True
    return SolveReport(
        n=problem.n,
        l2_error=l2,
        blow_up=blew,
        runtime_s=time.perf_counter() - start,
        fallback_upwind=fallback,
        time_scheme=problem.time_scheme,
    )


def _exact_range(problem: PdeProblem) -> float:
    corners = np.array(
        np.meshgrid(*[(lo, hi) for lo, hi in problem.box], indexing="ij")
    ).reshape(len(problem.box), -1).T
    spatial = 1.0 + (corners * corners) @ problem.alpha
    lo_spatial = min(1.0, float(np.min(spatial)))  # interior minimum can sit at z = 0
    vals = [
        lo_spatial,
        float(np.max(spatial)),
        lo_spatial + problem.beta * problem.T,
        float(np.max(spatial)) + problem.beta * problem.T,
    ]
    return max(vals) - min(vals)


def convergence_study(problem: PdeProblem, n_list) -> list[SolveReport]:
    """One solve per resolution; resolutions must be increasing."""
    n_values = [int(v) for v in n_list]
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_list must be strictly increasing")
    return [solve(replace(problem, n=n_val)) for n_val in n_values]


def observed_orders(reports: list[SolveReport]) -> list[float]:
    """log2 error ratios between consecutive resolutions; nan where undefined."""
    orders = [math.nan]
    for prev, cur in zip(reports, reports[1:]):
        if (
            prev.blow_up
            or cur.blow_up
            or not math.isfinite(prev.l2_error)
            or not math.isfinite(cur.l2_error)
            or cur.l2_error == 0.0
        ):
            orders.append(math.nan)
        else:
            ratio = prev.l2_error / cur.l2_error
            factor = cur.n / prev.n
            orders.append(math.log(ratio) / math.log(factor))
    return orders
