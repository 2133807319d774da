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
        if any(hi <= lo for lo, hi in box):
            raise ValueError("box intervals must have positive length")
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

    The drift is discretized in divergence form, flux differences of the
    coefficient-times-value product corrected by the exact coefficient
    divergence; the degenerate last-coordinate diffusion uses the plain
    central second difference with no regularization.
    """
    ndim = len(problem.box)
    n = problem.n
    axes = [np.linspace(lo, hi, n + 1) for lo, hi in problem.box]
    spacing = np.array([(hi - lo) / n for lo, hi in problem.box])
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    total = nodes.shape[0]
    shape = (n + 1,) * ndim

    dynamics = TransformedDynamics.from_params(problem.params, problem.matrix)
    drift = dynamics.drift(nodes)

    idx = np.arange(total).reshape(shape)
    interior = idx[(slice(1, -1),) * ndim].ravel()
    n_int = interior.size
    local = np.arange(n_int)
    strides = [int(np.prod(shape[i + 1 :], dtype=int)) for i in range(ndim)]

    rows: list[Array] = []
    cols: list[Array] = []
    vals: list[Array] = []
    diag = np.zeros(n_int)

    for dim in range(ndim):
        h = spacing[dim]
        plus = interior + strides[dim]
        minus = interior - strides[dim]
        if upwind:
            # dv/dtau = c dv/dz transports from the +side when c > 0
            c_here = drift[interior, dim]
            pos = c_here > 0.0
            rows.extend([local[pos], local[pos], local[~pos], local[~pos]])
            cols.extend([plus[pos], interior[pos], interior[~pos], minus[~pos]])
            vals.extend(
                [c_here[pos] / h, -c_here[pos] / h, c_here[~pos] / h, -c_here[~pos] / h]
            )
        else:
            rows.extend([local, local])
            cols.extend([plus, minus])
            vals.extend([drift[plus, dim] / (2.0 * h), -drift[minus, dim] / (2.0 * h)])
            diag -= dynamics.divergence[dim]
        if dim == ndim - 1:
            d_here = dynamics.diffusion(nodes[interior]) / h**2
            rows.extend([local, local])
            cols.extend([plus, minus])
            vals.extend([d_here, d_here])
            diag -= 2.0 * d_here

    rows.append(local)
    cols.append(interior)
    vals.append(diag)
    op = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_int, total),
    ).tocsr()
    return op, nodes, interior


def _march(problem: PdeProblem, upwind: bool):
    """Run the backward time march; returns (error_l2, blow_up, sol_extent)."""
    n = problem.n
    op, nodes, interior = _assemble(problem, upwind)
    total = nodes.shape[0]
    op_int = op[:, interior].tocsc()

    boundary_mask = np.ones(total, dtype=bool)
    boundary_mask[interior] = False
    spatial = 1.0 + (nodes * nodes) @ problem.alpha
    phi_int = source_term(problem, nodes[interior])

    dt = problem.T / n
    gamma = 0.5 * dt if problem.time_scheme == "cn" else dt
    system = sparse.identity(interior.size, format="csc") - gamma * op_int
    try:
        lu = splu(system)
    except RuntimeError:
        return math.inf, True, math.inf

    full = spatial + problem.beta * problem.T  # state at t = T
    v_int = full[interior].copy()
    blow_up = False
    bvec = np.zeros(total)

    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            t_new = problem.T - m * dt
            bvec[boundary_mask] = spatial[boundary_mask] + problem.beta * t_new
            if problem.time_scheme == "cn":
                rhs = v_int + 0.5 * dt * (op @ full) + 0.5 * dt * (op @ bvec) - dt * phi_int
            else:
                rhs = v_int + dt * (op @ bvec) - dt * phi_int
            v_int = lu.solve(rhs)
            if not np.all(np.isfinite(v_int)) or np.max(np.abs(v_int)) > EARLY_EXIT_MAGNITUDE:
                blow_up = True
                break
            full[interior] = v_int
            full[boundary_mask] = bvec[boundary_mask]

    if blow_up:
        return math.inf, True, math.inf

    exact = spatial[interior]  # t = 0
    err = np.zeros(total)
    err[interior] = v_int - exact
    weights_1d = []
    for lo, hi in problem.box:
        h = (hi - lo) / n
        wts = np.full(n + 1, h)
        wts[0] = wts[-1] = 0.5 * h
        weights_1d.append(wts)
    wgrid = weights_1d[0]
    for wts in weights_1d[1:]:
        wgrid = np.multiply.outer(wgrid, wts)
    l2 = float(np.sqrt(np.sum(wgrid.ravel() * err**2)))
    if not math.isfinite(l2) or l2 > BLOWUP_THRESHOLD:
        return math.inf, True, math.inf
    extent = float(np.max(full) - np.min(full))
    return l2, False, extent


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
