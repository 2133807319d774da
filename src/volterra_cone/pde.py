"""Backward pricing PDE in transformed coordinates with a manufactured solution.

The PDE is posed on a truncated box in u = Q v, the coordinates of the
unshifted cone, where the state domain is the non-negative orthant.  A
quadratic-in-space, linear-in-time exact solution is imposed through a
fabricated source term and Dirichlet data on the box boundary, so the
discretization error is measurable.  Boxes that keep u_N >= 0 give a
parabolic problem and second-order convergence; boxes that dip below zero
make the diffusion coefficient negative and the march blows up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .admissible import AdmissibleMatrix
from .cone import ConeDomain
from .model import DriftSystem, ModelParams, TransformedDynamics

Array = NDArray[np.float64]

#: discrete errors above this are reported as a blow-up
BLOWUP_THRESHOLD = 1e6
#: state magnitudes above this abort the march early
EARLY_EXIT_MAGNITUDE = 1e100


def splu(matrix, **options):
    """SuperLU factor of a sparse matrix: SciPy's sparse solvers load only when the PDE runs."""
    from scipy.sparse.linalg import splu as factor

    return factor(matrix, **options)


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
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "n", int(self.n))
        # bounds on |manufactured_solution| and |source_term| over the box and [0, T]
        dynamics = self.dynamics
        reach = np.array([max(-lo, hi) for lo, hi in box])
        with np.errstate(all="ignore"):  # an overflow is reported below, not as a warning
            solution = 1.0 + np.abs(alpha) @ reach**2 + abs(self.beta) * self.T
            drift = np.abs(dynamics.A) @ reach + np.abs(dynamics.b)
            source = (abs(self.beta) + 2.0 * (np.abs(alpha) * reach) @ drift
                      + abs(alpha[-1]) * dynamics.variance_rate * reach[-1])
        if not (math.isfinite(solution) and math.isfinite(source)):
            raise ValueError("the manufactured solution or its source term overflows on this "
                             "box; reduce alpha, beta, T or the box")

    @cached_property
    def dynamics(self) -> TransformedDynamics:
        """The dynamics of ``params`` in u = Q v, the unshifted cone of ``matrix``, built once."""
        return TransformedDynamics.from_params(self.params, ConeDomain(self.matrix))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: final-time nodal L2 error or a blow-up.

    ``timings`` holds the seconds spent in assembly, factorisation and the
    time loop (``assemble_s``, ``factor_s``, ``steps_s``) and in the whole
    solve (``runtime_s``).  ``blowup_step`` and ``blowup_max_abs`` are the
    time level and max|v| of a blow-up, by the rules of :func:`solve`, and
    ``None`` otherwise.
    """

    n: int
    l2_error: float
    timings: dict = field(default_factory=dict)
    blowup_step: int | None = None
    blowup_max_abs: float | None = None

    @property
    def blow_up(self) -> bool:
        return self.blowup_step is not None


def manufactured_solution(problem: PdeProblem, z, t: float):
    """Exact solution 1 + sum_i alpha_i z_i^2 + beta t at a point or the rows of ``z``."""
    z_arr = np.asarray(z, dtype=float)
    return 1.0 + (z_arr * z_arr) @ problem.alpha + problem.beta * float(t)


def source_term(problem: PdeProblem, z):
    """Fabricated source that makes the manufactured solution exact, at a point or the rows of ``z``.

    Applies the generator of :class:`TransformedDynamics` to the exact
    solution; :func:`residual_check` validates it in original coordinates.
    """
    z_arr = np.asarray(z, dtype=float)
    dynamics = problem.dynamics
    grad = 2.0 * problem.alpha * z_arr
    return (
        problem.beta
        + np.einsum("...i,...i->...", grad, dynamics.drift(z_arr))
        + 2.0 * problem.alpha[-1] * dynamics.diffusion(z_arr)
    )


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
    phi = source_term(problem, z)  # first: it raises ValueError when the drift overflows

    params = problem.params
    q = problem.matrix.Q
    original = DriftSystem.from_params(params)
    v = z @ problem.matrix.Qinv.T
    grad = 2.0 * problem.alpha * z
    noise = q @ np.ones(params.n_factors)
    operator = (
        problem.beta
        + np.einsum("ki,ki->k", original.drift(v) @ q.T, grad)
        + 0.5 * params.nu**2 * (v @ params.w) * (noise**2 @ (2.0 * problem.alpha))
    )
    return float(np.max(np.abs(operator - phi)))


def _assemble(problem: PdeProblem):
    """Interior-row operator on the full node vector, with the nodes and the interior mask.

    In u = Q v each generator term lies along one axis, so the operator is one
    band pair per axis, at offsets -stride and +stride of the row-major nodes,
    around one shared diagonal.  The drift along each axis is discretized in
    divergence form, the central difference of the coefficient-times-value
    product corrected by the exact derivative K_ii of that coefficient, read as
    ``dynamics.A[dim, dim]``; the degenerate last-coordinate diffusion uses the
    plain central second difference.  Band entries that wrap between grid lines
    fall only in boundary rows, which are dropped.
    """
    from scipy import sparse

    ndim = len(problem.box)
    n = problem.n
    axes = [np.linspace(lo, hi, n + 1) for lo, hi in problem.box]
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    dynamics = problem.dynamics
    drift = dynamics.drift(nodes)
    diagonal = np.zeros(len(nodes))
    bands, offsets = [], []
    for dim, (lo, hi) in enumerate(problem.box):
        h = (hi - lo) / n
        stride = (n + 1) ** (ndim - 1 - dim)
        flux = drift[:, dim] / (2.0 * h)
        lower, upper = -flux[:-stride], flux[stride:]  # indexed by the lower of row and column
        diagonal -= dynamics.A[dim, dim]
        if dim == ndim - 1:
            diffusion = dynamics.diffusion(nodes) / h**2  # scales the row's own stencil
            lower += diffusion[stride:]
            upper += diffusion[:-stride]
            diagonal -= 2.0 * diffusion
        bands += [lower, upper]
        offsets += [-stride, stride]
    op = sparse.diags([diagonal, *bands], [0, *offsets], format="csr")
    interior = np.pad(np.ones((n - 1,) * ndim, dtype=bool), 1).ravel()
    return op[interior], nodes, interior


def solve(problem: PdeProblem) -> SolveReport:
    """March the PDE backward from the terminal data and report the error.

    Crank-Nicolson on the interior unknowns v, with the exact solution's Dirichlet
    data g entering through the boundary columns L_IB of the operator as forcing:
    each time level solves the midpoint form (I - dt/2 L_II) w = v + dt/2 (L_IB
    (g_old + g_new)/2 - phi) and sets v <- 2 w - v.  A blow-up, reported with an
    infinite L2 error, is the time level and max|v| at which the march stopped:
    the first level whose max|v| exceeds EARLY_EXIT_MAGNITUDE or is NaN; level
    n and the last max|v| when the final L2 error is not finite or exceeds
    BLOWUP_THRESHOLD; level 0 and NaN when the step matrix cannot be factored.
    """
    # loaded before any clock starts, so no timing (nor a span around splu) holds the import
    import scipy.sparse.linalg

    n = problem.n
    start = time.perf_counter()
    op, nodes, interior = _assemble(problem)
    timings = {"assemble_s": time.perf_counter() - start, "factor_s": 0.0, "steps_s": 0.0}
    step_op, edge_op = op[:, interior], op[:, ~interior]
    del op  # freed before the factorisation: pde-convergence n = 32..256 peaks 2.5 MB lower
    edge, phi = nodes[~interior], source_term(problem, nodes[interior])

    dt = problem.T / n
    l2, blowup = math.inf, None
    step_matrix = (scipy.sparse.identity(step_op.shape[0]) - 0.5 * dt * step_op).tocsc()
    # Fill-reducing column order.  The 2-D stencil has a symmetric pattern, so minimum
    # degree on A^T + A suits it: table1 box1 L+U nnz 1.19 M -> 0.65 M at n = 128 and
    # 6.29 M -> 3.38 M at n = 256 (one solve 20.8 -> 11.1 ms) against COLAMD's A^T A.
    # In 3-D it fills more (fig3a on [0,4]^3, n = 16, T = 2: 0.86 M -> 2.14 M), so COLAMD stays.
    clock = time.perf_counter()
    try:
        lu = splu(step_matrix, permc_spec="MMD_AT_PLUS_A" if len(problem.box) == 2 else "COLAMD")
    except RuntimeError:
        blowup = (0, math.nan)
    timings["factor_s"] = time.perf_counter() - clock

    if blowup is None:
        v = manufactured_solution(problem, nodes[interior], problem.T)
        g = manufactured_solution(problem, edge, problem.T)
        clock = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, n + 1):
                g_new = manufactured_solution(problem, edge, problem.T - m * dt)
                w = lu.solve(v + 0.5 * dt * (edge_op @ (0.5 * (g + g_new)) - phi))
                v, g = 2.0 * w - v, g_new
                peak = float(np.max(np.abs(v)))  # NaN when any entry is NaN
                if not peak <= EARLY_EXIT_MAGNITUDE:
                    blowup = (m, peak)
                    break
        timings["steps_s"] = time.perf_counter() - clock

    if blowup is None:
        # the boundary error is zero and every interior node has weight prod(h)
        cell = math.prod((hi - lo) / n for lo, hi in problem.box)
        exact = manufactured_solution(problem, nodes[interior], 0.0)
        l2 = math.sqrt(cell * float(np.sum((v - exact) ** 2)))
        if not math.isfinite(l2) or l2 > BLOWUP_THRESHOLD:
            l2, blowup = math.inf, (n, peak)
    timings["runtime_s"] = time.perf_counter() - start
    step, peak = blowup or (None, None)
    return SolveReport(n=n, l2_error=l2, timings=timings, blowup_step=step, blowup_max_abs=peak)


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
        if prev.blow_up or cur.blow_up or not all(0.0 < rep.l2_error < math.inf
                                                  for rep in (prev, cur)):
            orders.append(math.nan)
        else:
            ratio = prev.l2_error / cur.l2_error
            factor = cur.n / prev.n
            orders.append(math.log(ratio) / math.log(factor))
    return orders
