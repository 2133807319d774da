"""Cone-preserving weak second-order scheme for the multifactor square-root model.

The time step is a Strang composition: half an exact linear-drift step, a
moment-matched three-point jump of the aggregate, and another half drift
step.  Both pieces map the state-space cone into itself, so the composition
does as well, which keeps every square-root argument non-negative along the
whole simulation.  One batched step generator serves the simulator in u = Q v
(:class:`TransformedDynamics`) and the scalar steps.
"""

from __future__ import annotations

import logging
import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .admissible import AdmissibleMatrix
from .model import DriftSystem, ModelParams, TransformedDynamics

Array = NDArray[np.float64]

logger = logging.getLogger(__name__)

#: spread constant of the three-point law
SPREAD = (3.0 + math.sqrt(3.0)) / 4.0
#: below this, the three-point law collapses to a point mass
DEGENERATE_EPS = 1e-14
#: probabilities are audited against [0, 1] at this slack and logged if outside
PROB_SLACK = 1e-12
#: aggregates below -AGGREGATE_TOL abort a step, and audited coordinates below it are violations
AGGREGATE_TOL = 1e-9
#: 2 workers vs 1 on fig2 (2 CPUs): 1.06-1.34x the time at 5 000 paths, 0.71x at 20 000
PATHS_PER_WORKER = 5_000


def ode_step(system: DriftSystem, z, h: float) -> Array:
    """Exact solution of the linear drift ODE after time h from state z."""
    z_arr = np.asarray(z, dtype=float)
    prop, shift = system.propagators(h)
    return prop @ z_arr + shift


@dataclass(frozen=True)
class ThreePointLaw:
    """Discrete law on three support points matching the first three moments.

    For aggregate x and variance budget z the target moments are
    m1 = x, m2 = x^2 + x z, m3 = x^3 + 3 x^2 z + 1.5 x z^2.
    """

    x1: float
    x2: float
    x3: float
    p1: float
    p2: float
    p3: float
    x: float
    z: float

    @property
    def support(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)

    @property
    def probabilities(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)

    def moments(self) -> tuple[float, float, float]:
        pts = np.array(self.support)
        pr = np.array(self.probabilities)
        return (float(pr @ pts), float(pr @ pts**2), float(pr @ pts**3))


def _law_arrays(x: Array, z: float) -> tuple[Array, Array, Array, Array, Array, Array]:
    """Vectorized support points and probabilities of the three-point law.

    Degenerate inputs (x or z below DEGENERATE_EPS) collapse to a point mass
    at x, which is the limit law as the support gaps close.  The lower
    support point is evaluated in rationalized form so it is non-negative in
    floating point, not only algebraically.
    """
    x = np.asarray(x, dtype=float)
    top = x + (SPREAD + 0.75) * z
    s = np.sqrt((3.0 * x + (SPREAD + 0.75) ** 2 * z) * z)
    degenerate = (x <= DEGENERATE_EPS) | (z <= DEGENERATE_EPS)
    denom = np.where(degenerate, 1.0, top + s)
    x1 = (x * x + (2.0 * SPREAD - 1.5) * x * z) / denom
    x2 = x + SPREAD * z
    x3 = top + s

    m1 = x
    m2 = x * (x + z)
    m3 = x * (x * x + 3.0 * x * z + 1.5 * z * z)
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = (m1 * x2 * x3 - m2 * (x2 + x3) + m3) / (x1 * (x3 - x1) * (x2 - x1))
        p2 = (m1 * x1 * x3 - m2 * (x1 + x3) + m3) / (x2 * (x3 - x2) * (x1 - x2))
        p3 = (m1 * x1 * x2 - m2 * (x1 + x2) + m3) / (x3 * (x1 - x3) * (x2 - x3))

    x1 = np.where(degenerate, x, x1)
    x2 = np.where(degenerate, x, x2)
    x3 = np.where(degenerate, x, x3)
    p1 = np.where(degenerate, 1.0, p1)
    p2 = np.where(degenerate, 0.0, p2)
    p3 = np.where(degenerate, 0.0, p3)
    return x1, x2, x3, p1, p2, p3


def _audit_probabilities(p1: Array, p2: Array, p3: Array) -> int:
    bad = 0
    for p in (p1, p2, p3):
        bad += int(np.sum((p < -PROB_SLACK) | (p > 1.0 + PROB_SLACK)))
    if bad:
        logger.warning("three-point law produced %d probabilities outside [0, 1]", bad)
    return bad


def three_point_law(x: float, z: float) -> ThreePointLaw:
    """Three-point law for a single aggregate x >= 0 and variance budget z >= 0."""
    x = float(x)
    z = float(z)
    if x < 0.0:
        raise ValueError(f"aggregate must be >= 0, got {x}")
    if z < 0.0:
        raise ValueError(f"variance budget must be >= 0, got {z}")
    x1, x2, x3, p1, p2, p3 = (float(v[0]) for v in _law_arrays(np.array([x]), z))
    _audit_probabilities(np.array([p1]), np.array([p2]), np.array([p3]))
    return ThreePointLaw(x1=x1, x2=x2, x3=x3, p1=p1, p2=p2, p3=p3, x=x, z=z)


def _strang_steps(state: Array, prop: Array, shift: Array, agg_row: Array, jump: Array,
                  z_budget: float, uniforms) -> Iterator[tuple[Array, float, int, int]]:
    """Strang steps (half drift, jump, half drift) of every row of ``state``.

    ``(prop, shift)`` is the exact half-step drift, ``agg_row`` maps a state
    to its aggregate and ``jump`` is the state change per unit of aggregate
    change.  Each array in ``uniforms`` (one uniform per row) drives one step,
    which yields the new states, the lowest aggregate before the jump, the
    clamp count and the probability audit.  A generator keeps a step's arrays
    alive into the next step: freeing them all at a function return made the
    allocator trim and refault the heap on every step of a wide batch.
    """
    for u in uniforms:
        state = state @ prop.T + shift
        agg = state @ agg_row
        low = float(agg.min())
        clamps = 0
        if low < 0.0:
            clamps = int(np.sum(agg < 0.0))
            agg = np.maximum(agg, 0.0)
        x1, x2, x3, p1, p2, p3 = _law_arrays(agg, z_budget)
        prob_violations = _audit_probabilities(p1, p2, p3)
        draw = np.where(u < p1, x1, np.where(u < p1 + p2, x2, x3))
        state = state + (draw - agg)[:, None] * jump
        state = state @ prop.T + shift
        yield state, low, clamps, prob_violations


def stochastic_step(params: ModelParams, y, h: float, u: float) -> Array:
    """One jump of the noise part: shift all factors by the aggregate increment.

    The aggregate is redrawn from the three-point law and the common shift
    (draw - aggregate) / wbar is added to every component, so the new
    aggregate equals the draw and stays non-negative.  This is a Strang step
    with zero drift.
    """
    n = params.n_factors
    return strang_step(params, DriftSystem(A=np.zeros((n, n)), b=np.zeros(n)), y, h, u)


def strang_step(params: ModelParams, system: DriftSystem, v, h: float, u: float) -> Array:
    """Half drift step, aggregate jump over the full step, half drift step.

    The batched step on one state in original coordinates: aggregate row w,
    jump direction 1/wbar.
    """
    prop, shift = system.propagators(0.5 * h)
    jump = np.ones_like(params.w) / params.wbar
    z_budget = params.nu**2 * params.wbar**2 * float(h)
    state, low, _, _ = next(_strang_steps(np.asarray(v, dtype=float)[None, :], prop, shift,
                                          params.w, jump, z_budget, [np.array([float(u)])]))
    if low < -AGGREGATE_TOL:
        raise ValueError(f"aggregate {low} is negative beyond tolerance, state left the cone")
    return state[0]


@dataclass(frozen=True)
class PathConfig:
    """Grid and sampling configuration of a simulation run."""

    T: float
    M: int
    n_paths: int
    seed: int
    record_full: bool = False

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError(f"horizon must be > 0, got {self.T}")
        if self.M < 1:
            raise ValueError(f"number of steps must be >= 1, got {self.M}")
        if self.n_paths < 1:
            raise ValueError(f"number of paths must be >= 1, got {self.n_paths}")


@dataclass(eq=False)
class SampleCloud:
    """Recorded transformed states u = Q v of a simulation and its cone audit.

    ``transformed`` has shape (n_paths, n_recorded, N); states and aggregates
    are derived from it.  The per-path minima are taken over every grid
    state of the run, not only the recorded ones.
    """

    transformed: Array
    min_transformed_per_path: Array
    min_aggregate_per_path: Array
    n_violations: int
    sqrt_clamp_count: int
    prob_violations: int
    config: PathConfig
    matrix: AdmissibleMatrix

    @property
    def steps(self) -> NDArray[np.int64]:
        first = 0 if self.config.record_full else self.config.M
        return np.arange(first, self.config.M + 1, dtype=np.int64)

    @property
    def times(self) -> Array:
        return self.steps * (self.config.T / self.config.M)

    @property
    def aggregates(self) -> Array:
        """View of u_N, which equals the aggregate w @ v."""
        return self.transformed[..., -1]

    @property
    def states(self) -> Array:
        """Factor states v = Q^-1 u, computed on every access."""
        return self.transformed @ self.matrix.Qinv.T

    @property
    def min_transformed(self) -> float:
        return float(np.min(self.min_transformed_per_path))

    @property
    def min_aggregate(self) -> float:
        return float(np.min(self.min_aggregate_per_path))

    def audit(self) -> dict:
        return {
            "min_transformed": self.min_transformed,
            "min_aggregate": self.min_aggregate,
            "n_violations": int(self.n_violations),
            "sqrt_clamp_count": int(self.sqrt_clamp_count),
            "prob_violations": int(self.prob_violations),
        }


def _path_uniforms(seed: int, first: int, count: int, n_steps: int) -> Array:
    """One uniform per step for paths first..first+count-1.

    Path k always draws from the substream seeded by (seed, k), so results
    do not depend on how paths are split across workers.
    """
    out = np.empty((count, n_steps))
    for i in range(count):
        out[i] = np.random.default_rng([seed, first + i]).random(n_steps)
    return out


def _simulate_block(initial: Array, prop: Array, shift: Array, z_budget: float,
                    uniforms: Array, record_full: bool) -> tuple:
    """March paths in u (aggregate and jump are u_N); returns recorded u, minima, counters."""
    n_paths, n_steps = uniforms.shape
    state = np.tile(initial, (n_paths, 1))
    last = np.eye(state.shape[1])[-1]

    min_trans = state.min(axis=1)
    min_agg = state[:, -1].copy()
    n_violations = int(np.sum(min_trans < -AGGREGATE_TOL))
    sqrt_clamps = 0
    prob_violations = 0
    if record_full:
        recorded = np.empty((n_paths, n_steps + 1, state.shape[1]))
        recorded[:, 0] = state

    steps = _strang_steps(state, prop, shift, last, last, z_budget, uniforms.T)
    for j, (state, low, clamps, bad) in enumerate(steps):
        if low < -AGGREGATE_TOL:
            raise RuntimeError(
                f"aggregate {low} fell below -{AGGREGATE_TOL} at step {j}, state left the cone"
            )
        sqrt_clamps += clamps
        prob_violations += bad
        low_now = state.min(axis=1)
        np.minimum(min_trans, low_now, out=min_trans)
        np.minimum(min_agg, state[:, -1], out=min_agg)
        n_violations += int(np.sum(low_now < -AGGREGATE_TOL))
        if record_full:
            recorded[:, j + 1] = state

    if not record_full:
        recorded = state[:, None, :]
    return recorded, min_trans, min_agg, (n_violations, sqrt_clamps, prob_violations)


def _n_workers(n_paths: int) -> int:
    """One worker thread per PATHS_PER_WORKER paths, at least one and at most the usable CPUs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(n_paths // PATHS_PER_WORKER, cpus))


def simulate(
    params: ModelParams,
    matrix: AdmissibleMatrix,
    config: PathConfig,
    initial_state=None,
    require_initial_in_cone: bool = True,
) -> SampleCloud:
    """Simulate independent paths on a uniform grid and audit cone membership.

    Paths run in u = Q v (:class:`TransformedDynamics`, so ValueError for a
    matrix failing the row or column condition), where the audit is min(u).
    The paths are split into contiguous blocks, one per worker thread
    (:func:`_n_workers`).  Path k draws one uniform per step from the
    substream seeded by (config.seed, k), so the sample cloud is reproducible
    bit for bit and independent of the number of workers.
    """
    initial = np.asarray(params.v0 if initial_state is None else initial_state, dtype=float)
    if initial.shape != (params.n_factors,):
        raise ValueError(f"initial state must have shape ({params.n_factors},)")
    dynamics = TransformedDynamics.from_params(params, matrix)
    u0 = matrix.Q @ initial
    lowest = float(np.min(u0))
    if require_initial_in_cone and lowest < -AGGREGATE_TOL:
        raise ValueError(f"initial state is outside the cone, min transformed component {lowest}")

    h = config.T / config.M
    prop, shift = dynamics.system.propagators(0.5 * h)
    z_budget = dynamics.variance_rate * h

    bounds = np.linspace(0, config.n_paths, _n_workers(config.n_paths) + 1).astype(int)
    blocks = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))

    def run(lo: int, hi: int) -> tuple:
        uniforms = _path_uniforms(config.seed, lo, hi - lo, config.M)
        return _simulate_block(u0, prop, shift, z_budget, uniforms, config.record_full)

    if len(blocks) == 1:
        results = [run(*blocks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            results = list(pool.map(lambda pair: run(*pair), blocks))

    recorded, min_trans, min_agg, counts = zip(*results)
    n_violations, sqrt_clamps, prob_violations = np.sum(counts, axis=0).tolist()
    return SampleCloud(
        transformed=np.concatenate(recorded),
        min_transformed_per_path=np.concatenate(min_trans),
        min_aggregate_per_path=np.concatenate(min_agg),
        n_violations=n_violations,
        sqrt_clamp_count=sqrt_clamps,
        prob_violations=prob_violations,
        config=config,
        matrix=matrix,
    )


def mean_oracle(params: ModelParams, t: float, initial_state=None) -> Array:
    """Exact expectation of the state at time t.

    The mean solves the same linear drift ODE that the splitting integrates
    exactly, so it provides an independent check of the Monte Carlo average.
    """
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    initial = np.asarray(params.v0 if initial_state is None else initial_state, dtype=float)
    system = DriftSystem.from_params(params)
    return ode_step(system, initial, float(t))
