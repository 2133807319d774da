"""Cone-preserving weak second-order scheme for the multifactor square-root model.

The time step is a Strang composition: half an exact linear-drift step, a
moment-matched three-point jump of the aggregate, and another half drift
step.  Both pieces map the state-space cone into itself, so the composition
does as well, which keeps every square-root argument non-negative along the
whole simulation.  One batched step generator serves the simulator in
u = Q (v - shift) (:class:`TransformedDynamics`) and the scalar steps.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .admissible import AdmissibleMatrix
from .cone import ConeDomain
from .model import DriftSystem, ModelParams, TransformedDynamics

Array = NDArray[np.float64]

#: spread constant of the three-point law
SPREAD = (3.0 + math.sqrt(3.0)) / 4.0
#: probabilities outside [0, 1] by more than this are counted as audit violations
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

    Closed form of the Lagrange weights for the centred moments E[d] = 0 and
    E[d^2] = x z (the support makes the third moment hold), with
    c = SPREAD + 3/4 and s = sqrt(z (3x + c^2 z)).  Every factor is a ratio
    of like magnitudes, so p1 in [1/6, 1], p2 in [0, 2/3] and p3 in [0, 1/6]
    hold to rounding for any x >= 0 and z > 0, and x = 0 gives the point
    mass (1, 0, 0) at x1 = 0.  A zero budget z is a point mass at x.
    """
    x = np.asarray(x, dtype=float)
    if z == 0.0:
        return x, x, x, np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    c = SPREAD + 0.75
    s = math.sqrt(z) * np.sqrt(3.0 * x + c * c * z)
    x2 = x + SPREAD * z
    x3 = x + c * z + s
    x1 = x * ((x + (2.0 * SPREAD - 1.5) * z) / x3)  # = x + c z - s, rationalized
    p2 = 2.0 * x / (3.0 * x + SPREAD * (SPREAD + 1.5) * z)
    p3 = ((x / (x + SPREAD * (c * z + s))) * (z / (2.0 * s))
          * ((x + SPREAD * (1.5 - SPREAD) * z) / (s + 0.75 * z)))
    return x1, x2, x3, 1.0 - p2 - p3, p2, p3


def _audit_probabilities(p1: Array, p2: Array, p3: Array) -> int:
    """Number of probabilities outside [0, 1] by more than PROB_SLACK."""
    return sum(int(np.sum((p < -PROB_SLACK) | (p > 1.0 + PROB_SLACK))) for p in (p1, p2, p3))


def three_point_law(x: float, z: float) -> ThreePointLaw:
    """Three-point law for a single aggregate x >= 0 and variance budget z >= 0."""
    x = float(x)
    z = float(z)
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"aggregate must be finite and >= 0, got {x}")
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError(f"variance budget must be finite and >= 0, got {z}")
    x1, x2, x3, p1, p2, p3 = (float(v[0]) for v in _law_arrays(np.array([x]), z))
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
    if not low >= -AGGREGATE_TOL:  # NaN is outside the cone too
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
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon must be finite and > 0, got {self.T}")
        if self.M < 1:
            raise ValueError(f"number of steps must be >= 1, got {self.M}")
        if self.n_paths < 1:
            raise ValueError(f"number of paths must be >= 1, got {self.n_paths}")


@dataclass(eq=False)
class SampleCloud:
    """Recorded transformed states u = Q (v - shift) of a simulation and its cone audit.

    ``transformed`` has shape (n_paths, n_recorded, N); states and aggregates
    are derived from it, and ``shift`` is that of the cone of the model's
    anchor (:meth:`ConeDomain.for_initial_state`).  The per-path minima are
    taken over every grid state of the run, not only the recorded ones.
    """

    transformed: Array
    min_transformed_per_path: Array
    min_aggregate_per_path: Array
    n_violations: int
    sqrt_clamp_count: int
    prob_violations: int
    config: PathConfig
    matrix: AdmissibleMatrix
    shift: Array

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
        """Factor states v = Q^-1 u + shift, computed on every access."""
        states = self.transformed @ self.matrix.Qinv.T
        states += self.shift
        return states

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
    n_violations = n_paths - np.count_nonzero(min_trans >= -AGGREGATE_TOL)  # NaN counts
    sqrt_clamps = 0
    prob_violations = 0
    if record_full:
        recorded = np.empty((n_paths, n_steps + 1, state.shape[1]))
        recorded[:, 0] = state

    steps = _strang_steps(state, prop, shift, last, last, z_budget, uniforms.T)
    for j, (state, low, clamps, bad) in enumerate(steps):
        if not low >= -AGGREGATE_TOL:  # NaN is outside the cone too
            raise RuntimeError(
                f"aggregate {low} is not >= -{AGGREGATE_TOL} at step {j}, state left the cone"
            )
        sqrt_clamps += clamps
        prob_violations += bad
        low_now = state.min(axis=1)
        np.minimum(min_trans, low_now, out=min_trans)
        np.minimum(min_agg, state[:, -1], out=min_agg)
        n_violations += n_paths - np.count_nonzero(low_now >= -AGGREGATE_TOL)
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

    Paths run in u = Q (v - shift) (:class:`TransformedDynamics`, so
    ValueError for a matrix failing the row or column condition), where the
    audit is min(u).  The shift is that of the cone of the anchor
    (:meth:`ConeDomain.for_initial_state` at ``params.v0``): it has zero
    aggregate, so A shift = -x shift and v - shift follows the model anchored
    at ``params.v0 - shift``, which is proportional to 1/x.
    The paths are split into contiguous blocks, one per worker thread
    (:func:`_n_workers`).  Path k draws one uniform per step from the
    substream seeded by (config.seed, k), so the sample cloud is reproducible
    bit for bit and independent of the number of workers.
    """
    initial = np.asarray(params.v0 if initial_state is None else initial_state, dtype=float)
    if initial.shape != (params.n_factors,):
        raise ValueError(f"initial state must have shape ({params.n_factors},)")
    shift = ConeDomain.for_initial_state(matrix, params.v0).shift
    dynamics = TransformedDynamics.from_params(replace(params, v0=params.v0 - shift), matrix)
    u0 = matrix.Q @ (initial - shift)
    lowest = float(np.min(u0))
    if require_initial_in_cone and not lowest >= -AGGREGATE_TOL:
        raise ValueError(f"initial state is outside the cone, min transformed component {lowest}")

    h = config.T / config.M
    prop, forcing = dynamics.system.propagators(0.5 * h)
    z_budget = dynamics.variance_rate * h

    bounds = np.linspace(0, config.n_paths, _n_workers(config.n_paths) + 1).astype(int)
    blocks = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))

    def run(lo: int, hi: int) -> tuple:
        uniforms = _path_uniforms(config.seed, lo, hi - lo, config.M)
        return _simulate_block(u0, prop, forcing, z_budget, uniforms, config.record_full)

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
        shift=shift,
    )


def mean_oracle(params: ModelParams, t: float) -> Array:
    """Exact expectation of the state at time t from the anchor ``params.v0``.

    The mean solves the same linear drift ODE that the splitting integrates
    exactly, so it provides an independent check of the Monte Carlo average.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    return ode_step(DriftSystem.from_params(params), params.v0, float(t))
