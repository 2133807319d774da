"""Exact references of the model, from its affine dynamics alone: the mean state, the
second moment of the aggregate and the Laplace transform of u = Q (v - shift).

Importing this module loads no SciPy: :func:`laplace_transform` imports
``scipy.integrate`` when it is called.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .admissible import AdmissibleMatrix
from .cone import ConeDomain
from .model import DriftSystem, ModelParams, TransformedDynamics

Array = NDArray[np.float64]


def drift_flow(system: DriftSystem, z: Array, t: float) -> Array:
    """Exact solution of the linear drift ODE after time t from state z."""
    prop, shift = system.propagators(t)
    return prop @ z + shift


def mean_oracle(params: ModelParams, t: float) -> Array:
    """Exact expectation of the state at time t from the anchor ``params.v0``.

    The mean solves the same linear drift ODE that the splitting integrates
    exactly, so it provides an independent check of the Monte Carlo average.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    return drift_flow(DriftSystem.from_params(params), params.v0, t)


def aggregate_second_moment(params: ModelParams, t: float) -> float:
    """Exact E[(w @ v_t)^2] from the drift flow of the linear ODE of m = E[v] and P = E[v v^T].

    dm/dt = A m + b and dP/dt = A P + P A^T + b m^T + m b^T + nu^2 (w @ m) 1 1^T,
    with P flattened row-major, so vec(A P) = (A x I) vec(P), vec(P A^T) = (I x A) vec(P).
    """
    system = DriftSystem.from_params(params)
    a, b, w = system.A, system.b, params.w
    n = params.n_factors
    eye = np.eye(n)
    gen = np.zeros((n + n * n, n + n * n))  # m, vec(P)
    gen[:n, :n] = a
    gen[n:, :n] = (np.kron(b[:, None], eye) + np.kron(eye, b[:, None])
                   + params.nu**2 * np.outer(np.ones(n * n), w))
    gen[n:, n:] = np.kron(a, eye) + np.kron(eye, a)
    forcing = np.concatenate([b, np.zeros(n * n)])
    start = np.concatenate([params.v0, np.outer(params.v0, params.v0).ravel()])
    second = drift_flow(DriftSystem(A=gen, b=forcing), start, t)[n:].reshape(n, n)
    return float(w @ second @ w)


def laplace_transform(params: ModelParams, matrix: AdmissibleMatrix, a, t: float) -> float:
    """Exact E[exp(-a @ u_t)] for the coordinates u = Q (v - shift) that simulate marches.

    u is affine: du = (K u + c) dt + sigma sqrt(u_N) e_N dW with sigma^2 the variance
    rate, so E[exp(-a @ u_t)] = exp(phi(t) + psi(t) @ u_0), where the Riccati system
    psi' = K^T psi + sigma^2 psi_N^2 e_N / 2, phi' = c @ psi, psi(0) = -a, phi(0) = 0,
    is integrated by ``scipy.integrate.solve_ivp`` at rtol 1e-12.
    """
    from scipy.integrate import solve_ivp

    domain = ConeDomain.for_initial_state(matrix, params.v0)
    dynamics = TransformedDynamics.from_params(params, domain)
    k, c = dynamics.A, dynamics.b
    n = c.size

    def riccati(_, y):
        psi = y[:n]
        dpsi = k.T @ psi
        dpsi[-1] += 0.5 * dynamics.variance_rate * psi[-1] ** 2
        return np.append(dpsi, c @ psi)

    end = solve_ivp(riccati, (0.0, t), np.append(-np.asarray(a, dtype=float), 0.0),
                    rtol=1e-12, atol=1e-14).y[:, -1]
    return math.exp(end[n] + end[:n] @ (matrix.Q @ (params.v0 - domain.shift)))
