"""Model parameters, the exponential-sum kernel, the aggregation map and the dynamics.

Everything downstream (matrix construction, simulation, PDE solves) consumes
a validated :class:`ModelParams`, so all precondition checks live here, and
the dynamics in original and in transformed coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import expm

from .admissible import AdmissibleMatrix

Array = NDArray[np.float64]


def _vector(values, name: str) -> Array:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Multifactor square-root volatility model.

    The model carries positive weights ``w``, positive non-decreasing
    mean-reversion nodes ``x`` (equal nodes are allowed), a mean level
    ``theta >= 0``, an aggregate reversion rate ``lam``, a vol-of-vol
    ``nu >= 0`` and an anchor vector ``v0`` for the factor mean reversion.
    The driving quantity everywhere is the aggregate ``w @ y``.
    """

    w: Array
    x: Array
    theta: float
    lam: float
    nu: float
    v0: Array

    def __post_init__(self):
        object.__setattr__(self, "w", _vector(self.w, "w"))
        object.__setattr__(self, "x", _vector(self.x, "x"))
        object.__setattr__(self, "v0", _vector(self.v0, "v0"))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "nu", float(self.nu))
        if self.x.size != self.w.size:
            raise ValueError(f"w and x must have equal length, got {self.w.size} and {self.x.size}")
        if self.v0.size != self.w.size:
            raise ValueError(f"v0 must have length {self.w.size}, got {self.v0.size}")
        if np.any(self.w <= 0.0):
            raise ValueError("all weights w must be strictly positive")
        if self.x[0] <= 0.0 or np.any(np.diff(self.x) < 0.0):
            raise ValueError("nodes x must be strictly positive and non-decreasing")
        if not all(math.isfinite(v) for v in (self.theta, self.lam, self.nu)):
            raise ValueError("theta, lambda and nu must be finite")
        if self.theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        scale = self.nu * self.wbar
        if not math.isfinite(scale * scale):  # float ** would raise OverflowError instead
            raise ValueError(f"nu = {self.nu} overflows the variance rate nu^2 wbar^2")

    @property
    def n_factors(self) -> int:
        return self.w.size

    @property
    def wbar(self) -> float:
        """Total weight, the kernel value at time zero."""
        return float(np.sum(self.w))

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        try:
            return cls(
                w=data["w"],
                x=data["x"],
                theta=data["theta"],
                lam=data["lambda"],
                nu=data["nu"],
                v0=data["v0"],
            )
        except KeyError as exc:
            raise ValueError(f"parameter file is missing key {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "ModelParams":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "w": self.w.tolist(),
            "x": self.x.tolist(),
            "theta": self.theta,
            "lambda": self.lam,
            "nu": self.nu,
            "v0": self.v0.tolist(),
        }


def load_params(path: str | Path) -> ModelParams:
    """Read a JSON parameter file with keys w, x, theta, lambda, nu, v0."""
    return ModelParams.from_json(path)


def kernel_eval(params: ModelParams, t):
    """Evaluate the exponential-sum kernel ``sum_i w_i exp(-x_i t)``.

    Accepts a scalar or an array of times, all of which must be >= 0.
    The result is strictly positive and non-increasing in t.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("kernel_eval requires t >= 0")
    vals = np.exp(-np.multiply.outer(t_arr, params.x)) @ params.w
    return float(vals) if np.isscalar(t) or t_arr.ndim == 0 else vals


def aggregate(params: ModelParams, y) -> float:
    """Weighted aggregate ``w @ y`` of a factor state vector."""
    y_arr = np.asarray(y, dtype=float)
    if y_arr.shape != (params.n_factors,):
        raise ValueError(f"state must have shape ({params.n_factors},), got {y_arr.shape}")
    return float(params.w @ y_arr)


@dataclass(frozen=True, eq=False)
class DriftSystem:
    """Linear drift d/dt v = A v + b with exact propagators.

    A couples the factors through the aggregate, b collects the mean levels.
    The propagator pair (exp(A h), integral of exp(A s) ds @ b) is computed
    from the exponential of the augmented (N+1) block matrix [[A, b], [0, 0]],
    which avoids inverting A and stays valid when A is singular.
    """

    A: Array
    b: Array

    @classmethod
    def from_params(cls, params: ModelParams) -> "DriftSystem":
        n = params.n_factors
        a = -params.lam * np.outer(np.ones(n), params.w) - np.diag(params.x)
        b = params.theta * np.ones(n) + params.x * params.v0
        return cls(A=a, b=b)

    def propagators(self, h: float) -> tuple[Array, Array]:
        """Pair (exp(A h), c(h)) with c(h) the accumulated constant forcing."""
        h = float(h)
        if h < 0.0:
            raise ValueError(f"step size must be >= 0, got {h}")
        n = self.A.shape[0]
        if h == 0.0:
            return np.eye(n), np.zeros(n)
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = self.A
        aug[:n, n] = self.b
        full = expm(aug * h)
        return full[:n, :n].copy(), full[:n, n].copy()


@dataclass(frozen=True, eq=False)
class TransformedDynamics:
    """The model in the coordinates u = Q v, where the cone is the orthant.

    When the last row of Q is w and Q 1 = wbar e_N, u_N is the aggregate and
    du = (K u + c) dt + nu wbar sqrt(u_N) e_N dW, where ``system`` holds
    K = Q A Q^-1 and c = Q b conjugated from :meth:`DriftSystem.from_params`.
    For an admissible Q, K = -G - lam wbar e_N e_N^T is a Metzler matrix and
    c = G Q v0 + theta wbar e_N, which keeps the orthant invariant.
    """

    system: DriftSystem
    #: variance rate nu^2 wbar^2 of u_N per unit of u_N
    variance_rate: float

    @classmethod
    def from_params(cls, params: ModelParams, matrix: AdmissibleMatrix) -> "TransformedDynamics":
        """Raises ValueError unless Q passes the row and column conditions."""
        report = matrix.report()
        if not (report.row_ok and report.col_ok):
            raise ValueError("transform matrix fails the row or column condition")
        original = DriftSystem.from_params(params)
        system = DriftSystem(A=matrix.Q @ original.A @ matrix.Qinv, b=matrix.Q @ original.b)
        return cls(system=system, variance_rate=params.nu**2 * params.wbar**2)

    def drift(self, u) -> Array:
        """Drift K u + c at one point or at the rows of an array of points."""
        return np.asarray(u, dtype=float) @ self.system.A.T + self.system.b

    @property
    def divergence(self) -> Array:
        """Per-axis terms d(K u + c)_i / du_i of the drift divergence."""
        return np.diag(self.system.A)

    def diffusion(self, u):
        """Generator coefficient of d^2/du_N^2, half the variance rate of u_N."""
        return 0.5 * self.variance_rate * np.asarray(u, dtype=float)[..., -1]
