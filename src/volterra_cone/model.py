"""Model parameters, the exponential-sum kernel and the dynamics.

Everything downstream (matrix construction, simulation, PDE solves) consumes
a validated :class:`ModelParams`, so all precondition checks live here, and
the dynamics in original and in transformed coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .admissible import _family, _row_and_column
from .cone import ConeDomain

Array = NDArray[np.float64]

#: the Taylor polynomial of the scaled exponential stops at the first degree m with
#: theta^(m+1) / (m+1)! <= TAYLOR_TOL, where theta <= 1 bounds the 1-norm of its argument
#: (so m <= 18); the omitted terms then stay below eps / 2 of the exponential (norm >= e^-theta)
TAYLOR_TOL = 2.0**-56
#: most squarings of the scaled exponential: each may double the relative rounding
#: error, and 2^32 eps ~ 1e-6
MAX_SQUARINGS = 32


def _vector(values, name: str) -> Array:
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of numbers, got {values!r}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _scalar(value, name: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    return number


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
        object.__setattr__(self, "theta", _scalar(self.theta, "theta"))
        object.__setattr__(self, "lam", _scalar(self.lam, "lambda"))
        object.__setattr__(self, "nu", _scalar(self.nu, "nu"))
        _family(self.w, self.x)
        if self.v0.size != self.w.size:
            raise ValueError(f"v0 must have length {self.w.size}, got {self.v0.size}")
        if self.theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(self.w)):
                raise ValueError(f"sum(w) overflows for w = {self.w.tolist()}")
        try:  # the expression of TransformedDynamics.variance_rate; float ** raises on overflow
            rate = self.nu**2 * self.wbar**2
        except OverflowError:
            rate = math.inf
        if not math.isfinite(rate):
            raise ValueError(f"the variance rate nu^2 wbar^2 overflows for nu = {self.nu}, "
                             f"wbar = {self.wbar}")

    @property
    def n_factors(self) -> int:
        return self.w.size

    @property
    def wbar(self) -> float:
        """Total weight, the kernel value at time zero."""
        return float(np.sum(self.w))

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        if not isinstance(data, dict):
            raise ValueError(f"parameter file must hold an object, got {type(data).__name__}")
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
    with open(path, "r", encoding="utf-8") as fh:
        return ModelParams.from_dict(json.load(fh))


def kernel_eval(params: ModelParams, t):
    """Evaluate the exponential-sum kernel ``sum_i w_i exp(-x_i t)``.

    Takes a time or an array of times, all >= 0, and returns t's shape (a numpy
    float for one time), strictly positive and non-increasing in t.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("kernel_eval requires t >= 0")
    return np.exp(-np.multiply.outer(t_arr, params.x)) @ params.w


def _augmented_exp(a: Array, b: Array, h: float) -> tuple[Array, Array]:
    """Top rows (exp(a h), forcing) of exp([[a, b], [0, 0]] h), as :class:`DriftSystem` says.

    Squaring [[E, F], [0, 1]] gives (E E, E F + F), which keeps the last row
    exact: F is not scaled by 2^s roundings of that 1.  F is linear in b, so
    b enters divided by the power of two that brings |b|_1 under ||a||_1,
    and F is multiplied back: both are exact, and the squarings, each of
    which may double the relative error, follow ||a h||_1 alone.  |b|_1 is
    summed in units of 2^top, the power of two of max|b|, so it does not
    overflow while every entry of b is finite; a b so small that ||a||_1 / 2^top
    overflows is left unscaled.
    """
    n = b.size
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a
    with np.errstate(over="ignore"):
        a_norm = float(np.abs(a).sum(axis=0).max())
        top = math.frexp(float(np.abs(b).max()))[1]
        b_norm = float(np.abs(np.ldexp(b, -top)).sum())  # |b|_1 / 2^top
        power = (math.frexp(b_norm)[1] + top - math.frexp(a_norm)[1] + 1
                 if 0.0 < a_norm and np.ldexp(a_norm, -top) < b_norm < math.inf else 0)
        aug[:n, n] = np.ldexp(b, -power)
        norm = float(np.abs(aug).sum(axis=0).max()) * h
    if not norm <= 2.0 ** (MAX_SQUARINGS - 1):  # NaN and inf too
        raise ValueError(f"drift step h = {h:.6g} is out of double-precision reach: "
                         f"||A h||_1 = {norm:.6g} needs more than {MAX_SQUARINGS} squarings")
    squarings = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    step = h / 2.0**squarings
    mu = float(aug.diagonal().min())
    eye = np.eye(n + 1)
    scaled = (aug - mu * eye) * step
    theta = 2.0 * norm / 2.0**squarings  # |mu| <= ||aug||_1, so ||scaled||_1 <= theta
    terms, tail = 0, theta
    while tail > TAYLOR_TOL:
        terms += 1
        tail *= theta / (terms + 1)
    result = eye
    for k in range(terms, 0, -1):
        result = eye + scaled @ result / k
    result *= math.exp(mu * step)
    prop, forcing = result[:n, :n], result[:n, n]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not as a warning
        for _ in range(squarings):
            forcing = prop @ forcing + forcing
            prop = prop @ prop
        forcing = np.ldexp(forcing, power)
    if not (np.isfinite(prop).all() and np.isfinite(forcing).all()):
        raise ValueError(f"drift step h = {h:.6g} overflows: exp(A h) is not finite, "
                         f"||A h||_1 = {norm:.6g}")
    return prop.copy(), forcing.copy()


@dataclass(frozen=True, eq=False)
class DriftSystem:
    """Linear drift d/dt v = A v + b with exact propagators.

    A couples the factors through the aggregate, b collects the mean levels.
    The propagator pair (exp(A h), integral of exp(A s) ds @ b) is read off
    the exponential of the augmented (N+1) block matrix [[A, b], [0, 0]] h,
    which avoids inverting A and stays valid when A is singular.  That
    exponential is computed with numpy alone by scaling and squaring
    (Moler & Van Loan 2003; Higham 2005): a Taylor polynomial of the matrix,
    shifted by its least diagonal entry and halved s times until its 1-norm
    is at most 1/2, is squared s times with its last row (0, ..., 0, 1) kept
    exact.  For a Metzler A and b >= 0 (the transformed drift of an
    admissible matrix) every term is entrywise >= 0, so the propagators are
    too.  A step is refused with a ValueError that names h and ||A h||_1,
    the 1-norm of the augmented matrix, when that norm exceeds 2^31 (each
    squaring may double the relative rounding error, and MAX_SQUARINGS
    bounds the growth by 2^32 eps ~ 1e-6) or when the exponential is not
    finite.
    """

    A: Array
    b: Array

    @classmethod
    def from_params(cls, params: ModelParams) -> "DriftSystem":
        n = params.n_factors
        with np.errstate(all="ignore"):  # callers check the propagators or K, c for overflow
            a = -params.lam * np.outer(np.ones(n), params.w) - np.diag(params.x)
            b = params.theta * np.ones(n) + params.x * params.v0
        return cls(A=a, b=b)

    def propagators(self, h: float) -> tuple[Array, Array]:
        """Pair (exp(A h), c(h)) with c(h) the accumulated constant forcing."""
        h = float(h)
        if h < 0.0:
            raise ValueError(f"step size must be >= 0, got {h}")
        return _augmented_exp(self.A, self.b, h)

    def drift(self, v) -> Array:
        """Drift A v + b at one point or at the rows of an array of points."""
        return np.asarray(v, dtype=float) @ self.A.T + self.b


@dataclass(frozen=True, eq=False)
class TransformedDynamics(DriftSystem):
    """The model in the coordinates u = Q (v - shift) of a :class:`ConeDomain`, the orthant.

    When the last row of Q is w and Q 1 = wbar e_N, u_N is the aggregate and
    du = (K u + c) dt + nu wbar sqrt(u_N) e_N dW.  As w @ shift = 0, A shift = -x shift,
    so K = Q A Q^-1 and c = Q b(v0 - shift) conjugate :meth:`DriftSystem.from_params`.
    For an admissible Q, K = -G - lam wbar e_N e_N^T is a Metzler matrix and
    c = G Q (v0 - shift) + theta wbar e_N, which keeps the orthant invariant.
    """

    #: variance rate nu^2 wbar^2 of u_N per unit of u_N
    variance_rate: float

    @classmethod
    def from_params(cls, params: ModelParams, domain: ConeDomain) -> "TransformedDynamics":
        """The model in the coordinates of ``domain``.

        Raises ValueError unless Q was built for the model's own w and x, passes
        the row and column conditions, and K, c are finite.
        """
        matrix = domain.matrix
        if not (np.array_equal(matrix.w, params.w) and np.array_equal(matrix.x, params.x)):
            raise ValueError(f"transform matrix is built for w = {matrix.w.tolist()}, "
                             f"x = {matrix.x.tolist()}, not the model's w = {params.w.tolist()}, "
                             f"x = {params.x.tolist()}")
        (row_ok, _), (col_ok, _) = _row_and_column(matrix.Q, matrix.w)
        if not (row_ok and col_ok):
            raise ValueError("transform matrix fails the row or column condition")
        original = DriftSystem.from_params(replace(params, v0=params.v0 - domain.shift))
        with np.errstate(all="ignore"):  # an overflow is reported below, not as a warning
            k, c = matrix.Q @ original.A @ matrix.Qinv, matrix.Q @ original.b
        if not (np.isfinite(k).all() and np.isfinite(c).all()):
            raise ValueError("transformed drift K u + c is not finite for this matrix")
        return cls(A=k, b=c, variance_rate=params.nu**2 * params.wbar**2)

    def diffusion(self, u):
        """Generator coefficient of d^2/du_N^2, half the variance rate of u_N."""
        return 0.5 * self.variance_rate * np.asarray(u, dtype=float)[..., -1]
