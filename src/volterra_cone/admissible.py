"""Construction and verification of admissible transform matrices.

A square matrix Q is admissible for weights w and nodes x when

1. Q is invertible,
2. the last row of Q equals w,
3. Q @ ones = wbar * e_N with wbar = sum(w),
4. Q @ diag(x) @ Q^-1 has non-positive off-diagonal entries.

Such a Q maps the invariant state-space cone onto the non-negative orthant.
This module provides the canonical lower-bidiagonal construction for any N
with its closed-form inverse, the one-parameter family for N = 2, the
two-parameter family for N = 3 with its feasibility intervals, and a
numerical admissibility checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]

#: tolerance of the row and column conditions, relative to the largest |entry| of each row of Q
EQUALITY_TOL = 1e-10
#: tolerance for the off-diagonal sign condition
SIGN_TOL = 1e-12
#: condition-number threshold above which Q is reported as not invertible
COND_LIMIT = 1e12


def _check_weights(w) -> Array:
    w_arr = np.asarray(w, dtype=float)
    if w_arr.ndim != 1 or w_arr.size == 0:
        raise ValueError("weights must be a non-empty 1-d array")
    if not np.all(np.isfinite(w_arr)):
        raise ValueError(f"weights must be finite, got {w_arr.tolist()}")
    if np.any(w_arr <= 0.0):
        raise ValueError("all weights must be strictly positive")
    return w_arr


def _family(w, x, n: int | None = None, name: str = "") -> tuple[Array, Array]:
    """w and x as float arrays; ValueError unless w is finite and > 0 (with ``n``, of size n)
    and x has w's size, is finite, positive and non-decreasing."""
    w_arr = _check_weights(w)
    if n is not None and w_arr.size != n:
        raise ValueError(f"{name} requires exactly {n} weights, got {w_arr.size}")
    x_arr = np.asarray(x, dtype=float)
    if x_arr.shape != w_arr.shape:
        raise ValueError(f"nodes must have shape ({w_arr.size},), got {x_arr.shape}")
    if not np.all(np.isfinite(x_arr)):
        raise ValueError(f"nodes must be finite, got {x_arr.tolist()}")
    if x_arr[0] <= 0.0 or np.any(np.diff(x_arr) < 0.0):
        raise ValueError("nodes must be strictly positive and non-decreasing")
    return w_arr, x_arr


@dataclass(frozen=True, eq=False)
class AdmissibleMatrix:
    """Transform matrix Q with its inverse and the rate matrix G = Q diag(x) Q^-1."""

    Q: Array
    Qinv: Array
    w: Array
    x: Array

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def G(self) -> Array:
        """Rate matrix Q diag(x) Q^-1, computed on every access."""
        return (self.Q * self.x) @ self.Qinv

    def report(self) -> "AdmissibilityReport":
        return check_admissible(self.Q, self.w, self.x, Qinv=self.Qinv)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-condition verdicts of the four admissibility requirements."""

    invertible: bool
    cond_estimate: float
    row_ok: bool
    row_max_dev: float
    col_ok: bool
    col_max_dev: float
    offdiag_ok: bool
    #: (i, j, G[i, j]) of the largest off-diagonal entry; None when G has none (N = 1) or was
    #: not computed (a singular Q without ``Qinv``, so ``offdiag_ok`` is False)
    worst_offdiag: tuple[int, int, float] | None

    @property
    def admissible(self) -> bool:
        return self.invertible and self.row_ok and self.col_ok and self.offdiag_ok

    def to_dict(self) -> dict:
        def number(value: float) -> float | None:
            return value if math.isfinite(value) else None  # JSON has no inf or nan

        worst = self.worst_offdiag and dict(zip(("i", "j", "value"), self.worst_offdiag))
        return {
            "admissible": self.admissible,
            "invertible": {"ok": self.invertible, "cond_estimate": number(self.cond_estimate)},
            "row_condition": {"ok": self.row_ok, "max_deviation": number(self.row_max_dev)},
            "column_condition": {"ok": self.col_ok, "max_deviation": number(self.col_max_dev)},
            "offdiag_condition": {"ok": self.offdiag_ok, "worst_entry": worst},
        }


@np.errstate(all="ignore")
def canonical_inverse(w) -> Array:
    """Closed-form inverse of the canonical matrix built by :func:`build_canonical`.

    With partial sums S_j = w_1 + ... + w_j the inverse R has
    R[i, N-1] = 1/S_N for every i, R[i, j] = w_{j+1} / (S_j S_{j+1}) for
    i <= j < N-1 shifted one column left of the diagonal band, the first
    subdiagonal R[i+1, i] = -1/S_{i+1}, and zeros below that.  ValueError
    when an entry is not finite (weights so small that 1/S_j overflows).
    """
    w_arr = _check_weights(w)
    n = w_arr.size
    s = np.cumsum(w_arr)
    r = np.zeros((n, n))
    r[:, n - 1] = 1.0 / s[n - 1]
    for j in range(n - 1):
        r[: j + 1, j] = w_arr[j + 1] / (s[j] * s[j + 1])
        r[j + 1, j] = -1.0 / s[j + 1]
    if not np.isfinite(r).all():
        raise ValueError(f"the canonical inverse is not finite for weights {w_arr.tolist()}")
    return r


@np.errstate(all="ignore")
def build_canonical(w, x) -> AdmissibleMatrix:
    """Canonical admissible matrix for any dimension.

    Row i carries the leading weights w_1..w_i followed by -(w_1+...+w_i)
    on the superdiagonal; the last row is w itself.  The inverse is the
    closed form of :func:`canonical_inverse`, not a numerical inversion.
    ValueError when Q, the inverse or G is not finite.
    """
    w_arr, x_arr = _family(w, x)
    n = w_arr.size
    q = np.zeros((n, n))
    for i in range(n):
        q[i, : i + 1] = w_arr[: i + 1]
        if i < n - 1:
            q[i, i + 1] = -np.sum(w_arr[: i + 1])
    return _finite(AdmissibleMatrix(Q=q, Qinv=canonical_inverse(w_arr), w=w_arr, x=x_arr),
                   "canonical")


def check_admissible(Q, w, x, Qinv: Array | None = None) -> AdmissibilityReport:
    """Evaluate all four admissibility conditions of a candidate matrix.

    Non-admissible and even singular matrices are reported, never raised:
    deliberately failing choices are part of the intended workflow.  A Q
    with a non-finite entry is a ValueError, as is any other bad input.  When
    ``Qinv`` is not supplied the rate matrix is obtained through a linear
    solve against Q rather than explicit inversion.
    """
    q_arr = np.asarray(Q, dtype=float)
    w_arr, x_arr = _family(w, x)
    n = w_arr.size
    if q_arr.shape != (n, n):
        raise ValueError(f"Q must have shape ({n}, {n}), got {q_arr.shape}")
    if not np.isfinite(q_arr).all():
        raise ValueError(f"Q must be finite, got {q_arr.tolist()}")
    cond = float(np.linalg.cond(q_arr))
    invertible = bool(np.isfinite(cond) and cond < COND_LIMIT)
    (row_ok, row_dev), (col_ok, col_dev) = _row_and_column(q_arr, w_arr)

    offdiag_ok, worst = False, None
    if invertible or Qinv is not None:
        g = ((q_arr * x_arr) @ np.asarray(Qinv, dtype=float) if Qinv is not None
             else np.linalg.solve(q_arr.T, (q_arr * x_arr).T).T)
        off = np.where(np.eye(n, dtype=bool), -math.inf, g)
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)  # on the diagonal when N = 1
        worst = (int(i), int(j), float(g[i, j])) if i != j else None
        offdiag_ok = worst is None or worst[2] <= SIGN_TOL

    return AdmissibilityReport(
        invertible=invertible,
        cond_estimate=cond,
        row_ok=row_ok,
        row_max_dev=row_dev,
        col_ok=col_ok,
        col_max_dev=col_dev,
        offdiag_ok=offdiag_ok,
        worst_offdiag=worst,
    )


def _row_and_column(q: Array, w: Array) -> tuple[tuple[bool, float], tuple[bool, float]]:
    """Verdict and max |deviation| of conditions 2 (the last row of Q is w) and 3 (Q 1 = wbar e_N).

    Each row's deviation is held to EQUALITY_TOL times that row's largest |entry|,
    so the verdict does not depend on the scale of the weights.  A deviation
    that overflows is inf, and its condition fails.
    """
    scale = EQUALITY_TOL * np.max(np.abs(q), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        row = np.abs(q[-1] - w)
        col = np.abs(q @ np.ones(w.size) - np.sum(w) * np.eye(w.size)[-1])
    return ((bool(np.max(row) <= scale[-1]), float(np.max(row))),
            (bool(np.all(col <= scale)), float(np.max(col))))


def _finite(matrix: AdmissibleMatrix, parameters: str) -> AdmissibleMatrix:
    """``matrix``, or ValueError naming the family ``parameters`` when Q, Qinv or G is not finite.

    The family builders run under ``np.errstate(all="ignore")``, so an
    overflow is reported here and not as a RuntimeWarning.
    """
    if not all(np.isfinite(m).all() for m in (matrix.Q, matrix.Qinv, matrix.G)):
        raise ValueError(f"Q, Qinv or G is not finite for family {parameters}")
    return matrix


@np.errstate(all="ignore")
def build_q2(w, x, q: float) -> AdmissibleMatrix:
    """Two-dimensional family [[q, -q], [w1, w2]], admissible for any q > 0.

    The cone it generates does not depend on the choice of q.
    """
    w_arr, x_arr = _family(w, x, 2, "build_q2")
    q = float(q)
    if not (0.0 < q < math.inf):
        raise ValueError(f"family parameter q must be finite and > 0, got {q}")
    wbar = w_arr[0] + w_arr[1]
    mat = np.array([[q, -q], [w_arr[0], w_arr[1]]])
    inv = np.array([[w_arr[1] / q, 1.0], [-w_arr[0] / q, 1.0]]) / wbar
    return _finite(AdmissibleMatrix(Q=mat, Qinv=inv, w=w_arr, x=x_arr), f"parameter q = {q}")


def q3_bounds(w, x) -> tuple[float, float, float, float]:
    """Feasibility intervals (a_lo, a_hi, b_lo, b_hi) of the N = 3 family.

    Requires strictly increasing nodes since the bounds divide by the node
    gaps.  The defaults of :func:`q3_defaults` always lie inside the intervals.
    """
    w_arr, x_arr = _family(w, x, 3, "q3_bounds")
    y1 = x_arr[1] - x_arr[0]
    y2 = x_arr[2] - x_arr[1]
    if y1 <= 0.0 or y2 <= 0.0:
        raise ValueError("q3_bounds requires strictly increasing nodes")
    w1, w2, w3 = w_arr
    with np.errstate(all="ignore"):  # an overflow is reported below, not as a warning
        c = w3 * y1 + w2 * (y1 + y2) - w1 * y2
        disc = math.sqrt(c * c + 4.0 * w1 * w2 * y2 * (y1 + y2))
        ratio = (w2 / w1) * (w1 * y1 - w3 * y2) / (w2 * y1 + w3 * (y1 + y2))
        a_lo = max((-c + disc) / (2.0 * w1 * y2), ratio)
        a_hi = (y1 + y2) / y2
        b_lo = max(0.0, -ratio)
        b_hi = (c + disc) / (2.0 * w1 * y2)
    bounds = (a_lo, a_hi, b_lo, b_hi)
    if not all(math.isfinite(bound) for bound in bounds):
        raise ValueError(f"q3 bounds {bounds} are not finite for w = {w_arr.tolist()}, "
                         f"x = {x_arr.tolist()}")
    return bounds


def q3_defaults(w) -> tuple[float, float]:
    """Default family parameters (a, b) = (1, w2/w1) of :func:`build_q3`."""
    w_arr = _check_weights(w)
    if w_arr.size != 3:
        raise ValueError(f"the q3 family requires exactly 3 weights, got {w_arr.size}")
    return 1.0, float(w_arr[1] / w_arr[0])


@np.errstate(all="ignore")
def build_q3(w, x, a: float, b: float) -> AdmissibleMatrix:
    """Three-dimensional family [[1, -a, a-1], [1, b, -1-b], [w1, w2, w3]].

    Parameters outside :func:`q3_bounds` are accepted on purpose: the result
    is then flagged as non-admissible by :func:`check_admissible` instead of
    raising, so that deliberately failing configurations can be simulated.
    """
    w_arr, x_arr = _family(w, x, 3, "build_q3")
    a = float(a)
    b = float(b)
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise ValueError(f"family parameters must be finite and >= 0, got a={a}, b={b}")
    if a + b == 0.0:
        raise ValueError("a + b must be nonzero, the family is singular at a = b = 0")
    mat = np.array(
        [
            [1.0, -a, a - 1.0],
            [1.0, b, -1.0 - b],
            [w_arr[0], w_arr[1], w_arr[2]],
        ]
    )
    return _finite(AdmissibleMatrix(Q=mat, Qinv=np.linalg.inv(mat), w=w_arr, x=x_arr),
                   f"parameters a = {a}, b = {b}")
