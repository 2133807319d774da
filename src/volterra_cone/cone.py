"""The invariant state-space cone and its membership and boundary checks.

The cone is the image of the non-negative orthant under the inverse of an
admissible matrix, optionally shifted so that an arbitrary anchor with the
same aggregate becomes reachable.  Membership, the canonical proportional
anchor, the non-negativity of the inverse rate matrix and the inward drift
on the faces of the orthant are all made executable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .admissible import SIGN_TOL, AdmissibleMatrix
from .model import ModelParams, TransformedDynamics

Array = NDArray[np.float64]

#: transformed coordinates below -MEMBERSHIP_TOL are outside the cone, for every check of it
MEMBERSHIP_TOL = 1e-9
#: inward drift components below -DRIFT_TOL on a face of the orthant are violations
DRIFT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ConeDomain:
    """State-space cone: all y with Q @ (y - shift) in the non-negative orthant.

    The one owner of the anchor's cone: ``simulate`` runs in its coordinates,
    and its initial check, its audit and :func:`contains` all use MEMBERSHIP_TOL.
    """

    matrix: AdmissibleMatrix
    shift: Array = None

    def __post_init__(self):
        n = self.matrix.n
        shift = np.zeros(n) if self.shift is None else np.asarray(self.shift, dtype=float)
        if shift.shape != (n,):
            raise ValueError(f"shift must have shape ({n},), got {shift.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            agg = float(self.matrix.w @ shift)
            scale = float(np.linalg.norm(self.matrix.w) * np.linalg.norm(shift))
        if not math.isfinite(scale):
            raise ValueError(f"shift {shift} is too large: |w| |shift| = {scale} is not finite")
        if abs(agg) > 1e-12 * max(1.0, scale):
            raise ValueError(f"shift must have zero aggregate, got w @ shift = {agg}")
        object.__setattr__(self, "shift", shift)

    @classmethod
    def for_initial_state(cls, matrix: AdmissibleMatrix, y0) -> "ConeDomain":
        """Cone shifted by y0 minus the proportional anchor of equal aggregate (>= 0)."""
        y0_arr = np.asarray(y0, dtype=float)
        anchor = canonical_anchor(matrix.w, matrix.x, float(matrix.w @ y0_arr))
        return cls(matrix=matrix, shift=y0_arr - anchor)


def canonical_anchor(w, x, Y0: float) -> Array:
    """Anchor proportional to 1/x whose aggregate equals Y0.

    Returns mu / x componentwise with mu = Y0 / sum(w_i / x_i), the unique
    vector of this shape satisfying w @ anchor = Y0.
    """
    w_arr = np.asarray(w, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if float(Y0) < 0.0:
        raise ValueError(f"aggregate must be >= 0, got {Y0}")
    mu = float(Y0) / float(np.sum(w_arr / x_arr))
    return mu / x_arr


def transformed(domain: ConeDomain, y) -> Array:
    """Coordinates Q @ (y - shift) of a point; all must be >= 0 inside the cone."""
    y_arr = np.asarray(y, dtype=float)
    if y_arr.shape != (domain.matrix.n,):
        raise ValueError(f"point must have shape ({domain.matrix.n},), got {y_arr.shape}")
    if not np.all(np.isfinite(y_arr)):
        raise ValueError(f"point must be finite, got {y_arr}")
    return domain.matrix.Q @ (y_arr - domain.shift)


def original(domain: ConeDomain, u) -> Array:
    """Points v = Q^-1 u + shift, the inverse of :func:`transformed`, on the last axis of u.

    u is one point or a stack of them, multiplied one matrix (last two axes)
    at a time.  A one-row matrix goes through BLAS gemv and a taller one
    through gemm, which round differently, so callers that must agree bit for
    bit pass matrices that are both one row or both taller.
    """
    v = np.asarray(u, dtype=float) @ domain.matrix.Qinv.T
    v += domain.shift
    return v


def contains(domain: ConeDomain, y) -> bool:
    """True when no transformed coordinate of y is below -MEMBERSHIP_TOL."""
    return bool(np.min(transformed(domain, y)) >= -MEMBERSHIP_TOL)


def canonical_halfspaces(w) -> list[tuple[Array, float]]:
    """Halfspace description of the canonical cone with zero shift.

    Returns pairs (coefficients, bound) meaning coefficients @ y >= bound:
    the aggregate inequality w @ y >= 0 followed by, for each leading block,
    w_1 y_1 + ... + w_i y_i >= (w_1 + ... + w_i) y_{i+1}.
    """
    w_arr = np.asarray(w, dtype=float)
    n = w_arr.size
    out: list[tuple[Array, float]] = [(w_arr.copy(), 0.0)]
    for i in range(n - 1):
        coeff = np.zeros(n)
        coeff[: i + 1] = w_arr[: i + 1]
        coeff[i + 1] = -np.sum(w_arr[: i + 1])
        out.append((coeff, 0.0))
    return out


def m_matrix_inverse_check(matrix: AdmissibleMatrix) -> bool:
    """True when every entry of Q @ diag(1/x) @ Q^-1 is >= -SIGN_TOL.

    For an admissible matrix the rate matrix is an M-matrix, so its inverse
    is entrywise non-negative; this implies the canonical anchor lies inside
    the cone.  Non-admissible matrices are still evaluable, the guarantee is
    simply lost.
    """
    inv_rate = (matrix.Q / matrix.x) @ matrix.Qinv
    return bool(np.min(inv_rate) >= -SIGN_TOL)


@dataclass(frozen=True)
class BoundaryCheckReport:
    """Lowest inward drift component over each face of the orthant, within a box."""

    min_drift: float
    worst_face: int
    n_violations: int

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def boundary_condition_check(
    matrix: AdmissibleMatrix,
    params: ModelParams,
    mu: float = 0.0,
) -> BoundaryCheckReport:
    """Audit inward drift on every face of the orthant.

    On face i (u_i = 0) the i-th component of the transformed drift of
    ``params`` with anchor mu / x must be >= -DRIFT_TOL for every u in the
    box [0, hi]^N, with hi matched to simulation magnitudes.  The component
    is linear in u, so its minimum sits at the vertex with u_j = hi where
    K_ij < 0 and u_j = 0 elsewhere; ``n_violations`` counts the faces below
    the tolerance.  Tangency needs no audit: only u_N carries noise, and it
    vanishes on the u_N face.  Raises ValueError for a matrix that fails the
    row or column condition.
    """
    if mu < 0.0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    dynamics = TransformedDynamics.from_params(replace(params, v0=mu / params.x), matrix)
    hi = 10.0 * max(float(np.max(params.v0)), params.theta / float(np.min(params.x)))
    if hi <= 0.0:
        hi = 1.0
    worst = hi * (dynamics.system.A < 0.0)  # row i: the worst vertex of face i
    np.fill_diagonal(worst, 0.0)
    face_min = np.diag(dynamics.drift(worst))
    return BoundaryCheckReport(
        min_drift=float(np.min(face_min)),
        worst_face=int(np.argmin(face_min)),
        n_violations=int(np.sum(face_min < -DRIFT_TOL)),
    )
