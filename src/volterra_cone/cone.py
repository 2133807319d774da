"""The invariant state-space cone and its membership check.

The cone is the image of the non-negative orthant under the inverse of an
admissible matrix, optionally shifted so that an arbitrary anchor with the
same aggregate becomes reachable.  Membership, the coordinate maps and the
canonical proportional anchor are made executable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .admissible import AdmissibleMatrix

Array = NDArray[np.float64]

#: transformed coordinates below -MEMBERSHIP_TOL are outside the cone, for every check of it
MEMBERSHIP_TOL = 1e-9


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
        with np.errstate(over="ignore", invalid="ignore"):  # canonical_anchor names a non-finite one
            aggregate = float(matrix.w @ y0_arr)
        anchor = canonical_anchor(matrix.w, matrix.x, aggregate)
        return cls(matrix=matrix, shift=y0_arr - anchor)


def canonical_anchor(w, x, Y0: float) -> Array:
    """Anchor proportional to 1/x whose aggregate equals Y0.

    Returns mu / x componentwise with mu = Y0 / sum(w_i / x_i), the unique
    vector of this shape satisfying w @ anchor = Y0.  ValueError when Y0 is
    negative or not finite, when sum(w_i / x_i) is not finite and positive, or
    when the anchor is not finite.
    """
    w_arr = np.asarray(w, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    Y0 = float(Y0)
    if Y0 < 0.0:
        raise ValueError(f"aggregate must be >= 0, got {Y0}")
    with np.errstate(over="ignore"):
        total = float(np.sum(w_arr / x_arr))
    if not (math.isfinite(Y0) and math.isfinite(total) and total > 0.0):
        raise ValueError(f"anchor needs a finite aggregate w @ v0 and a finite, positive "
                         f"sum(w / x), got {Y0} and {total}")
    mu = Y0 / total
    with np.errstate(over="ignore"):
        anchor = mu / x_arr
    if not np.isfinite(anchor).all():
        raise ValueError(f"anchor mu / x = {anchor} is not finite, mu = {mu}")
    return anchor


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
