"""Named parameter sets for one-command reproduction of the reference runs."""

from __future__ import annotations

from functools import partial

from .admissible import AdmissibleMatrix, build_canonical, build_q3
from .cone import canonical_anchor
from .model import ModelParams

#: truncation boxes of the PDE study, all of side length 4
PDE_BOXES = {
    "box1": ((0.0, 4.0), (0.0, 4.0)),
    "box2": ((-0.5, 3.5), (-0.5, 3.5)),
    "box3": ((-0.5, 3.5), (0.0, 4.0)),
}


def params_table1() -> ModelParams:
    """Two-factor volatility parameters of the PDE numerical example."""
    return ModelParams(
        w=(0.4, 1.8), x=(0.1, 3.5), theta=0.8, lam=1.2, nu=0.7, v0=(0.2, 0.3)
    )


def params_anchored(w, x) -> ModelParams:
    """Sample-cloud parameters with weights w and nodes x, anchor proportional to 1/x."""
    return ModelParams(
        w=w, x=x, theta=0.02, lam=0.3, nu=0.3, v0=canonical_anchor(w, x, 0.02)
    )


_fig2 = partial(params_anchored, (1.0, 2.0), (1.0, 10.0))
_fig3 = partial(params_anchored, (1.0, 2.0, 3.0), (1.0, 5.0, 25.0))

#: each preset's model, its q3 family parameters (a, b) or None for the canonical
#: matrix, and its default grid (T, M, n_paths) at desk scale.  fig3a and fig3b lie
#: inside the feasibility intervals, fig3c does not.  The violation in fig3c is
#: deliberately strong: mild ones produce a cone that still contains the reachable
#: states, so no escape would be visible.
PRESETS = {
    "table1": (params_table1, None, (1.0, 1000, 1000)),
    "fig1": (_fig2, None, (1.0, 1000, 100000)),
    "fig2": (_fig2, None, (10.0, 10000, 1000)),
    "fig3a": (_fig3, (1.0, 2.0), (10.0, 10000, 1000)),
    "fig3b": (_fig3, (1.1, 1.5), (10.0, 10000, 1000)),
    "fig3c": (_fig3, (2.0, 2.0), (10.0, 10000, 1000)),
}


def preset(name: str) -> tuple[ModelParams, AdmissibleMatrix]:
    """Resolve a preset name to its parameters and transform matrix."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {', '.join(PRESETS)}")
    model, family, _ = PRESETS[name]
    params = model()
    if family is None:
        return params, build_canonical(params.w, params.x)
    return params, build_q3(params.w, params.x, *family)
