"""The exact references checked against one another, with no Monte Carlo."""

from dataclasses import replace

import numpy as np
import pytest

from volterra_cone import ConeDomain, mean_oracle, transformed
from volterra_cone.oracle import aggregate_second_moment, laplace_transform
from volterra_cone.presets import preset

NAMES = ["fig2", "fig3a", "table1"]


@pytest.mark.parametrize("t", [0.1, 1.0])
@pytest.mark.parametrize("name", NAMES)
def test_without_noise_the_oracles_follow_the_mean(name, t):
    # at nu = 0 the state is deterministic: u_t = Q (E[v_t] - shift) and (w @ v_t)^2
    params, matrix = preset(name)
    params = replace(params, nu=0.0)
    mean = mean_oracle(params, t)
    u = transformed(ConeDomain.for_initial_state(matrix, params.v0), mean)
    a = np.linspace(1.0, 2.0, params.n_factors)
    assert laplace_transform(params, matrix, a, t) == pytest.approx(np.exp(-a @ u), rel=1e-12)
    assert aggregate_second_moment(params, t) == pytest.approx((params.w @ mean) ** 2, rel=1e-12)


@pytest.mark.parametrize("name", NAMES)
def test_the_laplace_transform_curves_by_the_second_moment(name):
    # u_N = w @ v, so d^2/ds^2 E[exp(-s u_N)] at s = 0 is E[(w @ v)^2]; the central
    # difference at s = 1e-2 is off by about s^2 E[u_N^4] / (12 E[u_N^2])
    params, matrix = preset(name)
    s = 1e-2
    last = np.eye(params.n_factors)[-1]
    curve = [laplace_transform(params, matrix, sign * s * last, 1.0) for sign in (1.0, 0.0, -1.0)]
    second = (curve[0] - 2.0 * curve[1] + curve[2]) / s**2
    assert second == pytest.approx(aggregate_second_moment(params, 1.0), rel=1e-4)
