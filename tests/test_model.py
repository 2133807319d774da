import json
import math

import numpy as np
import pytest

from volterra_cone import (
    ModelParams,
    TransformedDynamics,
    aggregate,
    build_canonical,
    kernel_eval,
    load_params,
)
from volterra_cone.presets import preset


def make_params(**overrides):
    base = dict(w=[1.0, 2.0], x=[1.0, 10.0], theta=0.02, lam=0.3, nu=0.3, v0=[0.01, 0.001])
    base.update(overrides)
    return ModelParams(**base)


def test_kernel_at_zero_is_total_weight():
    assert kernel_eval(make_params(), 0.0) == 3.0


def test_kernel_decays_to_zero():
    assert kernel_eval(make_params(), 100.0) < 1e-12


def test_kernel_direct_scalar_evaluation():
    expected = math.exp(-0.5) + 2.0 * math.exp(-5.0)
    assert kernel_eval(make_params(), 0.5) == pytest.approx(expected, abs=1e-15)


def test_kernel_rejects_negative_time():
    with pytest.raises(ValueError):
        kernel_eval(make_params(), -0.1)


def test_kernel_vectorized_and_monotone():
    params = make_params()
    ts = np.sort(np.random.default_rng(0).uniform(0.0, 5.0, size=200))
    vals = kernel_eval(params, ts)
    assert vals.shape == ts.shape
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) <= 0.0)


def test_aggregate_values():
    params = make_params()
    assert aggregate(params, [0.0, 0.0]) == 0.0
    assert aggregate(params, [1.0, 1.0]) == 3.0
    table1 = make_params(w=[0.4, 1.8], x=[0.1, 3.5], v0=[0.2, 0.3])
    assert aggregate(table1, [0.2, 0.3]) == pytest.approx(0.62, abs=1e-15)


def test_aggregate_dimension_mismatch():
    with pytest.raises(ValueError):
        aggregate(make_params(), [1.0, 2.0, 3.0])


def test_aggregate_is_linear():
    params = make_params(w=[0.7, 1.3], x=[0.5, 2.0])
    rng = np.random.default_rng(1)
    for _ in range(50):
        y, z = rng.normal(size=(2, 2))
        a, b = rng.normal(size=2)
        lhs = aggregate(params, a * y + b * z)
        rhs = a * aggregate(params, y) + b * aggregate(params, z)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_params(w=[1.0, -2.0])
    with pytest.raises(ValueError):
        make_params(w=[1.0, 0.0])
    with pytest.raises(ValueError):
        make_params(x=[10.0, 1.0])
    with pytest.raises(ValueError):
        make_params(x=[-1.0, 1.0])
    with pytest.raises(ValueError):
        make_params(theta=-0.1)
    with pytest.raises(ValueError):
        make_params(nu=-0.1)
    with pytest.raises(ValueError):
        make_params(v0=[0.1])


def test_tied_nodes_are_accepted():
    params = make_params(x=[2.0, 2.0])
    assert params.x.tolist() == [2.0, 2.0]


def test_json_round_trip(tmp_path):
    params = make_params()
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params.to_dict()))
    loaded = load_params(path)
    assert np.array_equal(loaded.w, params.w)
    assert np.array_equal(loaded.x, params.x)
    assert loaded.lam == params.lam
    assert np.array_equal(loaded.v0, params.v0)


def test_json_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"w": [1.0], "x": [1.0]}))
    with pytest.raises(ValueError):
        load_params(path)


def assert_transformed_closed_form(params, matrix):
    # K = -G - lam wbar e_N e_N^T and c = G Q v0 + theta wbar e_N
    dynamics = TransformedDynamics.from_params(params, matrix)
    e_n = np.eye(params.n_factors)[-1]
    k = -matrix.G - params.lam * params.wbar * np.outer(e_n, e_n)
    c = matrix.G @ matrix.Q @ params.v0 + params.theta * params.wbar * e_n
    assert np.linalg.norm(dynamics.system.A - k) <= 1e-12 * np.linalg.norm(k)
    assert np.linalg.norm(dynamics.system.b - c) <= 1e-12 * np.linalg.norm(c)
    assert np.max(np.abs(dynamics.divergence - np.diag(k))) <= 1e-12 * np.linalg.norm(k)
    assert dynamics.variance_rate == pytest.approx(params.nu**2 * params.wbar**2, rel=1e-15)


def test_transformed_dynamics_closed_form_presets():
    for name in ("table1", "fig2", "fig3a", "fig3c"):
        assert_transformed_closed_form(*preset(name))


def test_transformed_dynamics_closed_form_random_canonical():
    rng = np.random.default_rng(2412)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        w = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=n))
        x = np.sort(rng.uniform(0.01, 50.0, size=n))
        params = ModelParams(w=w, x=x, theta=rng.uniform(0.01, 1.0), lam=rng.uniform(-1.0, 2.0),
                             nu=rng.uniform(0.0, 1.0), v0=rng.uniform(-1.0, 1.0, size=n))
        assert_transformed_closed_form(params, build_canonical(w, x))
