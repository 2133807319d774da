import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from volterra_cone import (
    DriftSystem,
    ModelParams,
    PathConfig,
    build_canonical,
    canonical_anchor,
    mean_oracle,
    ode_step,
    simulate,
    stochastic_step,
    strang_step,
    three_point_law,
)
from volterra_cone import scheme
from volterra_cone.presets import preset
from volterra_cone.scheme import SPREAD, _audit_probabilities, _law_arrays, _n_workers


def fig2_params(nu=0.3):
    w = np.array([1.0, 2.0])
    x = np.array([1.0, 10.0])
    return ModelParams(w=w, x=x, theta=0.02, lam=0.3, nu=nu, v0=canonical_anchor(w, x, 0.02))


def table1_params():
    return ModelParams(w=[0.4, 1.8], x=[0.1, 3.5], theta=0.8, lam=1.2, nu=0.7, v0=[0.2, 0.3])


def rk4(system, z, T, steps):
    dt = T / steps
    rhs = lambda v: system.A @ v + system.b
    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        z = z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def test_drift_system_entries():
    params = fig2_params()
    system = DriftSystem.from_params(params)
    n = params.n_factors
    for i in range(n):
        for j in range(n):
            expected = -params.lam * params.w[j] - (params.x[i] if i == j else 0.0)
            assert system.A[i, j] == pytest.approx(expected, abs=1e-14)
    np.testing.assert_allclose(system.b, params.theta + params.x * params.v0, atol=1e-14)


def test_zero_step_propagators():
    system = DriftSystem.from_params(fig2_params())
    prop, shift = system.propagators(0.0)
    np.testing.assert_array_equal(prop, np.eye(2))
    np.testing.assert_array_equal(shift, np.zeros(2))
    z = np.array([0.3, 0.4])
    np.testing.assert_array_equal(ode_step(system, z, 0.0), z)


def test_ode_step_decoupled_closed_form():
    params = ModelParams(w=[1.0, 2.0], x=[1.0, 10.0], theta=0.05, lam=0.0, nu=0.1, v0=[0.3, 0.04])
    system = DriftSystem.from_params(params)
    z = np.array([0.2, 0.9])
    h = 0.37
    fixed = params.v0 + params.theta / params.x
    expected = fixed + (z - fixed) * np.exp(-params.x * h)
    np.testing.assert_allclose(ode_step(system, z, h), expected, atol=1e-13)


def test_ode_step_against_fine_integrator():
    system = DriftSystem.from_params(table1_params())
    z = np.array([0.5, 0.7])
    got = ode_step(system, z, 1e-3)
    reference = rk4(system, z.copy(), 1e-3, 1000)
    assert np.max(np.abs(got - reference)) <= 1e-10


def test_ode_step_rejects_negative_step():
    system = DriftSystem.from_params(fig2_params())
    with pytest.raises(ValueError):
        ode_step(system, np.zeros(2), -0.1)


def test_three_point_law_zero_budget_is_point_mass():
    law = three_point_law(0.7, 0.0)
    assert law.support == (0.7, 0.7, 0.7)
    assert sum(law.probabilities) == pytest.approx(1.0, abs=1e-15)


def test_three_point_law_absorbed_at_zero():
    law = three_point_law(0.0, 0.5)
    assert law.probabilities == (1.0, 0.0, 0.0)
    assert law.x1 == 0.0
    assert law.moments() == (0.0, 0.0, 0.0)


def test_three_point_law_reference_moments():
    law = three_point_law(1.0, 0.04)
    m1, m2, m3 = law.moments()
    assert sum(law.probabilities) == pytest.approx(1.0, abs=1e-12)
    assert m1 == pytest.approx(1.0, abs=1e-12)
    assert m2 == pytest.approx(1.04, abs=1e-12)
    assert m3 == pytest.approx(1.1224, abs=1e-12)


def test_three_point_law_rejects_negative_inputs():
    with pytest.raises(ValueError):
        three_point_law(-0.1, 0.1)
    with pytest.raises(ValueError):
        three_point_law(0.1, -0.1)
    for x, z in ((math.nan, 0.1), (math.inf, 0.1), (0.1, math.nan), (0.1, math.inf)):
        with pytest.raises(ValueError):
            three_point_law(x, z)


# x = 10^a with a in [-300, 300], or exactly 0
aggregates = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda a: 10.0**a))


@pytest.mark.filterwarnings("error")  # no overflow, division or invalid-value warnings
@settings(max_examples=300, deadline=None)
@given(x=aggregates, b=st.floats(-300.0, 300.0))
def test_three_point_law_valid_over_whole_range(x, b):
    law = three_point_law(x, 10.0**b)
    assert all(0.0 <= p <= 1.0 for p in law.probabilities)
    assert abs(sum(law.probabilities) - 1.0) <= 1e-15
    assert 0.0 <= law.x1 <= law.x2 <= law.x3


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-15.0, 15.0), b=st.floats(-15.0, 15.0))
def test_three_point_law_moments_over_thirty_decades(a, b):
    x, z = 10.0**a, 10.0**b
    targets = (x, x * x + x * z, x**3 + 3.0 * x * x * z + 1.5 * x * z * z)
    for got, want in zip(three_point_law(x, z).moments(), targets):
        assert abs(got - want) <= 1e-12 * want


def test_three_point_law_random_moment_exactness():
    rng = np.random.default_rng(7)
    xs = rng.uniform(1e-6, 10.0, size=200)
    zs = rng.uniform(1e-6, 1.0, size=200)
    for x, z in zip(xs, zs):
        law = three_point_law(float(x), float(z))
        m1, m2, m3 = law.moments()
        t1, t2, t3 = x, x * x + x * z, x**3 + 3.0 * x * x * z + 1.5 * x * z * z
        assert abs(m1 - t1) <= 1e-10 * abs(t1)
        assert abs(m2 - t2) <= 1e-10 * abs(t2)
        assert abs(m3 - t3) <= 1e-10 * abs(t3)
        assert law.x1 >= 0.0
        assert law.x1 <= law.x2 <= law.x3
        for p in law.probabilities:
            assert -1e-12 <= p <= 1.0 + 1e-12


def test_lower_support_point_nonnegativity_identity():
    # (x + (A + 3/4) z)^2 - (3x + (A + 3/4)^2 z) z = x^2 + (2A - 3/2) x z
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, z = rng.uniform(0.0, 10.0, size=2)
        lhs = (x + (SPREAD + 0.75) * z) ** 2 - (3.0 * x + (SPREAD + 0.75) ** 2 * z) * z
        rhs = x * x + (2.0 * SPREAD - 1.5) * x * z
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert rhs >= 0.0


def test_probability_audit_counts_violations():
    assert _audit_probabilities(np.array([1.5]), np.array([-0.5]), np.array([0.0])) == 2


def test_stochastic_step_inverse_cdf_branches():
    params = fig2_params()
    y = canonical_anchor(params.w, params.x, 0.05)
    h = 0.01
    law = three_point_law(float(params.w @ y), params.nu**2 * params.wbar**2 * h)
    stepped = stochastic_step(params, y, h, 0.5 * law.p1)
    assert params.w @ stepped == pytest.approx(law.x1, rel=1e-12)
    stepped = stochastic_step(params, y, h, law.p1 + 0.5 * law.p2)
    assert params.w @ stepped == pytest.approx(law.x2, rel=1e-12)
    stepped = stochastic_step(params, y, h, 1.0 - 1e-12)
    assert params.w @ stepped == pytest.approx(law.x3, rel=1e-12)


def test_strang_step_rejects_non_finite_state():
    params = fig2_params()
    with pytest.raises(ValueError, match="left the cone"):
        strang_step(params, DriftSystem.from_params(params), [math.nan, 0.01], 0.01, 0.5)


def test_stochastic_step_zero_cases():
    params = fig2_params()
    y = np.array([0.02, 0.005])
    np.testing.assert_array_equal(stochastic_step(params, y, 0.0, 0.3), y)
    boundary = np.array([0.02, -0.01])  # aggregate exactly zero
    np.testing.assert_array_equal(stochastic_step(params, boundary, 0.01, 0.9), boundary)


def test_stochastic_step_rejects_negative_aggregate():
    params = fig2_params()
    with pytest.raises(ValueError):
        stochastic_step(params, np.array([-1.0, -1.0]), 0.01, 0.5)


def test_strang_zero_step_is_identity():
    params = fig2_params()
    system = DriftSystem.from_params(params)
    v = params.v0.copy()
    np.testing.assert_array_equal(strang_step(params, system, v, 0.0, 0.7), v)


def test_strang_deterministic_limit_matches_ode():
    params = fig2_params(nu=0.0)
    system = DriftSystem.from_params(params)
    v = np.array([0.05, 0.001])
    for h in (0.01, 0.1, 1.0):
        split = strang_step(params, system, v, h, 0.42)
        direct = ode_step(system, v, h)
        assert np.max(np.abs(split - direct)) <= 1e-12


def test_strang_step_preserves_cone():
    params = fig2_params()
    system = DriftSystem.from_params(params)
    matrix = build_canonical(params.w, params.x)
    rng = np.random.default_rng(13)
    coords = rng.uniform(0.0, 0.2, size=(10_000, 2))
    points = coords @ matrix.Qinv.T
    hs = rng.uniform(0.0, 0.1, size=10_000)
    us = rng.random(10_000)
    for v, h, u in zip(points, hs, us):
        out = strang_step(params, system, v, float(h), float(u))
        assert np.min(matrix.Q @ out) >= -1e-9


def test_simulate_deterministic_limit_matches_ode_steps():
    params = fig2_params(nu=0.0)
    matrix = build_canonical(params.w, params.x)
    config = PathConfig(T=1.0, M=64, n_paths=1, seed=5, record_full=True)
    cloud = simulate(params, matrix, config)
    system = DriftSystem.from_params(params)
    state = params.v0.copy()
    for j in range(config.M + 1):
        assert np.max(np.abs(cloud.states[0, j] - state)) <= 1e-10
        state = ode_step(system, state, config.T / config.M)


def test_simulate_is_seed_deterministic():
    params = fig2_params()
    matrix = build_canonical(params.w, params.x)
    config = PathConfig(T=1.0, M=200, n_paths=16, seed=99, record_full=True)
    first = simulate(params, matrix, config)
    second = simulate(params, matrix, config)
    np.testing.assert_array_equal(first.states, second.states)
    assert first.audit() == second.audit()


def test_n_workers_follows_batch_width_and_cpus(monkeypatch):
    os = scheme.os
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _n_workers(1000) == 1
    assert _n_workers(20_000) == min(4, cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _n_workers(20_000) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(scheme.os, "cpu_count", lambda: 3)
    assert _n_workers(20_000) == 3


def test_simulate_is_worker_count_independent(monkeypatch):
    params = fig2_params()
    matrix = build_canonical(params.w, params.x)
    config = PathConfig(T=1.0, M=200, n_paths=17, seed=21, record_full=True)
    block = scheme._simulate_block
    widths = []

    def counted(initial, prop, shift, z_budget, uniforms, record_full):
        widths.append(uniforms.shape[0])
        return block(initial, prop, shift, z_budget, uniforms, record_full)

    monkeypatch.setattr(scheme, "_simulate_block", counted)
    monkeypatch.setattr(scheme, "_n_workers", lambda n_paths: 1)
    serial = simulate(params, matrix, config)
    monkeypatch.setattr(scheme, "_n_workers", lambda n_paths: 4)
    threaded = simulate(params, matrix, config)
    assert widths[0] == 17 and sorted(widths[1:]) == [4, 4, 4, 5]
    np.testing.assert_array_equal(serial.states, threaded.states)
    np.testing.assert_array_equal(
        serial.min_transformed_per_path, threaded.min_transformed_per_path
    )


def test_simulate_rejects_initial_state_outside_cone():
    params = fig2_params()
    matrix = build_canonical(params.w, params.x)
    config = PathConfig(T=1.0, M=10, n_paths=2, seed=0)
    with pytest.raises(ValueError):
        simulate(params, matrix, config, initial_state=np.array([0.01, 0.03]))


def test_simulate_terminal_recording_shape():
    params = fig2_params()
    matrix = build_canonical(params.w, params.x)
    cloud = simulate(params, matrix, PathConfig(T=1.0, M=50, n_paths=8, seed=3))
    assert cloud.states.shape == (8, 1, 2)
    assert cloud.steps.tolist() == [50]
    assert cloud.times[0] == pytest.approx(1.0)


def test_simulate_corruption_hook_changes_result(skip_final_half_drift):
    params = fig2_params()
    matrix = build_canonical(params.w, params.x)
    config = PathConfig(T=1.0, M=50, n_paths=8, seed=3)
    clean = simulate(params, matrix, config)
    skip_final_half_drift()
    corrupt = simulate(params, matrix, config)
    assert np.max(np.abs(clean.states - corrupt.states)) > 0.0


def test_simulate_matches_iterated_scalar_strang_step():
    params = fig2_params()
    matrix = build_canonical(params.w, params.x)
    config = PathConfig(T=1.0, M=200, n_paths=1, seed=23, record_full=True)
    states = simulate(params, matrix, config).states[0]
    system = DriftSystem.from_params(params)
    uniforms = np.random.default_rng([config.seed, 0]).random(config.M)
    state = params.v0.copy()
    for j, u in enumerate(uniforms):
        state = strang_step(params, system, state, config.T / config.M, float(u))
        assert np.max(np.abs(states[j + 1] - state)) <= 1e-12


def test_simulate_rejects_matrix_failing_row_or_column_condition():
    params = fig2_params()
    good = build_canonical(params.w, params.x)
    config = PathConfig(T=1.0, M=10, n_paths=2, seed=0)
    row_q = np.array([[1.0, -1.0], [1.5, 1.5]])  # Q @ 1 = wbar e_N, last row not w
    col_q = np.array([[1.0, 0.0], [1.0, 2.0]])  # last row w, Q @ 1 != wbar e_N
    for q in (row_q, col_q):
        with pytest.raises(ValueError):
            simulate(params, replace(good, Q=q, Qinv=np.linalg.inv(q)), config)


def test_simulate_monte_carlo_mean_matches_oracle():
    params = fig2_params()
    matrix = build_canonical(params.w, params.x)
    config = PathConfig(T=1.0, M=200, n_paths=4000, seed=17)
    cloud = simulate(params, matrix, config)
    terminal = cloud.aggregates[:, -1]
    exact = float(params.w @ mean_oracle(params, 1.0))
    stderr = float(np.std(terminal, ddof=1) / math.sqrt(terminal.size))
    assert abs(float(np.mean(terminal)) - exact) <= 3.0 * stderr


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(T=0.0, M=10, n_paths=1, seed=0)
    with pytest.raises(ValueError):
        PathConfig(T=1.0, M=0, n_paths=1, seed=0)
    with pytest.raises(ValueError):
        PathConfig(T=1.0, M=10, n_paths=0, seed=0)
    for horizon in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            PathConfig(T=horizon, M=10, n_paths=1, seed=0)


def test_mean_oracle_values():
    params = fig2_params()
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            mean_oracle(params, t)
    np.testing.assert_array_equal(mean_oracle(params, 0.0), params.v0)
    lam0 = ModelParams(w=[1.0, 2.0], x=[1.0, 10.0], theta=0.05, lam=0.0, nu=0.1, v0=[0.3, 0.04])
    t = 0.8
    fixed = lam0.v0 + lam0.theta / lam0.x
    expected = fixed + (lam0.v0 - fixed) * np.exp(-lam0.x * t)
    np.testing.assert_allclose(mean_oracle(lam0, t), expected, atol=1e-13)


def test_law_arrays_vectorized_matches_scalar():
    rng = np.random.default_rng(19)
    xs = rng.uniform(0.0, 5.0, size=50)
    z = 0.03
    x1, x2, x3, p1, p2, p3 = _law_arrays(xs, z)
    for i, x in enumerate(xs):
        law = three_point_law(float(x), z)
        assert law.x1 == pytest.approx(float(x1[i]), abs=1e-15)
        assert law.p2 == pytest.approx(float(p2[i]), abs=1e-15)


def test_simulate_in_cone_of_shifted_anchor():
    # table1's v0 = (0.2, 0.3) is not proportional to 1/x: outside the unshifted cone
    params, matrix = preset("table1")
    assert np.min(matrix.Q @ params.v0) < -0.01
    cloud = simulate(params, matrix, PathConfig(T=1.0, M=1000, n_paths=1000, seed=0))
    assert cloud.n_violations == 0 and cloud.sqrt_clamp_count == 0
    terminal = cloud.states[:, -1]
    stderr = np.std(terminal, axis=0, ddof=1) / math.sqrt(terminal.shape[0])
    assert np.all(np.abs(np.mean(terminal, axis=0) - mean_oracle(params, 1.0)) <= 4.0 * stderr)


def aggregate_second_moment(params, t):
    """Exact E[(w @ v_t)^2]: one expm of the linear ODE of m = E[v] and P = E[v v^T].

    dm/dt = A m + b and dP/dt = A P + P A^T + b m^T + m b^T + nu^2 (w @ m) 1 1^T,
    with P flattened row-major, so vec(A P) = (A x I) vec(P), vec(P A^T) = (I x A) vec(P).
    """
    system = DriftSystem.from_params(params)
    a, b, w = system.A, system.b, params.w
    n = params.n_factors
    eye = np.eye(n)
    size = n + n * n + 1  # m, vec(P), constant 1
    gen = np.zeros((size, size))
    gen[:n, :n] = a
    gen[:n, -1] = b
    gen[n:-1, :n] = (np.kron(b[:, None], eye) + np.kron(eye, b[:, None])
                     + params.nu**2 * np.outer(np.ones(n * n), w))
    gen[n:-1, n:-1] = np.kron(a, eye) + np.kron(eye, a)
    start = np.concatenate([params.v0, np.outer(params.v0, params.v0).ravel(), [1.0]])
    second = (expm(gen * t) @ start)[n:-1].reshape(n, n)
    return float(w @ second @ w)


@pytest.mark.parametrize("name", ["fig2", "fig3a"])
def test_simulate_second_moment_matches_oracle(name):
    params, matrix = preset(name)
    cloud = simulate(params, matrix, PathConfig(T=1.0, M=200, n_paths=10_000, seed=5))
    squares = cloud.aggregates[:, -1] ** 2
    stderr = float(np.std(squares, ddof=1) / math.sqrt(squares.size))
    assert abs(float(np.mean(squares)) - aggregate_second_moment(params, 1.0)) <= 4.0 * stderr
