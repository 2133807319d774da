import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from volterra_cone import (
    AdmissibleMatrix,
    ConeDomain,
    DriftSystem,
    ModelParams,
    PathConfig,
    PdeProblem,
    TransformedDynamics,
    build_canonical,
    build_q2,
    build_q3,
    canonical_inverse,
    check_admissible,
    kernel_eval,
    load_params,
    mean_oracle,
    q3_bounds,
    simulate,
    three_point_law,
    transformed,
)
from volterra_cone.presets import PRESETS, preset


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


@pytest.mark.parametrize("name", ["table1", "fig3a"])
def test_kernel_of_one_time_is_entry_0_of_a_batch_of_one(name):
    # one body serves one time and many: a float equal bit for bit to the one-row batch
    params = preset(name)[0]
    times = np.random.default_rng(0).uniform(0.0, 5.0, size=2000).tolist()
    values = [kernel_eval(params, t) for t in times]
    assert all(isinstance(value, float) for value in values)
    assert values == [kernel_eval(params, [t])[0] for t in times]


def test_kernel_vectorized_and_monotone():
    params = make_params()
    ts = np.sort(np.random.default_rng(0).uniform(0.0, 5.0, size=200))
    vals = kernel_eval(params, ts)
    assert vals.shape == ts.shape
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) <= 0.0)


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


TWO_FACTORS = ([1.0, 2.0], [1.0, 10.0])


def table1_pde(alpha=(3.0, 4.0), beta=1.6, matrix=None):
    params, own = preset("table1")
    return PdeProblem(params=params, matrix=own if matrix is None else matrix, alpha=alpha,
                      beta=beta, T=2.0, box=((0.0, 4.0), (0.0, 4.0)), n=8)


@pytest.mark.parametrize("call, message", [
    (lambda: build_canonical([[1.0, 2.0]], [1.0, 10.0]), "weights must be a non-empty 1-d"),
    (lambda: build_canonical([], []), "weights must be a non-empty 1-d"),
    (lambda: build_canonical([1.0, -2.0], [1.0, 10.0]), "all weights must be strictly positive"),
    (lambda: build_canonical([1.0, 2.0], [1.0]), "nodes must have shape (2,)"),
    (lambda: build_canonical([1.0, 2.0], [10.0, 1.0]), "non-decreasing"),
    (lambda: check_admissible(np.eye(3), *TWO_FACTORS), "Q must have shape (2, 2)"),
    (lambda: check_admissible([[math.nan, -1.0], [1.0, 2.0]], *TWO_FACTORS), "Q must be finite"),
    (lambda: check_admissible([[math.inf, -1.0], [1.0, 2.0]], *TWO_FACTORS), "Q must be finite"),
    (lambda: build_q2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 1.0), "exactly 2 weights"),
    (lambda: q3_bounds(*TWO_FACTORS), "exactly 3 weights"),
    (lambda: build_q3([1.0, 2.0], [1.0, 10.0], 1.0, 2.0), "exactly 3 weights"),
    (lambda: ConeDomain(build_canonical(*TWO_FACTORS), shift=[0.0]), "shift must have shape"),
    (lambda: transformed(ConeDomain(build_canonical(*TWO_FACTORS)), [1.0]),
     "point must have shape (2,)"),
    (lambda: check_admissible(build_canonical(*TWO_FACTORS).Q, [1.0, 2.0], [math.nan, 10.0]),
     "nodes must be finite"),
    (lambda: check_admissible(build_canonical(*TWO_FACTORS).Q, [math.nan, 2.0], [1.0, 10.0]),
     "weights must be finite"),
    (lambda: check_admissible(build_canonical(*TWO_FACTORS).Q, [1.0, 2.0], [1.0, math.inf]),
     "nodes must be finite"),
    (lambda: check_admissible(build_canonical(*TWO_FACTORS).Q, [1.0, math.inf], [1.0, 10.0]),
     "weights must be finite"),
    (lambda: make_params(v0=[[0.01, 0.001]]), "v0 must be a non-empty 1-d array"),
    (lambda: make_params(x=[1.0, math.inf]), "x contains non-finite entries"),
    (lambda: table1_pde(alpha=(math.nan, 1.0)), "alpha and beta must be finite"),
    (lambda: table1_pde(beta=math.inf), "alpha and beta must be finite"),
    (lambda: preset("fig4"), "unknown preset 'fig4'"),
    (lambda: three_point_law(1e308, 1.0), "three-point law of x = 1e+308, z = 1.0 is not finite"),
    (lambda: three_point_law(1.0, 1e308), "three-point law of x = 1.0, z = 1e+308 is not finite"),
    (lambda: canonical_inverse([1e-320, 1e-320]), "canonical inverse is not finite"),
], ids=["weights-2d", "weights-empty", "weights-negative", "nodes-short", "nodes-decreasing",
        "q-shape", "q-nan", "q-inf", "q2-three-weights", "q3-bounds-two-weights", "q3-two-weights",
        "shift-shape", "point-shape", "check-x-nan", "check-w-nan", "check-x-inf",
        "check-w-inf", "v0-2d", "x-inf", "pde-alpha-nan", "pde-beta-inf",
        "unknown-preset", "three-point-law-x-overflow", "three-point-law-z-overflow",
        "canonical-inverse-overflow"])
def test_library_input_checks_raise_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_dynamics_refuse_a_matrix_built_for_another_model():
    # the matrix's anchor and cone would follow (w, x) of the matrix while K, c and the
    # variance rate follow the model's, so both applications would model something else
    params, _ = preset("fig2")
    with pytest.raises(ValueError, match=r"built for w = \[3.0, 0.5\], x = \[2.0, 7.0\]"):
        simulate(params, build_canonical([3.0, 0.5], [2.0, 7.0]),
                 PathConfig(T=1.0, M=50, n_paths=2000, seed=1))
    with pytest.raises(ValueError, match=r"model's w = \[0.4, 1.8\], x = \[0.1, 3.5\]"):
        table1_pde(matrix=build_canonical([1.0, 1.0], [0.5, 2.0]))


def test_dynamics_refuse_a_matrix_that_fails_the_row_or_column_condition():
    # the identity has neither w as its last row nor Q 1 = wbar e_N, so u_N is not the aggregate
    params, _ = preset("fig2")
    identity = AdmissibleMatrix(Q=np.eye(2), Qinv=np.eye(2), w=params.w, x=params.x)
    with pytest.raises(ValueError, match="fails the row or column condition"):
        TransformedDynamics.from_params(params, ConeDomain(identity))


def assert_transformed_closed_form(params, domain):
    # K = -G - lam wbar e_N e_N^T and c = G Q (v0 - shift) + theta wbar e_N
    dynamics = TransformedDynamics.from_params(params, domain)
    matrix = domain.matrix
    e_n = np.eye(params.n_factors)[-1]
    k = -matrix.G - params.lam * params.wbar * np.outer(e_n, e_n)
    c = matrix.G @ matrix.Q @ (params.v0 - domain.shift) + params.theta * params.wbar * e_n
    assert np.linalg.norm(dynamics.A - k) <= 1e-12 * np.linalg.norm(k)
    assert np.linalg.norm(dynamics.b - c) <= 1e-12 * np.linalg.norm(c)
    assert dynamics.variance_rate == pytest.approx(params.nu**2 * params.wbar**2, rel=1e-15)
    # the change of variables: the drift of u = Q (v - shift) is Q times the drift of v
    original = DriftSystem.from_params(params)
    v = np.random.default_rng(params.n_factors).uniform(-1.0, 1.0, (5, params.n_factors))
    u = (v - domain.shift) @ matrix.Q.T
    expected = original.drift(v) @ matrix.Q.T
    scale = (np.linalg.norm(k) * np.linalg.norm(u) + np.linalg.norm(c) + np.linalg.norm(matrix.Q)
             * (np.linalg.norm(original.A) * np.linalg.norm(v) + np.linalg.norm(original.b)))
    assert np.linalg.norm(dynamics.drift(u) - expected) <= 1e-12 * scale


def closed_form_domains(params, matrix):
    """The unshifted cone of ``matrix`` and, where its aggregate is >= 0, the anchor's cone."""
    domains = [ConeDomain(matrix)]
    if params.w @ params.v0 >= 0.0:
        domains.append(ConeDomain.for_initial_state(matrix, params.v0))
    return domains


def test_transformed_dynamics_closed_form_presets():
    for name in ("table1", "fig2", "fig3a", "fig3c"):
        params, matrix = preset(name)
        domains = closed_form_domains(params, matrix)
        assert len(domains) == 2
        for domain in domains:
            assert_transformed_closed_form(params, domain)


def test_transformed_dynamics_closed_form_random_canonical():
    rng = np.random.default_rng(2412)
    shifted = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        w = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=n))
        x = np.sort(rng.uniform(0.01, 50.0, size=n))
        params = ModelParams(w=w, x=x, theta=rng.uniform(0.01, 1.0), lam=rng.uniform(-1.0, 2.0),
                             nu=rng.uniform(0.0, 1.0), v0=rng.uniform(-1.0, 1.0, size=n))
        domains = closed_form_domains(params, build_canonical(w, x))
        shifted += len(domains) - 1
        for domain in domains:
            assert_transformed_closed_form(params, domain)
    assert shifted >= 50


def stepped_systems(name):
    """A preset's drift in v and the shifted drift in u that :func:`simulate` steps."""
    params, matrix = preset(name)
    domain = ConeDomain.for_initial_state(matrix, params.v0)
    return DriftSystem.from_params(params), TransformedDynamics.from_params(params, domain)


@pytest.mark.parametrize("name", ["table1", "fig1", "fig2", "fig3a", "fig3b", "fig3c"])
def test_propagators_match_scipy_expm(name):
    for system in stepped_systems(name):
        n = system.b.size
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = system.A
        aug[:n, n] = system.b
        for h in (1e-6, 5e-4, 0.01, 1.0, 10.0):
            expected = expm(aug * h)[:n]
            prop, forcing = system.propagators(h)
            error = np.max(np.abs(np.column_stack([prop, forcing]) - expected))
            scale = max(1.0, h * np.max(np.sum(np.abs(aug), axis=0))) * np.max(np.abs(expected))
            assert error <= 1e-14 * scale, (h, error / scale)


@pytest.mark.parametrize("name", ["table1", "fig1", "fig2", "fig3a", "fig3b"])
def test_half_step_propagators_of_admissible_presets_are_non_negative(name):
    T, M, _ = PRESETS[name][2]
    prop, forcing = stepped_systems(name)[1].propagators(0.5 * T / M)
    assert np.min(prop) >= 0.0 and np.min(forcing) >= 0.0


def test_propagators_of_random_metzler_drifts_are_non_negative():
    # a Metzler A shifted by its least diagonal entry is entrywise >= 0, so no term cancels;
    # scipy.linalg.expm gives negative entries, down to -1.7e-16, on 4 of these 2 000 draws
    rng = np.random.default_rng(5)
    for _ in range(2000):
        n = int(rng.integers(2, 5))
        a = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5) * 10.0 ** rng.uniform(-3, 1)
        np.fill_diagonal(a, -10.0 ** rng.uniform(-1, 2, n))
        b = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
        prop, forcing = DriftSystem(A=a, b=b).propagators(10.0 ** rng.uniform(-6, 2))
        assert np.min(prop) >= 0.0 and np.min(forcing) >= 0.0


def test_propagators_refuse_steps_out_of_double_precision_reach():
    system = DriftSystem.from_params(make_params())
    assert np.isfinite(system.propagators(1e4)[0]).all()
    for h in (1e9, 1e300):  # ||A h||_1 past 2^31, the reach of 32 squarings
        with pytest.raises(ValueError, match=r"h = .* \|\|A h\|\|_1 = .* squarings"):
            system.propagators(h)
    with pytest.raises(ValueError, match=r"not finite, \|\|A h\|\|_1 = 1000"):
        DriftSystem(A=np.array([[1000.0]]), b=np.zeros(1)).propagators(1.0)
    # the forcing is scaled out of the norm, so the refusal names ||A h||_1, not |b|_1 h
    with pytest.raises(ValueError, match=r"\|\|A h\|\|_1 = 4e\+09 needs"):
        DriftSystem(A=np.array([[-4e9]]), b=np.array([1e20])).propagators(1.0)
    for b in (math.inf, math.nan):
        with pytest.raises(ValueError, match="out of double-precision reach"):
            DriftSystem(A=np.array([[-1.0]]), b=np.array([b])).propagators(1.0)


@pytest.mark.parametrize("theta", [2e3, 2e7])
def test_propagators_are_accurate_whatever_the_size_of_the_forcing(theta):
    # the forcing column b is scaled into ||A||_1, so it adds no squarings: each could
    # double the relative error (3.8e-8 of the forcing at theta = 2e7 when b set them)
    mpmath = pytest.importorskip("mpmath")
    w, x = np.array([1.0, 2.0]), np.array([1.0, 10.0])
    params = ModelParams(w=w, x=x, theta=theta, lam=0.3, nu=0.0, v0=1.0 / (30.0 * x))
    system = DriftSystem.from_params(params)
    aug = np.zeros((3, 3))
    aug[:2, :2], aug[:2, 2] = system.A, system.b
    with mpmath.workdps(40):
        exact = np.array(mpmath.expm(mpmath.matrix(aug.tolist())).tolist(), dtype=float)[:2]
    prop, forcing = system.propagators(1.0)
    assert np.max(np.abs(prop - exact[:, :2])) <= 1e-14 * np.max(np.abs(exact[:, :2]))
    assert np.max(np.abs(forcing - exact[:, 2])) <= 1e-14 * np.max(np.abs(exact[:, 2]))


@pytest.mark.parametrize("theta", [1e308, 1.7e308])
def test_mean_is_linear_in_theta_up_to_the_largest_finite_forcing(theta):
    # |b|_1 overflows here although every entry of b is finite, so the scale of the
    # forcing must come from its largest entry
    def mean(theta):
        return mean_oracle(make_params(theta=theta, v0=[0.0, 0.0]), 1.0)

    np.testing.assert_allclose(mean(theta), theta * mean(1.0), rtol=1e-14)
