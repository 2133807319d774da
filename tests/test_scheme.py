import math
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_cone import (
    ConeDomain,
    DriftSystem,
    ModelParams,
    PathConfig,
    TransformedDynamics,
    build_canonical,
    mean_oracle,
    simulate,
    three_point_law,
)
from volterra_cone import scheme
from volterra_cone.cone import MEMBERSHIP_TOL, contains, transformed
from volterra_cone.oracle import aggregate_second_moment, drift_flow, laplace_transform
from volterra_cone.presets import params_anchored, preset
from volterra_cone.scheme import SPREAD, _audit_probabilities


def test_a_path_generator_seed_holds_four_uint64_words_only():
    seed_seq = scheme._path_generators(1, 0, 1)[0].bit_generator.seed_seq
    with pytest.raises(ValueError, match="holds 4 uint64 words, asked for 8"):
        seed_seq.generate_state(8)


def test_one_usable_cpu_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert scheme._usable_cpus() == 1


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
    params = preset("fig2")[0]
    system = DriftSystem.from_params(params)
    n = params.n_factors
    for i in range(n):
        for j in range(n):
            expected = -params.lam * params.w[j] - (params.x[i] if i == j else 0.0)
            assert system.A[i, j] == pytest.approx(expected, abs=1e-14)
    np.testing.assert_allclose(system.b, params.theta + params.x * params.v0, atol=1e-14)


def test_zero_step_propagators():
    system = DriftSystem.from_params(preset("fig2")[0])
    prop, shift = system.propagators(0.0)
    np.testing.assert_array_equal(prop, np.eye(2))
    np.testing.assert_array_equal(shift, np.zeros(2))
    z = np.array([0.3, 0.4])
    np.testing.assert_array_equal(drift_flow(system, z, 0.0), z)


def test_ode_step_decoupled_closed_form():
    params = ModelParams(w=[1.0, 2.0], x=[1.0, 10.0], theta=0.05, lam=0.0, nu=0.1, v0=[0.3, 0.04])
    system = DriftSystem.from_params(params)
    z = np.array([0.2, 0.9])
    h = 0.37
    fixed = params.v0 + params.theta / params.x
    expected = fixed + (z - fixed) * np.exp(-params.x * h)
    np.testing.assert_allclose(drift_flow(system, z, h), expected, atol=1e-13)


def test_ode_step_against_fine_integrator():
    system = DriftSystem.from_params(preset("table1")[0])
    z = np.array([0.5, 0.7])
    got = drift_flow(system, z, 1e-3)
    reference = rk4(system, z.copy(), 1e-3, 1000)
    assert np.max(np.abs(got - reference)) <= 1e-10


def test_ode_step_rejects_negative_step():
    system = DriftSystem.from_params(preset("fig2")[0])
    with pytest.raises(ValueError):
        drift_flow(system, np.zeros(2), -0.1)


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


def test_probability_audit_counts_nan():
    with np.errstate(over="ignore", invalid="ignore"):
        law = reference_law(np.array([1.6e308]), 1e-3)
    assert np.isnan(law[3:5]).all()  # p1 and p2
    assert _audit_probabilities(*law[3:6]) == 2


# 0, 1 and 2**32 - 1 are one word, 2**32 two, 2**64 + 5 three; with the path index, a
# four-word seed overflows the four-word pool and a six-word one does so by three words
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 2**40 + 3, 2**192 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_path_generators_match_numpy_streams(seed):
    edge = scheme.BLOCK_PATHS
    for first, last in [(0, 3), (edge - 2, edge + 2), (2**32 - 2, 2**32)]:
        generators = scheme._path_generators(seed, first, last)
        assert len(generators) == last - first
        for k, generator in enumerate(generators, start=first):
            np.testing.assert_array_equal(generator.random(100),
                                          np.random.default_rng([seed, k]).random(100))


def test_strang_step_preserves_cone():
    # one step of five paths from each of 2 000 random cone states and step sizes
    params, matrix = preset("fig2")
    rng = np.random.default_rng(13)
    points = rng.uniform(0.0, 0.2, size=(2_000, 2)) @ matrix.Qinv.T
    for seed, (v, h) in enumerate(zip(points, rng.uniform(0.0, 0.1, size=2_000))):
        cloud = simulate(params, matrix, PathConfig(T=float(h), M=1, n_paths=5, seed=seed),
                         initial_state=v)
        assert cloud.n_violations == 0 and cloud.sqrt_clamp_count == 0
        assert cloud.min_transformed >= -1e-9


def test_simulate_deterministic_limit_matches_ode_steps():
    params, matrix = preset("fig2")
    params = replace(params, nu=0.0)
    config = PathConfig(T=1.0, M=64, n_paths=1, seed=5, record_full=True)
    cloud = simulate(params, matrix, config)
    system = DriftSystem.from_params(params)
    state = params.v0.copy()
    for j in range(config.M + 1):
        assert np.max(np.abs(cloud.states[0, j] - state)) <= 1e-10
        state = drift_flow(system, state, config.T / config.M)


def test_simulate_is_seed_deterministic():
    params, matrix = preset("fig2")
    config = PathConfig(T=1.0, M=200, n_paths=16, seed=99, record_full=True)
    first = simulate(params, matrix, config)
    second = simulate(params, matrix, config)
    np.testing.assert_array_equal(first.states, second.states)
    assert first.audit() == second.audit()


def test_simulate_is_block_size_independent(monkeypatch):
    # fig3c escapes its cone, so the violation counter is not zero; one worker, because the
    # calls a forked worker makes are not seen by this process
    params, matrix = preset("fig3c")
    config = PathConfig(T=10.0, M=200, n_paths=17, seed=21, record_full=True)
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: 1)
    block = scheme._simulate_block
    widths = []

    def counted(*args):
        first, last = args[-2:]
        widths.append(last - first)
        return block(*args)

    monkeypatch.setattr(scheme, "_simulate_block", counted)
    monkeypatch.setattr(scheme, "BLOCK_PATHS", 17)
    whole = simulate(params, matrix, config, require_initial_in_cone=False)
    monkeypatch.setattr(scheme, "BLOCK_PATHS", 4)
    split = simulate(params, matrix, config, require_initial_in_cone=False)
    assert widths == [17, 3, 3, 4, 3, 4]
    assert whole.n_violations > 0
    np.testing.assert_array_equal(whole.transformed, split.transformed)
    assert whole.audit() == split.audit()


def escape_run(monkeypatch, cpus):
    """fig3c (escape) with 43 paths in blocks of at most 8, marched by min(6, cpus) processes."""
    monkeypatch.setattr(scheme, "BLOCK_PATHS", 8)
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: cpus)
    params, matrix = preset("fig3c")
    config = PathConfig(T=10.0, M=60, n_paths=43, seed=17, record_full=True)
    return simulate(params, matrix, config, require_initial_in_cone=False)


def forked_pids(monkeypatch):
    """The pids of the children ``os.fork`` makes from now on, in a list that fills as they come."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, 0)


def test_simulate_is_worker_count_independent(monkeypatch):
    step = scheme._strang_step

    def counting(*args):  # one clamp and one bad probability per block and step
        low, clamps = step(*args)
        p3 = args[6][5]  # the step's law rows, which the batch's audit reads afterwards
        p3[0] = 2.0
        return low, clamps + 1

    monkeypatch.setattr(scheme, "_strang_step", counting)
    pids = forked_pids(monkeypatch)
    one = escape_run(monkeypatch, 1)
    assert one.workers == 1 and not pids
    assert one.n_violations > 0
    assert one.sqrt_clamp_count == one.prob_violations == 6 * 60
    for cpus in (2, 3):
        many = escape_run(monkeypatch, cpus)
        assert many.workers == cpus
        np.testing.assert_array_equal(many.transformed, one.transformed)
        assert many.audit() == one.audit()
        assert set(many.timings) == set(one.timings)
    assert len(pids) == 1 + 2
    assert_reaped(pids)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_simulate_raises_the_failure_of_the_lowest_block(monkeypatch, cpus):
    # blocks start at paths 0, 7, 14, 21, 28, 35; every one but the first fails
    block = scheme._simulate_block

    def failing(*args):
        first = args[-2]
        if first > 0:
            raise RuntimeError(f"block {first}")
        return block(*args)

    monkeypatch.setattr(scheme, "_simulate_block", failing)
    pids = forked_pids(monkeypatch)
    with pytest.raises(RuntimeError, match=r"^block 7$"):
        escape_run(monkeypatch, cpus)
    assert len(pids) == cpus - 1
    assert_reaped(pids)


def test_simulate_reports_a_worker_that_dies_without_a_report(monkeypatch):
    block = scheme._simulate_block
    parent = os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return block(*args)

    monkeypatch.setattr(scheme, "_simulate_block", dying)
    pids = forked_pids(monkeypatch)
    with pytest.raises(ChildProcessError, match=r"worker \d+ exited with status 3 without a report"):
        escape_run(monkeypatch, 2)
    assert len(pids) == 1
    assert_reaped(pids)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forked_map_deals_items_round_robin_and_yields_them_in_order(monkeypatch, workers):
    pids = forked_pids(monkeypatch)
    results = list(scheme.forked_map(lambda item: (item, os.getpid()), list(range(7)), workers))
    assert [item for item, _ in results] == list(range(7))
    # item i is computed by process i mod W, this one for i mod W = 0
    computed_by = [os.getpid(), *pids]
    assert [pid for _, pid in results] == [computed_by[i % workers] for i in range(7)]
    assert len(pids) == workers - 1
    assert_reaped(pids)


def test_forked_map_reaps_its_workers_when_the_consumer_stops_early(monkeypatch):
    def work(item):
        if item % 3 == 2:  # worker 2 would outlive the test if it were not killed
            time.sleep(60)
        return item

    pids = forked_pids(monkeypatch)
    results = scheme.forked_map(work, list(range(9)), 3)
    assert [next(results), next(results)] == [0, 1]
    started = time.perf_counter()
    results.close()
    assert time.perf_counter() - started < 10
    assert len(pids) == 2
    assert_reaped(pids)


def test_merged_block_reports_keep_the_least_minima_and_sum_the_rest():
    one = {"min_transformed": -0.5, "min_aggregate": 2.0, "n_violations": 3,
           "sqrt_clamp_count": 1, "prob_violations": 0,
           "seed_s": 0.25, "uniforms_s": 0.5, "steps_s": 1.0}
    other = {"min_transformed": 0.0, "min_aggregate": 1.0, "n_violations": 4,
             "sqrt_clamp_count": 0, "prob_violations": 2,
             "seed_s": 0.5, "uniforms_s": 0.25, "steps_s": 2.0}
    expected = {"min_transformed": -0.5, "min_aggregate": 1.0, "n_violations": 7,
                "sqrt_clamp_count": 1, "prob_violations": 2,
                "seed_s": 0.75, "uniforms_s": 0.75, "steps_s": 3.0}
    assert scheme._merged(one, other) == scheme._merged(other, one) == expected
    for key in ("min_transformed", "min_aggregate"):
        # a min over every path's minimum is NaN when one of them is, whichever block holds it
        poisoned = {**one, key: math.nan}
        for merged in (scheme._merged(poisoned, other), scheme._merged(other, poisoned)):
            assert math.isnan(merged[key]) and set(merged) == set(one)


def reference_law(x, z):
    """The three-point law as numpy expressions, one new array per operation."""
    if z == 0.0:
        return x, x, x, np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    c = SPREAD + 0.75
    s = math.sqrt(z) * np.sqrt(3.0 * x + c * c * z)
    x2 = x + SPREAD * z
    x3 = x + c * z + s
    x1 = x * ((x + (2.0 * SPREAD - 1.5) * z) / x3)
    p2 = 2.0 * x / (3.0 * x + SPREAD * (SPREAD + 1.5) * z)
    p3 = ((x / (x + SPREAD * (c * z + s))) * (z / (2.0 * s))
          * ((x + SPREAD * (1.5 - SPREAD) * z) / (s + 0.75 * z)))
    return x1, x2, x3, 1.0 - p2 - p3, p2, p3


def reference_simulate(params, matrix, config, u0=None):
    """Row-major march of every path at once, with the whole (paths, M) uniform matrix.

    The state is (paths, N), the aggregate is read through the row e_N and the
    jump is added along e_N to every coordinate.  Same arithmetic as the
    in-place kernel, so :func:`simulate` must match it bit for bit.
    """
    domain = ConeDomain.for_initial_state(matrix, params.v0)
    dynamics = TransformedDynamics.from_params(params, domain)
    if u0 is None:
        u0 = matrix.Q @ (params.v0 - domain.shift)
    h = config.T / config.M
    prop, forcing = dynamics.propagators(0.5 * h)
    z_budget = dynamics.variance_rate * h
    uniforms = np.empty((config.n_paths, config.M))
    for k in range(config.n_paths):
        uniforms[k] = np.random.default_rng([config.seed, k]).random(config.M)

    state = np.tile(u0, (config.n_paths, 1))
    last = np.eye(u0.size)[-1]
    min_trans = state.min(axis=1)
    min_agg = state[:, -1].copy()
    violations = config.n_paths - np.count_nonzero(min_trans >= -MEMBERSHIP_TOL)
    clamps = bad = 0
    recorded = [state]
    for u in uniforms.T:
        state = state @ prop.T + forcing
        agg = state @ last
        if agg.min() < 0.0:
            clamps += int(np.sum(agg < 0.0))
            agg = np.maximum(agg, 0.0)
        x1, x2, x3, p1, p2, p3 = reference_law(agg, z_budget)
        bad += _audit_probabilities(p1, p2, p3)
        draw = np.where(u < p1, x1, np.where(u < p1 + p2, x2, x3))
        state = state + (draw - agg)[:, None] * last
        state = state @ prop.T + forcing
        low = state.min(axis=1)
        min_trans = np.minimum(min_trans, low)
        min_agg = np.minimum(min_agg, state[:, -1])
        violations += config.n_paths - np.count_nonzero(low >= -MEMBERSHIP_TOL)
        recorded.append(state)
    return {
        "transformed": np.stack(recorded if config.record_full else recorded[-1:], axis=1),
        "min_transformed": float(np.min(min_trans)),
        "min_aggregate": float(np.min(min_agg)),
        "n_violations": violations,
        "sqrt_clamp_count": clamps,
        "prob_violations": bad,
    }


@pytest.mark.parametrize("name, escape", [
    ("fig2", False), ("fig3c", True), ("table1", False),
], ids=["fig2", "fig3c-escape", "table1-shifted"])
def test_simulate_matches_row_major_reference_bit_for_bit(monkeypatch, name, escape):
    # small blocks, tiles and chunks, so 43 paths span several blocks, each drawn through
    # tiles of 3, 3 and 2 or 1 paths, and M = 2 chunks + 37 steps
    monkeypatch.setattr(scheme, "BLOCK_PATHS", 8)
    monkeypatch.setattr(scheme, "DRAW_TILE", 3)
    monkeypatch.setattr(scheme, "CHUNK_STEPS", 16)
    params, matrix = preset(name)
    config = PathConfig(T=10.0 if escape else 1.0, M=2 * 16 + 37, n_paths=43, seed=4,
                        record_full=True)
    cloud = simulate(params, matrix, config, require_initial_in_cone=not escape)
    for key, value in reference_simulate(params, matrix, config).items():
        np.testing.assert_array_equal(getattr(cloud, key), value, err_msg=key)
    assert (cloud.n_violations > 0) == escape


def test_simulate_matches_row_major_reference_when_aggregates_clamp(monkeypatch):
    # start at u = (-a, -a, 0), where the first half drift takes u_3 to -5e-10
    monkeypatch.setattr(scheme, "BLOCK_PATHS", 8)
    params, matrix = preset("fig3c")
    config = PathConfig(T=1.0, M=20, n_paths=19, seed=8, record_full=True)
    domain = ConeDomain.for_initial_state(matrix, params.v0)
    prop, forcing = TransformedDynamics.from_params(params, domain).propagators(
        0.5 * config.T / config.M)
    a = (forcing[-1] + 5e-10) / (prop[-1, 0] + prop[-1, 1])
    u0 = np.array([-a, -a, 0.0])
    cloud = simulate(params, matrix, config, initial_state=matrix.Qinv @ u0 + domain.shift,
                     require_initial_in_cone=False)
    expected = reference_simulate(params, matrix, config, u0=cloud.transformed[0, 0])
    for key, value in expected.items():
        np.testing.assert_array_equal(getattr(cloud, key), value, err_msg=key)
    assert cloud.sqrt_clamp_count >= config.n_paths


def traced_peak_of_two_blocks_each(monkeypatch, cpus):
    """The traced peak of simulating fig2 with 20 000 x ``cpus`` paths x 2 000 steps."""
    # this process marches two blocks of 10 000 paths in a row, so a block's chunk and
    # generators kept past its end show in its peak; forked workers are not traced
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: cpus)
    params, matrix = preset("fig2")
    tracemalloc.start()
    try:
        cloud = simulate(params, matrix, PathConfig(T=1.0, M=2000, n_paths=cpus * 20_000, seed=6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cloud.workers == cpus
    assert cloud.n_violations == 0
    return peak


def test_simulate_memory_does_not_grow_with_the_batch(monkeypatch):
    # the whole 20 000 x 2 000 uniform matrix alone would be 320 MB
    peak = traced_peak_of_two_blocks_each(monkeypatch, 1)
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_simulate_memory_does_not_grow_with_the_batch_of_each_worker(monkeypatch):
    # four blocks: this process marches blocks 0 and 2, the forked worker 1 and 3
    peak = traced_peak_of_two_blocks_each(monkeypatch, 2)
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_simulate_rejects_initial_state_outside_cone():
    params, matrix = preset("fig2")
    config = PathConfig(T=1.0, M=10, n_paths=2, seed=0)
    with pytest.raises(ValueError):
        simulate(params, matrix, config, initial_state=np.array([0.01, 0.03]))


def test_simulate_terminal_recording_shape():
    params, matrix = preset("fig2")
    cloud = simulate(params, matrix, PathConfig(T=1.0, M=50, n_paths=8, seed=3))
    assert cloud.states.shape == (8, 1, 2)
    assert cloud.steps.tolist() == [50]
    assert cloud.times[0] == pytest.approx(1.0)


def test_simulate_corruption_hook_changes_result(skip_final_half_drift):
    params, matrix = preset("fig2")
    config = PathConfig(T=1.0, M=50, n_paths=8, seed=3)
    clean = simulate(params, matrix, config)
    skip_final_half_drift()
    corrupt = simulate(params, matrix, config)
    assert np.max(np.abs(clean.states - corrupt.states)) > 0.0


def test_simulate_rejects_matrix_failing_row_or_column_condition():
    params, good = preset("fig2")
    config = PathConfig(T=1.0, M=10, n_paths=2, seed=0)
    row_q = np.array([[1.0, -1.0], [1.5, 1.5]])  # Q @ 1 = wbar e_N, last row not w
    col_q = np.array([[1.0, 0.0], [1.0, 2.0]])  # last row w, Q @ 1 != wbar e_N
    for q in (row_q, col_q):
        with pytest.raises(ValueError):
            simulate(params, replace(good, Q=q, Qinv=np.linalg.inv(q)), config)


@pytest.mark.parametrize("u1, inside", [(-0.5e-9, True), (-2e-9, False)])
def test_membership_and_audit_share_one_tolerance(u1, inside):
    # contains, simulate's initial check and its audit all judge u_1 against -MEMBERSHIP_TOL
    params, matrix = preset("table1")  # a shifted cone
    domain = ConeDomain.for_initial_state(matrix, params.v0)
    u0 = transformed(domain, params.v0)
    u0[0] = u1
    initial = matrix.Qinv @ u0 + domain.shift
    assert abs(transformed(domain, initial)[0] - u1) < 1e-15
    assert contains(domain, initial) == inside
    config = PathConfig(T=1.0, M=10, n_paths=3, seed=0)
    if not inside:
        with pytest.raises(ValueError, match="outside the cone"):
            simulate(params, matrix, config, initial_state=initial)
    cloud = simulate(params, matrix, config, initial_state=initial,
                     require_initial_in_cone=inside)
    assert cloud.min_transformed == pytest.approx(u1, abs=1e-15)
    assert cloud.n_violations == (0 if inside else config.n_paths)


@pytest.mark.parametrize("start", ["negative-aggregate", "nan"])
def test_simulate_aborts_when_the_state_leaves_the_cone(monkeypatch, start):
    params, matrix = preset("fig2")
    config = PathConfig(T=1.0, M=10, n_paths=2, seed=0)
    initial = np.array([-1.0, -1.0]) if start == "negative-aggregate" else params.v0
    if start == "nan":  # a NaN aggregate is outside the cone too
        propagators = DriftSystem.propagators

        def poisoned(system, h):
            prop, forcing = propagators(system, h)
            prop[-1, 0] = math.nan
            return prop, forcing

        monkeypatch.setattr(DriftSystem, "propagators", poisoned)
    with pytest.raises(RuntimeError, match="at step 0, state left the cone"):
        simulate(params, matrix, config, initial_state=initial, require_initial_in_cone=False)


def batched(monkeypatch, steps, width, factors):
    """Batches of ``steps`` steps (None: the default budget) for blocks of ``width`` paths.

    Returns the list of the output slots the step kernel writes, one per step.
    """
    if steps is not None:
        monkeypatch.setattr(scheme, "BATCH_BYTES", steps * 8 * (factors + 3) * width)
    step = scheme._strang_step
    slots = []

    def recorded(*args):
        slots.append(args[1].ctypes.data)
        return step(*args)

    monkeypatch.setattr(scheme, "_strang_step", recorded)
    return slots


@pytest.mark.parametrize("case", ["fig3c-escape", "wide-block"])
def test_batches_of_steps_give_one_cloud_and_one_audit(monkeypatch, case):
    # batches of 1 and 3 steps (M is not a multiple of 3) and of the default budget
    if case == "fig3c-escape":  # one batch of all 200 steps by default
        params, matrix = preset("fig3c")
        config = PathConfig(T=10.0, M=200, n_paths=17, seed=21, record_full=True)
        default = config.M
    else:  # one step of four factors at BLOCK_PATHS wide is more than the default budget
        w, x = (1.0, 2.0, 3.0, 4.0), (1.0, 5.0, 25.0, 125.0)
        params, matrix = params_anchored(w, x), build_canonical(w, x)
        config = PathConfig(T=1.0, M=7, n_paths=scheme.BLOCK_PATHS, seed=3, record_full=True)
        default = 1
    clouds = []
    for steps in (1, 3, None):
        with monkeypatch.context() as patched:
            slots = batched(patched, steps, config.n_paths, len(params.w))
            clouds.append(simulate(params, matrix, config, require_initial_in_cone=False))
        assert len(set(slots)) == (steps or default)
    for cloud in clouds[1:]:
        np.testing.assert_array_equal(cloud.transformed, clouds[0].transformed)
        assert cloud.audit() == clouds[0].audit()
    assert (clouds[0].n_violations > 0) == (case == "fig3c-escape")


def test_the_probability_audit_counts_every_step_of_a_batch(monkeypatch):
    # batches of 3 of M = 10 steps: steps 2 and 3 lie on either side of the first boundary,
    # and step 9 is the last batch's only step
    params, matrix = preset("fig2")
    config = PathConfig(T=1.0, M=10, n_paths=20, seed=5)
    clean = simulate(params, matrix, config)
    slots = batched(monkeypatch, 3, config.n_paths, 2)
    step = scheme._strang_step

    def injected(*args):
        result = step(*args)
        p1, p2, p3 = args[6][3:6]  # read by the batch's audit after its last step
        if len(slots) == 3:
            p1[0], p2[1] = -0.5, math.nan
        elif len(slots) in (4, 10):
            p3[-1] = 1.5
        return result

    monkeypatch.setattr(scheme, "_strang_step", injected)
    cloud = simulate(params, matrix, config)
    assert len(set(slots)) == 3
    assert clean.prob_violations == 0
    assert cloud.prob_violations == 4
    np.testing.assert_array_equal(cloud.transformed, clean.transformed)


def test_a_nan_in_a_batch_stops_the_march_at_its_step(monkeypatch):
    # batches of 4 steps: the state after step 5 is the middle of the second batch
    params, matrix = preset("fig2")
    config = PathConfig(T=1.0, M=10, n_paths=20, seed=5)
    slots = batched(monkeypatch, 4, config.n_paths, 2)
    step = scheme._strang_step

    def poisoned(*args):
        result = step(*args)
        if len(slots) == 5:
            args[1][:, 0] = math.nan
        return result

    monkeypatch.setattr(scheme, "_strang_step", poisoned)
    with pytest.raises(RuntimeError, match=r"^aggregate nan is not >= -1e-09 at step 5, state left "
                                           r"the cone$"):
        simulate(params, matrix, config)
    assert len(slots) == 6


@pytest.mark.parametrize("name", ["fig2", "fig3a"])
def test_mean_oracle_reaches_the_stationary_mean(name):
    # t = 1e4 takes 18 (fig2) and 20 (fig3a) squarings; squaring the whole augmented matrix,
    # whose corner 1 then picks up 2^20 roundings, was 2.3e-10 off on fig3a
    params, _ = preset(name)
    system = DriftSystem.from_params(params)
    np.testing.assert_allclose(mean_oracle(params, 1e4), -np.linalg.solve(system.A, system.b),
                               rtol=1e-12)


def test_simulate_rejects_non_finite_initial_state():
    params, matrix = preset("fig2")
    config = PathConfig(T=1.0, M=10, n_paths=2, seed=0)
    with pytest.raises(ValueError, match="finite"):
        simulate(params, matrix, config,
                 initial_state=[math.nan, 0.01], require_initial_in_cone=False)


def test_simulate_monte_carlo_mean_matches_oracle():
    params, matrix = preset("fig2")
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
    for seed in (-1, 1.5, "3", None):
        with pytest.raises(ValueError, match="seed"):
            PathConfig(T=1.0, M=10, n_paths=1, seed=seed)
    PathConfig(T=1.0, M=10, n_paths=2**32, seed=np.uint64(2**64 - 1))
    with pytest.raises(ValueError, match="paths"):
        PathConfig(T=1.0, M=10, n_paths=2**32 + 1, seed=0)


def test_mean_oracle_values():
    params = preset("fig2")[0]
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            mean_oracle(params, t)
    np.testing.assert_array_equal(mean_oracle(params, 0.0), params.v0)
    lam0 = ModelParams(w=[1.0, 2.0], x=[1.0, 10.0], theta=0.05, lam=0.0, nu=0.1, v0=[0.3, 0.04])
    t = 0.8
    fixed = lam0.v0 + lam0.theta / lam0.x
    expected = fixed + (lam0.v0 - fixed) * np.exp(-lam0.x * t)
    np.testing.assert_allclose(mean_oracle(lam0, t), expected, atol=1e-13)


def test_three_point_law_is_the_closed_form_bit_for_bit():
    # the scalar law is the step kernel's rows, so it must be the closed form bit for bit
    xs = np.concatenate([[0.0], np.random.default_rng(19).uniform(0.0, 5.0, size=50),
                         np.logspace(-300.0, 300.0, 200)])
    for z in (0.03, 1e-6, 2.5):
        laws = [three_point_law(x, z) for x in xs]
        np.testing.assert_array_equal([law.support + law.probabilities for law in laws],
                                      np.transpose(reference_law(xs, z)))


def test_simulate_in_cone_of_shifted_anchor():
    # table1's v0 = (0.2, 0.3) is not proportional to 1/x: outside the unshifted cone
    params, matrix = preset("table1")
    assert np.min(matrix.Q @ params.v0) < -0.01
    cloud = simulate(params, matrix, PathConfig(T=1.0, M=1000, n_paths=1000, seed=0))
    assert cloud.n_violations == 0 and cloud.sqrt_clamp_count == 0
    terminal = cloud.states[:, -1]
    stderr = np.std(terminal, axis=0, ddof=1) / math.sqrt(terminal.shape[0])
    assert np.all(np.abs(np.mean(terminal, axis=0) - mean_oracle(params, 1.0)) <= 4.0 * stderr)


@pytest.mark.parametrize("name", ["fig2", "fig3a"])
def test_simulate_second_moment_matches_oracle(name):
    params, matrix = preset(name)
    cloud = simulate(params, matrix, PathConfig(T=1.0, M=200, n_paths=10_000, seed=5))
    squares = cloud.aggregates[:, -1] ** 2
    stderr = float(np.std(squares, ddof=1) / math.sqrt(squares.size))
    assert abs(float(np.mean(squares)) - aggregate_second_moment(params, 1.0)) <= 4.0 * stderr


@pytest.mark.parametrize("name, arguments", [
    ("fig2", [(20.0, 15.0), (80.0, 60.0)]),
    ("fig3a", [(30.0, 20.0, 15.0), (120.0, 75.0, 60.0)]),
    ("table1", [(1.0, 1.0), (4.0, 3.0)]),
], ids=["fig2", "fig3a", "table1"])
def test_simulate_laplace_transform_matches_riccati(name, arguments):
    # the whole law of u_T, not only its first two moments, in the shifted cone for table1
    params, matrix = preset(name)
    cloud = simulate(params, matrix, PathConfig(T=1.0, M=200, n_paths=20_000, seed=5))
    for a in arguments:
        sample = np.exp(-cloud.transformed[:, -1] @ np.array(a))
        stderr = float(np.std(sample, ddof=1) / math.sqrt(sample.size))
        assert abs(float(np.mean(sample)) - laplace_transform(params, matrix, a, 1.0)) <= 4.0 * stderr
