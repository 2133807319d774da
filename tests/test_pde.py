import math

import numpy as np
import pytest

from volterra_cone import pde
from volterra_cone import (
    ModelParams,
    PdeProblem,
    TransformedDynamics,
    build_canonical,
    convergence_study,
    manufactured_solution,
    observed_orders,
    residual_check,
    solve,
    source_term,
)
from volterra_cone.presets import preset

BOX1 = ((0.0, 4.0), (0.0, 4.0))
BOX2 = ((-0.5, 3.5), (-0.5, 3.5))
BOX3 = ((-0.5, 3.5), (0.0, 4.0))


def table1_problem(box=BOX1, n=16, alpha=(3.0, 4.0), beta=1.6, scheme="cn", T=2.0):
    params = ModelParams(w=[0.4, 1.8], x=[0.1, 3.5], theta=0.8, lam=1.2, nu=0.7, v0=[0.2, 0.3])
    matrix = build_canonical(params.w, params.x)
    return PdeProblem(
        params=params, matrix=matrix, alpha=alpha, beta=beta, T=T,
        box=box, n=n, time_scheme=scheme,
    )


def fig3a_problem(n=8):
    params, matrix = preset("fig3a")
    return PdeProblem(params=params, matrix=matrix, alpha=(1.0, 2.0, 3.0), beta=0.0, T=1.0,
                      box=((0.0, 4.0),) * 3, n=n)


@pytest.mark.parametrize("upwind", [False, True], ids=["centred", "upwind"])
@pytest.mark.parametrize("make_problem", [table1_problem, fig3a_problem], ids=["table1", "fig3a"])
def test_operator_exact_on_affine_functions(make_problem, upwind):
    # both drift stencils differentiate an affine v exactly, and its second difference is 0
    problem = make_problem()
    op, nodes, interior = pde._assemble(problem, upwind)
    slope = np.linspace(0.5, -1.5, nodes.shape[1])
    dynamics = TransformedDynamics.from_params(problem.params, problem.matrix)
    expected = dynamics.drift(nodes[interior]) @ slope
    got = op @ (1.0 + nodes @ slope)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_manufactured_solution_values():
    constant = table1_problem(alpha=(0.0, 0.0), beta=0.0)
    assert manufactured_solution(constant, [0.7, 1.3], 0.9) == 1.0
    problem = table1_problem()
    assert manufactured_solution(problem, [0.0, 0.0], 2.0) == pytest.approx(4.2, abs=1e-14)
    assert manufactured_solution(problem, [1.0, 1.0], 0.0) == pytest.approx(8.0, abs=1e-14)


def test_source_term_reduces_to_beta():
    flat = table1_problem(alpha=(0.0, 0.0))
    z = np.array([1.1, 0.4])
    assert source_term(flat, z) == pytest.approx(flat.beta, abs=1e-14)
    tilted = table1_problem(alpha=(3.0, 0.0))
    z0 = tilted.matrix.Q @ tilted.params.v0
    assert source_term(tilted, z0) == pytest.approx(tilted.beta, abs=1e-12)


def test_residual_vanishes_for_consistent_pair():
    assert residual_check(table1_problem(), n_samples=100, seed=0) <= 1e-10


def test_residual_detects_perturbed_source(monkeypatch):
    problem = table1_problem()
    original = pde.source_term
    monkeypatch.setattr(pde, "source_term", lambda prob, z: original(prob, z) + 1.0)
    residual = residual_check(problem, n_samples=50, seed=1)
    assert residual == pytest.approx(1.0, abs=1e-12)


def test_residual_zero_for_trivial_setup():
    trivial = table1_problem(alpha=(0.0, 0.0), beta=0.0)
    assert residual_check(trivial, n_samples=50, seed=2) == 0.0


def test_solver_exact_on_space_constant_solution():
    for n in (5, 16):
        report = solve(table1_problem(alpha=(0.0, 0.0), beta=1.6, n=n))
        assert not report.blow_up
        assert report.l2_error <= 1e-10


def test_discrete_maximum_principle_on_constant_data():
    report = solve(table1_problem(alpha=(0.0, 0.0), beta=0.0, n=12))
    assert report.l2_error <= 1e-10


def test_second_order_convergence_on_cone_respecting_box():
    reports = convergence_study(table1_problem(n=16), [16, 32, 64])
    assert all(not rep.blow_up for rep in reports)
    orders = observed_orders(reports)
    assert 1.7 <= orders[1] <= 2.3
    assert 1.7 <= orders[2] <= 2.3


def test_errors_decrease_monotonically_past_coarsest_grids():
    reports = convergence_study(table1_problem(n=4), [4, 8, 16, 32, 64, 128])
    errors = [rep.l2_error for rep in reports]
    assert all(not rep.blow_up for rep in reports)
    assert all(b < a for a, b in zip(errors[1:], errors[2:]))


def test_blow_up_on_sign_indefinite_box():
    report = solve(table1_problem(box=BOX2, n=32))
    assert report.blow_up
    assert math.isinf(report.l2_error)


def test_error_dichotomy_same_solver_same_parameters():
    stable = solve(table1_problem(box=BOX3, n=32))
    unstable = solve(table1_problem(box=BOX2, n=32))
    assert not stable.blow_up
    assert unstable.blow_up


def test_implicit_euler_variant():
    report = solve(table1_problem(n=32, scheme="ie"))
    assert not report.blow_up
    assert report.time_scheme == "ie"
    assert report.l2_error < 10.0


def test_convergence_study_single_entry():
    reports = convergence_study(table1_problem(), [4])
    assert len(reports) == 1
    orders = observed_orders(reports)
    assert math.isnan(orders[0])


def test_convergence_study_requires_increasing_resolutions():
    with pytest.raises(ValueError):
        convergence_study(table1_problem(), [8, 8])


def test_problem_validation():
    with pytest.raises(ValueError):
        table1_problem(box=((0.0, 4.0),))
    with pytest.raises(ValueError):
        table1_problem(box=((4.0, 0.0), (0.0, 4.0)))
    with pytest.raises(ValueError):
        table1_problem(n=1)
    with pytest.raises(ValueError):
        table1_problem(scheme="explicit")
    with pytest.raises(ValueError):
        table1_problem(alpha=(1.0, 2.0, 3.0))
    for horizon in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            table1_problem(T=horizon)


def test_coarse_grid_fallback_is_recorded():
    report = solve(table1_problem(n=4))
    assert report.fallback_upwind
    assert not report.blow_up
