import math
from dataclasses import replace

import numpy as np
import pytest

from volterra_cone import pde
from volterra_cone import (
    ConeDomain,
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


def table1_problem(box=BOX1, n=16, alpha=(3.0, 4.0), beta=1.6, T=2.0):
    params = ModelParams(w=[0.4, 1.8], x=[0.1, 3.5], theta=0.8, lam=1.2, nu=0.7, v0=[0.2, 0.3])
    matrix = build_canonical(params.w, params.x)
    return PdeProblem(params=params, matrix=matrix, alpha=alpha, beta=beta, T=T, box=box, n=n)


def fig3a_problem(n=8):
    params, matrix = preset("fig3a")
    return PdeProblem(params=params, matrix=matrix, alpha=(1.0, 2.0, 3.0), beta=0.0, T=1.0,
                      box=((0.0, 4.0),) * 3, n=n)


@pytest.mark.parametrize("make_problem", [table1_problem, fig3a_problem],
                         ids=["table1-centred", "fig3a-centred"])
def test_operator_exact_on_affine_functions(make_problem):
    # the centred drift stencil differentiates an affine v exactly, and its second difference is 0
    problem = make_problem()
    op, nodes, interior = pde._assemble(problem)
    slope = np.linspace(0.5, -1.5, nodes.shape[1])
    dynamics = TransformedDynamics.from_params(problem.params, ConeDomain(problem.matrix))
    expected = dynamics.drift(nodes[interior]) @ slope
    got = op @ (1.0 + nodes @ slope)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("make_problem", [table1_problem, fig3a_problem], ids=["table1", "fig3a"])
def test_operator_truncation_error_on_the_manufactured_solution(make_problem, n):
    # on a quadratic v the divergence-form drift differences drift_d * v, a cubic along axis d,
    # so it is off by exactly K_dd alpha_d h_d^2; the second difference of v along u_N is exact
    problem = make_problem(n=n)
    op, nodes, interior = pde._assemble(problem)
    h = np.array([(hi - lo) / n for lo, hi in problem.box])
    expected = np.sum(np.diag(problem.dynamics.A) * problem.alpha * h**2)
    generator = source_term(problem, nodes[interior]) - problem.beta
    got = op @ manufactured_solution(problem, nodes, 0.0) - generator
    assert np.max(np.abs(got - expected)) <= 1e-9 * abs(expected)


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
    # every row comes from the one centred scheme, so no order is negative, from n = 4 on
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_blow_up_on_sign_indefinite_box():
    report = solve(table1_problem(box=BOX2, n=32))
    assert report.blow_up
    assert math.isinf(report.l2_error)


def test_blow_up_reports_its_step_and_magnitude():
    unstable = solve(table1_problem(box=BOX2, n=64))
    assert unstable.blow_up
    assert 1 <= unstable.blowup_step <= 64
    peak = unstable.blowup_max_abs
    assert not math.isfinite(peak) or peak > pde.EARLY_EXIT_MAGNITUDE
    stable = solve(table1_problem(n=64))
    assert not stable.blow_up
    assert stable.blowup_step is None and stable.blowup_max_abs is None
    assert set(stable.timings) == {"assemble_s", "factor_s", "steps_s", "runtime_s"}
    assert all(value >= 0.0 for value in stable.timings.values())


def singular_factor(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def test_a_step_matrix_that_cannot_be_factored_is_a_blow_up_at_level_zero(monkeypatch):
    monkeypatch.setattr(pde, "splu", singular_factor)
    report = solve(table1_problem(n=8))
    assert report.blow_up and report.blowup_step == 0 and math.isnan(report.blowup_max_abs)
    assert report.l2_error == math.inf
    timings = report.timings
    assert timings["steps_s"] == 0.0
    assert timings["runtime_s"] >= timings["assemble_s"] + timings["factor_s"]


def superlu_fill(monkeypatch, problem) -> int:
    """L+U nonzeros of the one factor a solve makes, read outside the program."""
    fills = []
    original = pde.splu

    def spy(*args, **kwargs):
        factor = original(*args, **kwargs)
        fills.append(factor.L.nnz + factor.U.nnz)
        return factor

    monkeypatch.setattr(pde, "splu", spy)
    solve(problem)
    (fill,) = fills
    return fill


def test_a_problem_builds_its_transformed_dynamics_once(monkeypatch):
    # each build audits the matrix (a condition-number SVD): the bounds, the residual check,
    # the assembly and the source term of one pde run share one
    builds = []
    build = TransformedDynamics.from_params

    def counted(params, domain):
        builds.append(domain)
        return build(params, domain)

    monkeypatch.setattr(TransformedDynamics, "from_params", counted)
    problem = table1_problem(n=8)
    residual_check(problem)
    assert not solve(problem).blow_up
    assert len(builds) == 1


def test_superlu_ordering_keeps_the_fill_low(monkeypatch):
    # minimum degree on A^T + A in 2-D (COLAMD: 1.19 M), COLAMD in 3-D (minimum degree: 2.14 M)
    assert superlu_fill(monkeypatch, table1_problem(n=128)) < 0.8e6
    assert superlu_fill(monkeypatch, replace(fig3a_problem(n=16), T=2.0)) < 1.0e6


def test_ordering_keeps_the_table1_errors():
    # the values the solver gave with SuperLU's default COLAMD ordering
    for n, expected in ((64, 0.85835095141041418), (128, 0.21239230423304611)):
        assert solve(table1_problem(n=n)).l2_error == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_error_dichotomy_same_solver_same_parameters():
    stable = solve(table1_problem(box=BOX3, n=32))
    unstable = solve(table1_problem(box=BOX2, n=32))
    assert not stable.blow_up
    assert unstable.blow_up


def test_convergence_study_single_entry():
    reports = convergence_study(table1_problem(), [4])
    assert len(reports) == 1
    orders = observed_orders(reports)
    assert math.isnan(orders[0])
    # no order between a zero error and a positive one
    exact_then_inexact = [replace(reports[0], l2_error=0.0), replace(reports[0], n=8)]
    assert all(math.isnan(order) for order in observed_orders(exact_then_inexact))


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
        table1_problem(alpha=(1.0, 2.0, 3.0))
    for horizon in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            table1_problem(T=horizon)
