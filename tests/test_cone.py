import numpy as np
import pytest

from volterra_cone import (
    ConeDomain,
    ModelParams,
    boundary_condition_check,
    build_canonical,
    build_q3,
    canonical_anchor,
    canonical_halfspaces,
    contains,
    m_matrix_inverse_check,
    transformed,
)
from volterra_cone.cone import MEMBERSHIP_TOL


def canonical_domain(w=(1.0, 2.0), x=(1.0, 10.0)):
    return ConeDomain(matrix=build_canonical(w, x))


def test_anchor_reference_values():
    np.testing.assert_allclose(
        canonical_anchor([1.0, 2.0], [1.0, 10.0], 0.02), [1 / 60, 1 / 600], rtol=1e-14
    )
    np.testing.assert_allclose(canonical_anchor([3.0, 4.0], [1.0, 2.0], 0.0), [0.0, 0.0])
    np.testing.assert_allclose(canonical_anchor([1.0, 1.0], [1.0, 1.0], 2.0), [1.0, 1.0])


def test_anchor_aggregate_matches_target():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        w = rng.uniform(0.1, 5.0, size=n)
        x = np.sort(rng.uniform(0.05, 20.0, size=n))
        y0 = float(rng.uniform(0.0, 3.0))
        anchor = canonical_anchor(w, x, y0)
        assert w @ anchor == pytest.approx(y0, rel=1e-12, abs=1e-14)


def test_anchor_rejects_negative_aggregate():
    with pytest.raises(ValueError):
        canonical_anchor([1.0, 2.0], [1.0, 10.0], -0.1)


def test_contains_two_factor_verdicts():
    dom = canonical_domain()
    assert contains(dom, [1.0, 0.5])
    assert not contains(dom, [0.5, 1.0])
    assert contains(dom, dom.shift)


def test_shift_must_have_zero_aggregate():
    matrix = build_canonical([1.0, 2.0], [1.0, 10.0])
    with pytest.raises(ValueError):
        ConeDomain(matrix=matrix, shift=np.array([0.1, 0.1]))
    dom = ConeDomain(matrix=matrix, shift=np.array([2.0, -1.0]))
    assert contains(dom, dom.shift)


def test_shifted_domain_for_initial_state():
    matrix = build_canonical([1.0, 2.0], [1.0, 10.0])
    y0 = np.array([0.01, 0.03])  # outside the linear cone: y1 < y2
    dom = ConeDomain.for_initial_state(matrix, y0)
    assert contains(dom, y0)
    assert matrix.w @ dom.shift == pytest.approx(0.0, abs=1e-15)


def test_halfspaces_two_factor():
    hs = canonical_halfspaces([1.0, 2.0])
    assert len(hs) == 2
    np.testing.assert_allclose(hs[0][0], [1.0, 2.0])
    np.testing.assert_allclose(hs[1][0], [1.0, -1.0])
    assert hs[0][1] == 0.0 and hs[1][1] == 0.0


def test_halfspaces_single_factor():
    hs = canonical_halfspaces([2.5])
    assert len(hs) == 1
    np.testing.assert_allclose(hs[0][0], [2.5])


def test_halfspaces_agree_with_matrix_membership():
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        w = rng.uniform(0.1, 5.0, size=n)
        x = np.sort(rng.uniform(0.1, 20.0, size=n))
        dom = ConeDomain(matrix=build_canonical(w, x))
        hs = canonical_halfspaces(w)
        pts = rng.normal(scale=1.5, size=(10_000, n))
        member = np.array([contains(dom, p) for p in pts])
        by_halfspace = np.all(
            np.stack([pts @ coeff >= -1e-9 for coeff, _ in hs], axis=1), axis=1
        )
        assert np.array_equal(member, by_halfspace)


def test_cone_edges_are_inside():
    rng = np.random.default_rng(9)
    w = np.array([0.5, 1.5, 2.5])
    x = np.array([0.5, 2.0, 9.0])
    dom = ConeDomain(matrix=build_canonical(w, x))
    for i in range(3):
        for t in rng.uniform(0.0, 50.0, size=20):
            edge = dom.shift + dom.matrix.Qinv[:, i] * t
            assert contains(dom, edge)


def test_contains_implies_nonnegative_aggregate():
    rng = np.random.default_rng(31)
    w = np.array([1.0, 2.0])
    dom = canonical_domain()
    pts = rng.normal(scale=2.0, size=(500, 2))
    for p in pts:
        if contains(dom, p):
            assert w @ (p - dom.shift) >= -MEMBERSHIP_TOL * np.sum(np.abs(w))


def test_m_matrix_inverse_check_canonical():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        w = rng.uniform(0.1, 5.0, size=n)
        x = np.sort(rng.uniform(0.1, 20.0, size=n))
        assert m_matrix_inverse_check(build_canonical(w, x))


def test_m_matrix_inverse_check_scalar():
    m = build_canonical([3.0], [4.0])
    inv_rate = (m.Q / m.x) @ m.Qinv
    assert inv_rate[0, 0] == pytest.approx(0.25, rel=1e-15)
    assert m_matrix_inverse_check(m)


def test_m_matrix_check_evaluable_for_non_admissible():
    m = build_q3([1.0, 2.0, 3.0], [1.0, 5.0, 25.0], 2.0, 2.0)
    assert isinstance(m_matrix_inverse_check(m), bool)


def test_m_matrix_implies_anchor_in_cone():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        w = rng.uniform(0.1, 5.0, size=n)
        x = np.sort(rng.uniform(0.1, 20.0, size=n))
        m = build_canonical(w, x)
        assert m_matrix_inverse_check(m)
        y0 = float(rng.uniform(0.0, 5.0))
        assert contains(ConeDomain(matrix=m), canonical_anchor(w, x, y0))


def table1_params():
    return ModelParams(w=[0.4, 1.8], x=[0.1, 3.5], theta=0.8, lam=1.2, nu=0.7, v0=[0.2, 0.3])


def test_boundary_conditions_hold_for_admissible_matrix():
    params = table1_params()
    matrix = build_canonical(params.w, params.x)
    report = boundary_condition_check(matrix, params, mu=0.0)
    assert report.ok
    assert report.min_drift >= -1e-10


def test_boundary_corner_drift_is_inward():
    # at the corner the drift reduces to the mean-level push on the last face
    params = table1_params()
    matrix = build_canonical(params.w, params.x)
    wbar = params.wbar
    corner_drift = wbar * (params.theta + 0.5)
    assert corner_drift >= 0.0
    report = boundary_condition_check(matrix, params, mu=0.5)
    assert report.ok


def q3_params():
    return ModelParams(
        w=[1.0, 2.0, 3.0],
        x=[1.0, 5.0, 25.0],
        theta=0.02,
        lam=0.3,
        nu=0.3,
        v0=canonical_anchor([1.0, 2.0, 3.0], [1.0, 5.0, 25.0], 0.02),
    )


def test_boundary_violation_detected_for_non_admissible():
    params = q3_params()
    bad = build_q3(params.w, params.x, 1.3, 2.0)
    report = boundary_condition_check(bad, params, mu=0.0)
    assert report.n_violations >= 1
    assert report.min_drift < 0.0


def test_boundary_min_drift_is_exact():
    # a sampled minimum reads about -0.0623 here; the vertex minimum is exact
    params = q3_params()
    report = boundary_condition_check(build_q3(params.w, params.x, 1.3, 2.0), params)
    assert report.min_drift == pytest.approx(-1.0 / 15.0, abs=1e-12)
    assert report.worst_face == 0


def test_transformed_coordinates_roundtrip():
    dom = canonical_domain()
    y = np.array([0.8, 0.2])
    coords = transformed(dom, y)
    np.testing.assert_allclose(dom.matrix.Qinv @ coords + dom.shift, y, atol=1e-14)
