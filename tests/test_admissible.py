import json
import math

import numpy as np
import pytest

from volterra_cone import (
    build_canonical,
    build_q2,
    build_q3,
    canonical_inverse,
    check_admissible,
    q3_bounds,
)


#: weights and nodes of a four-factor model whose weights sum to 1.86e6
LARGE_WEIGHTS = (102464.65, 871663.849, 130227.018, 756689.902), (17.65, 30.04, 54.19, 86.33)


def random_weights_nodes(rng, n):
    w = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=n))
    x = np.sort(rng.uniform(0.0, 50.0, size=n))
    return w, x


def test_canonical_two_factor_closed_forms():
    m = build_canonical([1.0, 2.0], [1.0, 10.0])
    assert m.Q.tolist() == [[1.0, -1.0], [1.0, 2.0]]
    np.testing.assert_allclose(m.Qinv, [[2 / 3, 1 / 3], [-1 / 3, 1 / 3]], atol=1e-15)
    np.testing.assert_allclose(m.Q @ m.Qinv, np.eye(2), atol=1e-15)


def test_canonical_single_factor():
    m = build_canonical([2.5], [4.0])
    assert m.Q.tolist() == [[2.5]]
    assert m.Qinv.tolist() == [[0.4]]
    assert m.G.tolist() == [[4.0]]
    report = m.report()
    assert report.offdiag_ok and report.worst_offdiag is None  # G has no off-diagonal entry
    assert report.to_dict()["offdiag_condition"]["worst_entry"] is None


def test_a_singular_matrix_without_its_inverse_reports_standard_json():
    # G is not computed, so there is no worst entry, and the condition is not met
    report = check_admissible(np.zeros((2, 2)), [1, 2], [1, 10])
    assert report.worst_offdiag is None and not report.offdiag_ok
    assert not report.invertible and not report.admissible
    payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert payload["invertible"] == {"ok": False, "cond_estimate": None}
    assert payload["offdiag_condition"] == {"ok": False, "worst_entry": None}


def test_row_and_column_deviations_that_overflow_fail_and_report_standard_json():
    # |Q[-1] - w| and |Q 1 - wbar e_N| overflow for a finite Q far from w; the tests turn a
    # RuntimeWarning into an error, so none is emitted
    report = check_admissible([[1, 0], [-1.7e308, 1]], [1.7e308, 1], [1, 2])
    assert not report.row_ok and not report.col_ok and not report.admissible
    assert report.row_max_dev == math.inf and report.col_max_dev == math.inf
    payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert payload["row_condition"] == {"ok": False, "max_deviation": None}
    assert payload["column_condition"] == {"ok": False, "max_deviation": None}


def test_canonical_inverse_four_factor_pattern():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 3.0, size=4)
    s = np.cumsum(w)
    r = canonical_inverse(w)
    np.testing.assert_allclose(r[3], [0.0, 0.0, -1.0 / s[3], 1.0 / s[3]], rtol=1e-15)
    np.testing.assert_allclose(r[:, 3], np.full(4, 1.0 / s[3]), rtol=1e-15)
    for j in range(3):
        expected = w[j + 1] / (s[j] * s[j + 1])
        np.testing.assert_allclose(r[: j + 1, j], np.full(j + 1, expected), rtol=1e-15)
        assert r[j + 1, j] == pytest.approx(-1.0 / s[j + 1], rel=1e-15)
    assert r[2, 0] == 0.0 and r[3, 0] == 0.0 and r[3, 1] == 0.0


def test_canonical_column_condition_unit_weights():
    for n in (1, 2, 5, 8):
        m = build_canonical(np.ones(n), np.arange(1.0, n + 1.0))
        np.testing.assert_allclose(m.Q @ np.ones(n), n * np.eye(n)[n - 1], atol=1e-12)


def test_canonical_passes_checker_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        w, x = random_weights_nodes(rng, n)
        m = build_canonical(w, x)
        assert m.report().admissible


def test_closed_form_inverse_matches_numerical():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        w, x = random_weights_nodes(rng, n)
        m = build_canonical(w, x)
        assert np.max(np.abs(m.Qinv - np.linalg.inv(m.Q))) <= 1e-9


def test_identity_fails_row_condition():
    report = check_admissible(np.eye(2), [1.0, 2.0], [1.0, 10.0])
    assert not report.row_ok
    assert not report.admissible


def test_negative_q_two_factor_fails_sign_condition():
    # the 2d family only works for q > 0; q = -1 flips the off-diagonal signs
    q_mat = np.array([[-1.0, 1.0], [1.0, 2.0]])
    report = check_admissible(q_mat, [1.0, 2.0], [1.0, 10.0])
    assert not report.offdiag_ok
    with pytest.raises(ValueError):
        build_q2([1.0, 2.0], [1.0, 10.0], -1.0)


def test_singular_matrix_is_reported_not_raised():
    report = check_admissible(np.zeros((2, 2)), [1.0, 2.0], [1.0, 10.0])
    assert not report.invertible
    assert not report.admissible


def test_row_and_column_conditions_are_scale_free():
    # wbar = 1.86e6: Q 1 misses wbar e_N by one ulp of wbar, above an absolute 1e-10
    w, x = LARGE_WEIGHTS
    assert build_canonical(w, x).report().admissible
    # at weights of 1e-9 an absolute 1e-10 would pass a last row 0.1 % off w
    tiny = np.array([1e-9, 2e-9])
    q = build_canonical(tiny, [1.0, 10.0]).Q
    q[-1] *= 1.001
    report = check_admissible(q, tiny, [1.0, 10.0])
    assert not report.row_ok and not report.col_ok


def test_q2_rate_matrix_matches_display():
    w = np.array([1.0, 2.0])
    x = np.array([1.0, 10.0])
    for q in (0.5, 1.0, 3.0):
        m = build_q2(w, x, q)
        wbar = 3.0
        expected = np.array(
            [
                [w[0] * x[1] + w[1] * x[0], (x[0] - x[1]) * q],
                [w[0] * w[1] * (x[0] - x[1]) / q, w[0] * x[0] + w[1] * x[1]],
            ]
        ) / wbar
        np.testing.assert_allclose(m.G, expected, atol=1e-12)
    np.testing.assert_allclose(build_q2(w, x, 1.0).G, [[4.0, -3.0], [-6.0, 7.0]], atol=1e-12)


def test_q2_equal_nodes_give_diagonal_rate():
    m = build_q2([1.0, 2.0], [5.0, 5.0], 1.0)
    assert abs(m.G[0, 1]) <= 1e-12 and abs(m.G[1, 0]) <= 1e-12


def test_q2_cone_is_independent_of_q():
    rng = np.random.default_rng(13)
    x = np.array([1.0, 10.0])
    m1 = build_q2([1.0, 2.0], x, 1.0)
    m3 = build_q2([1.0, 2.0], x, 3.0)
    pts = rng.normal(scale=2.0, size=(100, 2))
    v1 = np.all(pts @ m1.Q.T >= 0.0, axis=1)
    v3 = np.all(pts @ m3.Q.T >= 0.0, axis=1)
    assert np.array_equal(v1, v3)


def test_q3_bounds_reference_values():
    a_lo, a_hi, b_lo, b_hi = q3_bounds([1.0, 2.0, 3.0], [1.0, 5.0, 25.0])
    root = math.sqrt(85.0)
    assert a_lo == pytest.approx((-5.0 + root) / 5.0, abs=1e-12)
    assert a_hi == pytest.approx(6.0 / 5.0, abs=1e-12)
    assert b_lo == pytest.approx(7.0 / 5.0, abs=1e-12)
    assert b_hi == pytest.approx((5.0 + root) / 5.0, abs=1e-12)


def test_q3_defaults_always_feasible():
    rng = np.random.default_rng(17)
    for _ in range(200):
        w = rng.uniform(0.1, 10.0, size=3)
        x = np.sort(rng.uniform(0.1, 30.0, size=3))
        if x[1] - x[0] < 1e-6 or x[2] - x[1] < 1e-6:
            continue
        a_lo, a_hi, b_lo, b_hi = q3_bounds(w, x)
        assert a_lo <= 1.0 <= a_hi
        assert b_lo <= w[1] / w[0] <= b_hi


def test_q3_bounds_rejects_tied_nodes():
    with pytest.raises(ValueError):
        q3_bounds([1.0, 2.0, 3.0], [1.0, 1.0, 25.0])


def test_q3_family_admissibility_dichotomy():
    w = [1.0, 2.0, 3.0]
    x = [1.0, 5.0, 25.0]
    assert build_q3(w, x, 1.0, 2.0).report().admissible
    report = build_q3(w, x, 1.3, 2.0).report()
    assert not report.offdiag_ok
    # the offending entry is the direct response of the first transformed
    # coordinate to the aggregate: y1 + y2 - a*y2 < 0 for a > (y1+y2)/y2
    m = build_q3(w, x, 1.3, 2.0)
    assert m.G[0, 2] > 0.0


def test_q3_rejects_degenerate_family_parameters():
    with pytest.raises(ValueError):
        build_q3([1.0, 2.0, 3.0], [1.0, 5.0, 25.0], 0.0, 0.0)
    with pytest.raises(ValueError):
        build_q3([1.0, 2.0, 3.0], [1.0, 5.0, 25.0], -0.5, 2.0)


def test_q3_scaled_row_form_gives_same_cone():
    w = np.array([1.0, 2.0, 3.0])
    x = np.array([1.0, 5.0, 25.0])
    m = build_q3(w, x, 1.0, w[1] / w[0])
    scaled = np.array(
        [
            [w[0], -w[0], 0.0],
            [w[0], w[1], -w[0] - w[1]],
            [w[0], w[1], w[2]],
        ]
    )
    rng = np.random.default_rng(19)
    pts = rng.normal(scale=1.0, size=(100, 3))
    v_family = np.all(pts @ m.Q.T >= 0.0, axis=1)
    v_scaled = np.all(pts @ scaled.T >= 0.0, axis=1)
    assert np.array_equal(v_family, v_scaled)


def test_row_scaling_preserves_cone_verdicts():
    rng = np.random.default_rng(23)
    w, x = random_weights_nodes(rng, 4)
    m = build_canonical(w, x)
    scaled = m.Q.copy()
    scaled[1] *= 2.5
    pts = rng.normal(scale=2.0, size=(100, 4))
    v1 = np.all(pts @ m.Q.T >= -1e-12, axis=1)
    v2 = np.all(pts @ scaled.T >= -1e-12, axis=1)
    assert np.array_equal(v1, v2)


def test_q3_sign_conditions_inside_and_outside_bounds():
    rng = np.random.default_rng(29)
    for _ in range(50):
        w = rng.uniform(0.2, 5.0, size=3)
        x = np.sort(rng.uniform(0.1, 20.0, size=3))
        if x[1] - x[0] < 1e-3 or x[2] - x[1] < 1e-3:
            continue
        a_lo, a_hi, b_lo, b_hi = q3_bounds(w, x)
        a = rng.uniform(max(a_lo, 0.0), a_hi)
        b = rng.uniform(b_lo, b_hi)
        wbar = np.sum(w)
        inside = -wbar * build_q3(w, x, a, b).G
        off = inside[~np.eye(3, dtype=bool)]
        assert np.min(off) >= -1e-12
        outside = -wbar * build_q3(w, x, a_hi * 1.2, b).G
        assert np.min(outside[~np.eye(3, dtype=bool)]) < 0.0
        outside_b = -wbar * build_q3(w, x, a, b_hi * 1.2).G
        assert np.min(outside_b[~np.eye(3, dtype=bool)]) < 0.0
