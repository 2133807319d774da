import numpy as np
import pytest

from volterra_cone import (
    ConeDomain,
    build_canonical,
    canonical_anchor,
    contains,
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


@pytest.mark.parametrize("w, x, Y0", [([1e-300], [1e308], 0.0), ([1.0], [1e-320], 0.02),
                                      ([1.0, 2.0], [1.0, 10.0], np.inf)])
def test_anchor_rejects_a_sum_or_aggregate_out_of_range(w, x, Y0):
    # sum(w / x) underflows to 0 or overflows to inf, or the aggregate is not finite
    with pytest.raises(ValueError, match="sum"):
        canonical_anchor(w, x, Y0)


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


def test_transformed_coordinates_roundtrip():
    dom = canonical_domain()
    y = np.array([0.8, 0.2])
    coords = transformed(dom, y)
    np.testing.assert_allclose(dom.matrix.Qinv @ coords + dom.shift, y, atol=1e-14)
