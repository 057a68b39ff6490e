import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from robust_scatter import LocationScatter, WeightSpec, in_ball, weight, weight_product


def test_analytic_values():
    spec = WeightSpec(alpha=0.05)
    assert weight(0.0, spec) == 1.0
    assert abs(weight(math.log(2.0), spec) - 0.5) < 1e-12
    assert abs(weight_product(1.0, spec) - math.exp(-1.0)) < 1e-12
    assert weight_product(0.0, spec) == 0.0


def test_boundary_is_trimmed():
    # at u = ln(1/alpha) the strict inequality fails and the weight is 0
    spec = WeightSpec(alpha=0.05)
    u = math.log(1.0 / 0.05)
    assert weight(u, spec) == 0.0
    assert weight_product(u, spec) == 0.0
    assert weight(u + 1.0, spec) == 0.0
    assert weight(np.nextafter(u, 0.0), spec) > 0.0


def test_negative_u_rejected():
    with pytest.raises(ValueError):
        weight(-1e-9)
    with pytest.raises(ValueError):
        weight_product(np.array([0.5, -0.1]))


def test_invalid_spec():
    with pytest.raises(ValueError):
        WeightSpec(alpha=0.0)
    with pytest.raises(ValueError):
        WeightSpec(alpha=1.0)


def test_product_sup_by_scan():
    # brute-force scan: the product peaks at u = 1 with value 1/e, since the
    # unconstrained maximizer lies below the cutoff ln(20) ~ 3.0
    spec = WeightSpec(alpha=0.05)
    u = np.arange(0.0, 10.0 + 1e-9, 1e-4)
    vals = weight_product(u, spec)
    top = np.argmax(vals)
    assert abs(u[top] - 1.0) < 1e-12
    assert abs(vals[top] - math.exp(-1.0)) < 1e-15
    assert vals.max() <= math.exp(-1.0) + 1e-15
    assert np.all(vals[u >= spec.cutoff] == 0.0)


@given(
    u1=st.floats(min_value=0.0, max_value=50.0),
    u2=st.floats(min_value=0.0, max_value=50.0),
    alpha=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_monotone_nonincreasing(u1, u2, alpha):
    spec = WeightSpec(alpha=alpha)
    lo, hi = min(u1, u2), max(u1, u2)
    assert weight(lo, spec) >= weight(hi, spec)


@given(st.floats(min_value=0.0, max_value=200.0), st.floats(min_value=1e-6, max_value=0.5))
def test_range_and_cutoff(u, alpha):
    spec = WeightSpec(alpha=alpha)
    w = weight(u, spec)
    assert w == 0.0 or alpha < w <= 1.0
    assert weight_product(u, spec) <= math.exp(-1.0) + 1e-15


def test_weight_matches_where_reference(rng):
    # the clamped evaluation is bit-identical to the plain definition,
    # including NaN and inf (weight 0) and the boundary itself
    spec = WeightSpec(alpha=0.05)
    c = spec.cutoff
    edges = np.array([0.0, -0.0, 5e-324, 1.0, np.nextafter(c, 0.0), c, np.nextafter(c, np.inf),
                      700.0, 800.0, 1e308, np.inf, np.nan])
    for u in (rng.exponential(2.0, (200, 7)), edges, edges.reshape(3, 4),
              np.where(rng.random(500) < 0.1, np.nan, rng.uniform(0.0, 2.0 * c, 500))):
        ref = np.where(u < c, np.exp(-u), 0.0)
        np.testing.assert_array_equal(weight(u, spec), ref)
    for u in edges:
        w = weight(u, spec)
        assert type(w) is float and w == np.where(u < c, np.exp(-u), 0.0)


def test_in_ball_examples():
    spec = WeightSpec(alpha=0.05)
    ls = LocationScatter(np.zeros(2), np.eye(2))
    assert in_ball(np.zeros(2), ls, spec)
    # |x - mu|^2 = 4 > ln(20) ~ 2.996
    assert not in_ball(np.array([2.0, 0.0]), ls, spec)
    with pytest.raises(ValueError):
        in_ball(np.zeros(3), ls, spec)
