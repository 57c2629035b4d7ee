"""Property-based tests of the exact one-column clustering and its ANOVA."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from paneleff.cluster import anova_f, sweep_k  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# efficiency-like values, with repeats drawn from a small pool so that
# exact duplicates are common
values = st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False)
point_sets = st.lists(values, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool) | values, min_size=4, max_size=30)
).filter(lambda xs: len(set(xs)) >= 3 and max(xs) - min(xs) > 1e-100)  # squares must not underflow


def _sweep(xs):
    k_max = min(len(set(xs)), len(xs) - 1, 6)
    return sweep_k(np.array(xs), k_max, 2)


@PROPERTY_SETTINGS
@given(point_sets, st.randoms(use_true_random=False))
def test_labels_are_invariant_under_permutation(xs, random):
    order = list(range(len(xs)))
    random.shuffle(order)
    base = _sweep(xs)
    shuffled = _sweep([xs[i] for i in order])
    for (k, sol, _), (k2, sol2, _) in zip(base.entries, shuffled.entries):
        assert k == k2
        assert np.array_equal(sol.assignments[order], sol2.assignments)


@PROPERTY_SETTINGS
@given(point_sets)
def test_sse_is_non_increasing_in_k(xs):
    sse = [sol.sse_within for _, sol, _ in reversed(_sweep(xs).entries)]
    for fewer, more in zip(sse, sse[1:]):
        assert more <= fewer * (1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(point_sets)
def test_equal_values_share_a_label(xs):
    pts = np.array(xs)
    for _, sol, _ in _sweep(xs).entries:
        for value in np.unique(pts):
            assert np.unique(sol.assignments[pts == value]).size == 1


# magnitudes from 1e-100 to 1e6, or exactly 0, so that scaling by 2^-600
# stays clear of subnormals
scalable = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False).map(
    lambda v: v if abs(v) >= 1e-100 else 0.0)


@PROPERTY_SETTINGS
@given(st.lists(scalable, min_size=4, max_size=30).filter(lambda xs: len(set(xs)) >= 3))
def test_f_is_unchanged_when_points_are_scaled_by_powers_of_two(xs):
    pts = np.array(xs)
    for _, sol, anova in _sweep(xs).entries:
        for power in (600, -600):
            again = anova_f(np.ldexp(pts, power), sol)
            assert again.f_value == anova.f_value
            assert again.p_value == anova.p_value
