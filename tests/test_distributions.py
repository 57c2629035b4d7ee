import math

import pytest

from oracles import f_cdf_by_quadrature, t_cdf_by_quadrature
from paneleff.distributions import (
    f_cdf,
    f_sf,
    regularized_incomplete_beta,
    t_two_tailed_p,
)
from paneleff.errors import UsageError


def test_incomplete_beta_uniform_case():
    for x in (0.05, 0.3, 0.77, 0.99):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)


def test_incomplete_beta_reflection_identity():
    for a, b in ((0.5, 2.0), (2.5, 1.5), (12.0, 0.5), (3.0, 3.0)):
        for x in (0.1, 0.4, 0.9):
            left = regularized_incomplete_beta(a, b, x)
            right = regularized_incomplete_beta(b, a, 1.0 - x)
            assert left + right == pytest.approx(1.0, abs=1e-10)


def test_incomplete_beta_bounds_and_domain():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(UsageError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)


def test_f_cdf_known_critical_value():
    # the 95th percentile of F(2, 24) is 3.403
    assert f_cdf(3.40, 2, 24) == pytest.approx(0.95, abs=5e-3)


def test_f_cdf_matches_quadrature_on_grid():
    grid = [
        (0.3, 1, 5), (2.0, 1, 8), (10.0, 1, 3),
        (0.8, 2, 10), (1.7, 2, 24), (3.4, 2, 24), (6.0, 2, 24),
        (1.1, 3, 7), (2.2, 3, 10), (4.4, 3, 30),
        (0.5, 4, 4), (2.9, 4, 12), (5.0, 4, 7),
        (0.9, 5, 30), (3.3, 5, 15), (8.0, 5, 5),
        (1.5, 6, 20), (2.6, 7, 14), (4.1, 8, 9), (0.2, 10, 10),
    ]
    for f, d1, d2 in grid:
        assert f_cdf(f, d1, d2) == pytest.approx(f_cdf_by_quadrature(f, d1, d2), abs=5e-3)


def test_f_cdf_edges():
    assert f_cdf(0.0, 2, 10) == 0.0
    assert f_cdf(math.inf, 2, 10) == 1.0
    assert f_sf(math.inf, 2, 10) == 0.0
    assert f_sf(0.0, 2, 10) == 1.0


def test_f_cdf_sf_complement():
    for f, d1, d2 in ((0.7, 2, 24), (3.1, 4, 11), (12.0, 1, 6)):
        assert f_cdf(f, d1, d2) + f_sf(f, d1, d2) == pytest.approx(1.0, abs=1e-12)


def test_f_cdf_monotone_in_f():
    values = [f_cdf(f, 3, 17) for f in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_t_cdf_matches_quadrature():
    # the two-tailed p-value is twice the lower tail below -|t|
    for t, df in ((0.0, 5), (1.0, 3), (2.5, 29), (-1.7, 10), (4.0, 2), (-0.3, 50)):
        assert t_two_tailed_p(t, df) == pytest.approx(2.0 * t_cdf_by_quadrature(-abs(t), df), abs=2e-6)


def test_t_symmetry():
    for t, df in ((0.8, 7), (2.2, 29)):
        assert t_two_tailed_p(t, df) == t_two_tailed_p(-t, df)
        assert 1.0 - 0.5 * t_two_tailed_p(t, df) == pytest.approx(t_cdf_by_quadrature(t, df), abs=1e-6)


def test_t_two_tailed_values():
    # classic two-sided critical value: t = 2.045 at df = 29 gives p ~ 0.05
    assert t_two_tailed_p(2.045, 29) == pytest.approx(0.05, abs=2e-3)
    assert t_two_tailed_p(0.0, 10) == 1.0
    assert t_two_tailed_p(math.inf, 10) == 0.0
