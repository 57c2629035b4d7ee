"""Differential tests: period stacks of envelopment programs against HiGHS.

Every score that score_period computes from one lockstep stack is compared
with scipy's HiGHS solving the same program one DMU at a time. Radial scores
do not change when a column is rescaled, so HiGHS gets every column scaled
to mean 1; unscaled, it has declared some of these always-feasible programs
infeasible at tight tolerances.
"""

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

from paneleff.dea import DeaSpec, score_period  # noqa: E402
from paneleff.panel_data import CrossSection, slice_period  # noqa: E402
from test_dea import WIDE_SPECS, wide_panel  # noqa: E402

SPECS = [DeaSpec(("x",), ("y",), rts, orientation)
         for rts in ("CRS", "VRS") for orientation in ("input", "output")]
HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def highs_score(X, Y, o, rts, orientation):
    """theta (input) or phi (output) of DMU o from HiGHS."""
    n, m = X.shape
    s = Y.shape[1]
    c = np.zeros(n + 1)
    A = np.zeros((m + s, n + 1))
    b = np.zeros(m + s)
    A[:m, 1:] = X.T
    A[m:, 1:] = -Y.T
    if orientation == "input":
        c[0] = 1.0
        A[:m, 0] = -X[o]
        b[m:] = -Y[o]
    else:
        c[0] = -1.0
        b[:m] = X[o]
        A[m:, 0] = Y[o]
    A_eq, b_eq = (np.r_[0.0, np.ones(n)][None], [1.0]) if rts == "VRS" else (None, None)
    res = optimize.linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq,
                           bounds=[(None, None)] + [(0.0, None)] * n, method="highs", options=HIGHS)
    assert res.status == 0, res.message
    return float(res.x[0])


def assert_scores_match_highs(cs, spec):
    """The scores of the period's stack are within 1e-6 of HiGHS's
    (relative above 1), checked for every (n // 20)-th DMU."""
    dmus = np.arange(0, len(cs.dmus), max(1, len(cs.dmus) // 20))
    scores = score_period(cs, spec)[dmus]
    X = cs.inputs / cs.inputs.mean(axis=0)
    Y = cs.outputs / cs.outputs.mean(axis=0)
    expected = np.array([highs_score(X, Y, o, spec.returns_to_scale, spec.orientation) for o in dmus])
    assert np.all(np.abs(scores - expected) <= 1e-6 * np.maximum(1.0, expected))


def cross_section(X, Y):
    return CrossSection("t", tuple(f"d{i}" for i in range(X.shape[0])), X, Y)


def random_data(rng, n, m=3, s=2):
    return rng.uniform(1.0, 10.0, (n, m)), rng.uniform(1.0, 10.0, (n, s))


@pytest.mark.parametrize("n", [5, 40, 200])
def test_duplicate_dmus(n):
    # the second half of the DMUs repeats rows of the first half
    rng = np.random.default_rng(n)
    X, Y = random_data(rng, n)
    copies = rng.integers(0, n // 2, n - n // 2)
    X[n // 2:], Y[n // 2:] = X[copies], Y[copies]
    for spec in SPECS:
        assert_scores_match_highs(cross_section(X, Y), spec)


@pytest.mark.parametrize("n", [6, 60])
def test_collinear_columns(n):
    rng = np.random.default_rng(100 + n)
    X, Y = random_data(rng, n)
    X[:, 1] = 3.0 * X[:, 0]
    Y[:, 1] = 0.5 * Y[:, 0]
    X[1] = 2.0 * X[0]  # and one DMU a scaled copy of another
    Y[1] = 2.0 * Y[0]
    for spec in SPECS:
        assert_scores_match_highs(cross_section(X, Y), spec)


@pytest.mark.parametrize("n, units, span", [
    pytest.param(200, 3, 0, id="units-1e-3..1e3-n200"),
    pytest.param(200, 0, 3, id="span-1e-3..1e3-n200"),
    pytest.param(8, 6, 6, id="units-and-span-1e-6..1e6-n8"),
    pytest.param(80, 6, 0, id="units-1e-6..1e6-n80"),
    pytest.param(40, 0, 6, id="span-1e-6..1e6-n40"),
])
def test_magnitudes(n, units, span):
    # inputs in units of 10^-units, 1 and 10^units; with span, the first
    # output log-uniform over 10^-span..10^span
    rng = np.random.default_rng(200 + n)
    X, Y = random_data(rng, n)
    X *= 10.0 ** np.array([-units, 0, units])
    if span:
        Y[:, 0] = 10.0 ** rng.uniform(-span, span, n)
    for spec in SPECS:
        assert_scores_match_highs(cross_section(X, Y), spec)


@pytest.mark.parametrize("seed", [83, 108, 186])
def test_wide_panels_that_once_failed(seed):
    panel = wide_panel(seed)
    for spec in WIDE_SPECS:
        for period in panel.periods:
            assert_scores_match_highs(slice_period(panel, period, spec), spec)
