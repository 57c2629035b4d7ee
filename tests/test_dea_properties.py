"""Property-based tests of per-period DEA scoring through score_period."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from paneleff.dea import DeaSpec, score_period, solve_bcc, solve_ccr  # noqa: E402
from paneleff.panel_data import CrossSection  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

values = st.floats(min_value=0.5, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def cross_sections(draw):
    """1-10 DMUs with 1-3 inputs and 1-2 outputs; some rows repeat an
    earlier DMU, so duplicates and ties are common."""
    m = draw(st.integers(1, 3))
    s = draw(st.integers(1, 2))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        if rows and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            rows.append(draw(st.lists(values, min_size=m + s, max_size=m + s)))
    data = np.array(rows)
    return CrossSection("t", tuple(f"d{i}" for i in range(len(rows))), data[:, :m], data[:, m:])


specs = st.builds(lambda rts, orientation: DeaSpec(("x",), ("y",), rts, orientation),
                  st.sampled_from(["CRS", "VRS"]), st.sampled_from(["input", "output"]))


@PROPERTY_SETTINGS
@given(cross_sections(), specs)
def test_stacked_scores_equal_single_dmu_solves(cs, spec):
    solve = solve_ccr if spec.returns_to_scale == "CRS" else solve_bcc
    expected = [solve(cs, dmu, spec.orientation).score for dmu in cs.dmus]
    assert score_period(cs, spec).tolist() == expected


@PROPERTY_SETTINGS
@given(cross_sections(), specs, st.data())
def test_adding_a_dominated_dmu_changes_no_other_score(cs, spec, data):
    j = data.draw(st.integers(0, len(cs.dmus) - 1))
    more = data.draw(st.floats(0.01, 1.0))
    less = data.draw(st.floats(0.01, 0.9))
    grown = CrossSection("t", cs.dmus + ("dominated",),
                         np.vstack([cs.inputs, cs.inputs[j] * (1.0 + more)]),
                         np.vstack([cs.outputs, cs.outputs[j] * (1.0 - less)]))
    before = score_period(cs, spec)
    after = score_period(grown, spec)[:-1]
    assert np.allclose(after, before, rtol=1e-9, atol=1e-9)


@PROPERTY_SETTINGS
@given(cross_sections())
def test_crs_scores_are_at_most_vrs_scores_under_input_orientation(cs):
    crs = score_period(cs, DeaSpec(("x",), ("y",), "CRS", "input"))
    vrs = score_period(cs, DeaSpec(("x",), ("y",), "VRS", "input"))
    assert np.all(crs <= vrs + 1e-9)


@PROPERTY_SETTINGS
@given(cross_sections(), st.sampled_from(["input", "output"]))
def test_every_crs_period_has_a_dmu_scoring_exactly_one(cs, orientation):
    assert 1.0 in score_period(cs, DeaSpec(("x",), ("y",), "CRS", orientation)).tolist()


def in_units(cs, data, exponents, scale):
    """cs with each input and output column multiplied by its own
    scale(k), k drawn from exponents."""
    def columns(matrix):
        ks = data.draw(st.lists(exponents, min_size=matrix.shape[1], max_size=matrix.shape[1]))
        return scale(matrix, np.array(ks))
    return CrossSection(cs.period, cs.dmus, columns(cs.inputs), columns(cs.outputs))


@PROPERTY_SETTINGS
@given(cross_sections(), specs, st.data())
def test_power_of_two_units_leave_every_score_bit_identical(cs, spec, data):
    # radial scores are units-invariant, and the solver scales each row of
    # its programs, one per DEA column, to a largest coefficient of 1: a
    # power of two leaves every scaled row, and so every pivot, unchanged
    rescaled = in_units(cs, data, st.integers(-30, 30), np.ldexp)
    assert score_period(rescaled, spec).tolist() == score_period(cs, spec).tolist()


@PROPERTY_SETTINGS
@given(cross_sections(), specs, st.data())
def test_decimal_units_move_scores_only_by_roundoff(cs, spec, data):
    rescaled = in_units(cs, data, st.integers(-6, 6), lambda matrix, ks: matrix * 10.0 ** ks)
    assert np.allclose(score_period(rescaled, spec), score_period(cs, spec), rtol=1e-9, atol=0.0)
