"""Property-based tests of the long-CSV round trip with missing cells, and
of the cell checks and direction transforms against their numpy forms."""

import io
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import numpy_cell_findings, numpy_transform_values  # noqa: E402
from paneleff.errors import DomainError  # noqa: E402
from paneleff.panel_data import (  # noqa: E402
    TRANSFORM_METHODS,
    PanelDataset,
    VariableDef,
    cell_findings,
    load_panel,
    transform_undesirable,
    write_panel_csv,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

labels = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=6)
# about half the cells missing; the rest any finite double, subnormals and -0.0 included
cells = st.one_of(st.just(math.nan), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def panels_with_missing_cells(draw):
    dmus = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    periods = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    names = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    roles = [draw(st.sampled_from(("dea_input", "dea_output", "indicator"))) for _ in names]
    shape = (len(dmus), len(periods), len(names))
    values = np.array(draw(st.lists(cells, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    values[draw(st.integers(0, len(dmus) - 1))] = math.nan  # a DMU with every cell missing
    schema = tuple(VariableDef(name, role) for name, role in zip(names, roles))
    return PanelDataset(tuple(dmus), tuple(periods), schema, values)


@PROPERTY_SETTINGS
@given(panels_with_missing_cells())
def test_write_then_load_round_trips_missing_cells(panel):
    buf = io.StringIO()
    write_panel_csv(panel, buf)
    again = load_panel(io.StringIO(buf.getvalue()), panel.variables)
    assert again.dmus == panel.dmus
    assert again.periods == panel.periods
    assert again.variables == panel.variables
    assert np.array_equal(again.values, panel.values, equal_nan=True)
    assert np.array_equal(np.signbit(again.values), np.signbit(panel.values))


# the cells a check names: missing, infinite, zero of either sign, negative
special = st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5))
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def panels_with_special_cells(draw):
    """A panel of undesirable indicators built from a writable ndarray, and
    that array."""
    dmus = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    periods = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    names = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    shape = (len(dmus), len(periods), len(names))
    # about half the panels hold no finite nonpositive cell, so that transforms run on them
    cell = st.one_of(special if draw(st.booleans()) else st.sampled_from((math.nan, math.inf, -math.inf)), positive)
    values = np.array(draw(st.lists(cell, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    schema = tuple(VariableDef(name, "indicator", "undesirable") for name in names)
    return PanelDataset(tuple(dmus), tuple(periods), schema, values), values


@PROPERTY_SETTINGS
@given(panels_with_special_cells(), st.booleans())
def test_cell_findings_match_their_numpy_form(drawn, positive_only):
    panel, _ = drawn
    names = [v.name for v in panel.variables]
    assert cell_findings(panel, names, positive_only) == numpy_cell_findings(panel, names, positive_only)


@PROPERTY_SETTINGS
@given(panels_with_special_cells(), st.sampled_from(TRANSFORM_METHODS), st.data())
def test_transforms_match_their_numpy_form_bit_for_bit(drawn, method, data):
    panel, _ = drawn
    variable = data.draw(st.sampled_from([v.name for v in panel.variables]))
    try:
        expected = numpy_transform_values(panel, variable, method)
    except DomainError as exc:
        with pytest.raises(DomainError) as raised:
            transform_undesirable(panel, variable, method)
        assert str(raised.value) == str(exc)
        return
    out = transform_undesirable(panel, variable, method)
    assert out.values.tobytes() == expected.tobytes()
    assert out.variable(variable).direction == "desirable"


@PROPERTY_SETTINGS
@given(panels_with_special_cells())
def test_values_are_read_only_and_the_callers_array_cannot_change_them(drawn):
    panel, values = drawn
    flat = PanelDataset(panel.dmus, panel.periods, panel.variables, values.reshape(-1))  # a flat view of values
    before = values.tobytes()
    assert values.flags.writeable
    for built in (panel, flat):
        assert not built.values.flags.writeable
        with pytest.raises(ValueError):
            built.values[0, 0, 0] = 1.0
    values[...] = 7.0
    for built in (panel, flat):
        assert built.values.tobytes() == built.cells.tobytes() == before
