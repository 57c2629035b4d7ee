"""Property-based test of the long-CSV round trip with missing cells."""

import io
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from paneleff.panel_data import PanelDataset, VariableDef, load_panel, write_panel_csv  # noqa: E402

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
