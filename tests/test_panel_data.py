import io
import itertools
import math

import numpy as np
import pytest

from paneleff.dea import DeaSpec
from paneleff.errors import (
    CsvParseError,
    DomainError,
    DuplicateKeyError,
    PeriodLookupError,
    SchemaError,
    UsageError,
)
from paneleff.panel_data import (
    PanelDataset,
    VariableDef,
    cell_findings,
    load_panel,
    slice_period,
    transform_undesirable,
    validate_for_dea,
    write_panel_csv,
)

X = VariableDef("x", "dea_input")
Y = VariableDef("y", "dea_output")


def load(text, schema):
    return load_panel(io.StringIO(text), schema)


def test_single_cell_round_trip():
    panel = load("dmu,period,variable,value\nA,1998,x,2.0\n", [X])
    assert panel.dmus == ("A",)
    assert panel.periods == ("1998",)
    assert panel.values.shape == (1, 1, 1)
    assert panel.values[0, 0, 0] == 2.0


def test_duplicate_key_names_second_line():
    text = "dmu,period,variable,value\nA,1998,x,2.0\nA,1998,x,3.0\n"
    with pytest.raises(DuplicateKeyError) as exc:
        load(text, [X])
    assert exc.value.line_number == 3


def test_unknown_variable_is_schema_error():
    with pytest.raises(SchemaError):
        load("dmu,period,variable,value\nA,1998,z,2.0\n", [X])


def test_malformed_value_reports_line():
    with pytest.raises(CsvParseError) as exc:
        load("dmu,period,variable,value\nA,1998,x,2.0\nB,1998,x,two\n", [X])
    assert exc.value.line_number == 3


def test_header_must_match_exactly():
    with pytest.raises(CsvParseError):
        load("dmu,year,variable,value\nA,1998,x,2.0\n", [X])


def test_missing_cells_carry_nan():
    text = "dmu,period,variable,value\nA,1998,x,2.0\nA,1998,y,\n"
    panel = load(text, [X, Y])
    assert math.isnan(panel.values[0, 0, 1])


def test_full_synthetic_panel_has_no_missing_cells():
    schema = [VariableDef(f"v{i}", "indicator") for i in range(14)]
    rows = ["dmu,period,variable,value"]
    value = 0.0
    for d in range(27):
        for p in range(10):
            for v in range(14):
                value += 1.0
                rows.append(f"D{d},{1998 + p},v{v},{value}")
    panel = load("\n".join(rows) + "\n", schema)
    assert panel.values.shape == (27, 10, 14)
    assert panel.values.size == 3780
    assert np.all(np.isfinite(panel.values))


def test_write_then_load_is_identity():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.1, 9.9, size=(4, 3, 2))
    panel = PanelDataset(("A", "B", "C", "D"), ("1998", "1999", "2000"), (X, Y), values)
    buf = io.StringIO()
    write_panel_csv(panel, buf)
    again = load(buf.getvalue(), [X, Y])
    assert again.dmus == panel.dmus
    assert again.periods == panel.periods
    assert np.array_equal(again.values, panel.values)


def make_panel(x_values, y_values, periods=("1998",)):
    x = np.asarray(x_values, float)
    y = np.asarray(y_values, float)
    values = np.stack([x, y], axis=2)
    dmus = tuple(f"D{i}" for i in range(values.shape[0]))
    return PanelDataset(dmus, tuple(periods), (X, Y), values)


def test_validate_flags_discrimination_when_dmus_too_few():
    # 27 DMUs against 4 x 10 variable products
    schema = tuple(VariableDef(f"in{i}", "dea_input") for i in range(4)) + tuple(
        VariableDef(f"out{i}", "dea_output") for i in range(10)
    )
    values = np.full((27, 1, 14), 2.0)
    panel = PanelDataset(tuple(f"D{i}" for i in range(27)), ("1998",), schema, values)
    spec = DeaSpec(tuple(f"in{i}" for i in range(4)), tuple(f"out{i}" for i in range(10)))
    report = validate_for_dea(panel, spec)
    assert report.ok
    assert any(f.code == "DISCRIMINATION" for f in report.warnings)


def test_validate_no_discrimination_with_headroom():
    # 27 DMUs against 2 x 5 variable products
    schema = tuple(VariableDef(f"in{i}", "dea_input") for i in range(2)) + tuple(
        VariableDef(f"out{i}", "dea_output") for i in range(5)
    )
    values = np.full((27, 1, 7), 2.0)
    panel = PanelDataset(tuple(f"D{i}" for i in range(27)), ("1998",), schema, values)
    spec = DeaSpec(tuple(f"in{i}" for i in range(2)), tuple(f"out{i}" for i in range(5)))
    report = validate_for_dea(panel, spec)
    assert report.ok
    assert not any(f.code == "DISCRIMINATION" for f in report.warnings)


def test_validate_discrimination_rule_exhaustively():
    for n_dmus, n_in, n_out in itertools.product(range(1, 7), repeat=3):
        schema = tuple(VariableDef(f"in{i}", "dea_input") for i in range(n_in)) + tuple(
            VariableDef(f"out{i}", "dea_output") for i in range(n_out)
        )
        values = np.full((n_dmus, 1, n_in + n_out), 1.0)
        panel = PanelDataset(tuple(f"D{i}" for i in range(n_dmus)), ("p",), schema, values)
        spec = DeaSpec(tuple(f"in{i}" for i in range(n_in)), tuple(f"out{i}" for i in range(n_out)))
        report = validate_for_dea(panel, spec)
        assert any(f.code == "DISCRIMINATION" for f in report.warnings) == (n_dmus <= n_in * n_out)


def test_validate_zero_input_cell_is_nonpositive_error():
    panel = make_panel([[0.0], [2.0]], [[1.0], [1.0]])
    report = validate_for_dea(panel, DeaSpec(("x",), ("y",)))
    assert not report.ok
    assert any(f.code == "NONPOSITIVE" and "D0" in f.location for f in report.errors)


def test_cell_findings_print_cell_values_as_plain_floats():
    # under numpy 2 the repr of a cell read np.float64(-5.0)
    panel = make_panel([[-5.0], [math.inf]], [[1.0], [1.0]])
    report = validate_for_dea(panel, DeaSpec(("x",), ("y",)))
    assert report.errors[0].message == "cell value -5.0 must be strictly positive"
    assert [f.message for f in cell_findings(panel, ["x"])] == ["cell value inf is not finite"]


def test_validate_missing_cell_is_error():
    panel = make_panel([[math.nan], [2.0]], [[1.0], [1.0]])
    report = validate_for_dea(panel, DeaSpec(("x",), ("y",)))
    assert any(f.code == "MISSING" for f in report.errors)


def test_validate_unknown_spec_variable_reported_not_raised():
    panel = make_panel([[1.0]], [[1.0]])
    report = validate_for_dea(panel, DeaSpec(("nope",), ("y",)))
    assert any(f.code == "UNKNOWN_VARIABLE" for f in report.errors)


def test_validate_warns_on_undesirable_output():
    bad = VariableDef("y", "dea_output", "undesirable")
    values = np.ones((2, 1, 2))
    panel = PanelDataset(("A", "B"), ("1998",), (X, bad), values)
    report = validate_for_dea(panel, DeaSpec(("x",), ("y",)))
    assert any(f.code == "UNDESIRABLE" for f in report.warnings)


def test_dea_input_never_undesirable():
    with pytest.raises(SchemaError):
        VariableDef("x", "dea_input", "undesirable")


def undesirable_panel(values_1d, periods=("1998",)) -> PanelDataset:
    m = VariableDef("m", "dea_output", "undesirable")
    arr = np.asarray(values_1d, float).reshape(-1, len(periods), 1)
    values = np.concatenate([np.ones_like(arr), arr], axis=2)
    dmus = tuple(f"D{i}" for i in range(arr.shape[0]))
    return PanelDataset(dmus, tuple(periods), (X, m), values)


def test_reciprocal_transform():
    panel = undesirable_panel([2.0, 4.0])
    out = transform_undesirable(panel, "m", "reciprocal")
    assert out.column("m")[:, 0] == pytest.approx([0.5, 0.25])
    assert out.variable("m").direction == "desirable"


def test_max_minus_transform_hand_values():
    panel = undesirable_panel([10.0, 107.0])
    out = transform_undesirable(panel, "m", "max_minus")
    assert out.column("m")[:, 0] == pytest.approx([98.07, 1.07])
    assert np.all(out.column("m") > 0)


def test_max_minus_reverses_rank_order_per_period():
    rng = np.random.default_rng(8)
    values = rng.uniform(1, 100, size=(6, 3))
    panel = undesirable_panel(values, periods=("a", "b", "c"))
    out = transform_undesirable(panel, "m", "max_minus")
    for p in range(3):
        before = values[:, p]
        after = out.column("m")[:, p]
        assert np.array_equal(np.argsort(before), np.argsort(after)[::-1])
        assert np.argmax(before) == np.argmin(after)


@pytest.mark.parametrize("method, transformed", [("max_minus", [3.05, 0.05]), ("reciprocal", [0.5, 0.2])])
def test_transform_leaves_an_infinite_cell_for_validation(method, transformed):
    # max_minus once spread one inf over its whole period (inf and nan
    # cells, with a numpy warning) and reciprocal turned it into 0.0, so
    # validation named the wrong cells or the wrong fault
    panel = undesirable_panel([2.0, math.inf, 5.0])
    out = transform_undesirable(panel, "m", method)
    column = out.column("m")[:, 0]
    assert column[[0, 2]] == pytest.approx(transformed)
    assert column[1] == math.inf
    findings = cell_findings(out, ["m"], positive=True)
    assert [(f.code, f.location) for f in findings] == [("NONFINITE", "dmu=D1 period=1998 variable=m")]


def test_transform_is_rejected_on_second_application():
    panel = undesirable_panel([2.0, 4.0])
    once = transform_undesirable(panel, "m", "reciprocal")
    with pytest.raises(UsageError):
        transform_undesirable(once, "m", "reciprocal")


def test_transform_rejects_desirable_variable():
    panel = make_panel([[1.0]], [[1.0]])
    with pytest.raises(UsageError):
        transform_undesirable(panel, "y", "reciprocal")


def test_reciprocal_zero_value_is_domain_error():
    panel = undesirable_panel([0.0, 4.0])
    with pytest.raises(DomainError):
        transform_undesirable(panel, "m", "reciprocal")


def test_slice_period_projects_matrices():
    panel = make_panel([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]], periods=("1998", "1999"))
    cs = slice_period(panel, "1998", DeaSpec(("x",), ("y",)))
    assert cs.dmus == panel.dmus
    assert cs.inputs[:, 0] == pytest.approx([1.0, 3.0])
    assert cs.outputs[:, 0] == pytest.approx([5.0, 7.0])


def test_slice_unknown_period_is_lookup_error():
    panel = make_panel([[1.0]], [[1.0]])
    with pytest.raises(PeriodLookupError):
        slice_period(panel, "2008", DeaSpec(("x",), ("y",)))


def test_slicing_all_periods_restacks_to_original():
    rng = np.random.default_rng(2)
    periods = tuple(str(1998 + p) for p in range(10))
    x = rng.uniform(1, 9, size=(5, 10))
    y = rng.uniform(1, 9, size=(5, 10))
    panel = make_panel(x, y, periods=periods)
    spec = DeaSpec(("x",), ("y",))
    xs = np.column_stack([slice_period(panel, p, spec).inputs[:, 0] for p in periods])
    ys = np.column_stack([slice_period(panel, p, spec).outputs[:, 0] for p in periods])
    assert np.array_equal(xs, x)
    assert np.array_equal(ys, y)


def test_tensor_is_read_only():
    panel = make_panel([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        panel.values[0, 0, 0] = 9.0


def test_load_panel_applies_its_transforms_in_order(tmp_path):
    schema = [X, VariableDef("m", "dea_output", "undesirable"), VariableDef("u", "indicator", "undesirable")]
    rows = [f"D{d},{p},{v},{1.0 + i}"
            for i, (d, p, v) in enumerate(itertools.product(range(3), ("1998", "1999"), "xmu"))]
    text = "dmu,period,variable,value\n" + "\n".join(rows) + "\n"
    transforms = (("m", "max_minus"), ("u", "reciprocal"))
    expected = load(text, schema)
    for variable, method in transforms:
        expected = transform_undesirable(expected, variable, method)
    path = tmp_path / "panel.csv"
    path.write_text(text)
    for source in (io.StringIO(text), path, str(path)):
        panel = load_panel(source, schema, transforms)
        assert (panel.dmus, panel.periods, panel.variables) == (expected.dmus, expected.periods, expected.variables)
        assert np.array_equal(panel.values, expected.values)


@pytest.mark.parametrize("text, line", [
    ("dmu,year,variable,value\nA,1998,m,2.0\n", 1),
    ("dmu,period,variable,value\nA,1998,m,2.0\nA,1998,m,3.0\n", 3),
    ("dmu,period,variable,value\nA,1998,m,2.0\nB,1998,m,two\n", 3),
])
def test_load_panel_with_transforms_reports_csv_errors_by_line(text, line):
    schema = [X, VariableDef("m", "dea_output", "undesirable")]
    with pytest.raises(CsvParseError) as plain:
        load(text, schema)
    with pytest.raises(CsvParseError) as transformed:
        load_panel(io.StringIO(text), schema, (("m", "reciprocal"),))
    assert type(transformed.value) is type(plain.value)
    assert (transformed.value.line_number, str(transformed.value)) == (line, str(plain.value))
