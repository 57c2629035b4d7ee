"""Panel data model: CSV ingestion, DEA preconditions, direction transforms.

The on-disk format is long CSV with the exact header ``dmu,period,variable,value``,
UTF-8, one observation per row. Values are decimal literals; an empty value
field is the missing marker. DMU and period order is order of first
appearance in the file; period labels are opaque strings.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvParseError,
    DomainError,
    DuplicateKeyError,
    PeriodLookupError,
    SchemaError,
    UsageError,
)

CSV_HEADER = ("dmu", "period", "variable", "value")

ROLES = ("dea_input", "dea_output", "indicator")
DIRECTIONS = ("desirable", "undesirable")
TRANSFORM_METHODS = ("reciprocal", "max_minus")

MAX_MINUS_HEADROOM = 1.01


@dataclass(frozen=True)
class VariableDef:
    """One variable in a panel schema.

    role is one of dea_input, dea_output, indicator. direction marks
    less-is-better variables; dea_input variables are always desirable.
    """

    name: str
    role: str
    direction: str = "desirable"

    def __post_init__(self):
        if not self.name:
            raise SchemaError("variable name must be non-empty")
        if self.role not in ROLES:
            raise SchemaError(f"variable {self.name!r}: role must be one of {ROLES}, got {self.role!r}")
        if self.direction not in DIRECTIONS:
            raise SchemaError(
                f"variable {self.name!r}: direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        if self.role == "dea_input" and self.direction == "undesirable":
            raise SchemaError(f"variable {self.name!r}: dea_input variables are always desirable")


@dataclass(frozen=True)
class PanelDataset:
    """Dense DMU x period x variable tensor with NaN as the missing marker.

    Immutable after construction; the value tensor is marked read-only so
    instances can be shared across concurrent workers.
    """

    dmus: tuple[str, ...]
    periods: tuple[str, ...]
    variables: tuple[VariableDef, ...]
    values: np.ndarray

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SchemaError("variable names must be unique within a dataset")
        if len(set(self.dmus)) != len(self.dmus):
            raise UsageError("dmu identifiers contain duplicates")
        if len(set(self.periods)) != len(self.periods):
            raise UsageError("period labels contain duplicates")
        expected = (len(self.dmus), len(self.periods), len(self.variables))
        if self.values.shape != expected:
            raise UsageError(f"value tensor has shape {self.values.shape}, expected {expected}")
        self.values.setflags(write=False)

    def variable_index(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise SchemaError(f"unknown variable {name!r}")

    def variable(self, name: str) -> VariableDef:
        return self.variables[self.variable_index(name)]

    def period_index(self, period: str) -> int:
        try:
            return self.periods.index(period)
        except ValueError:
            raise PeriodLookupError(f"unknown period {period!r}; dataset covers {self.periods[0]}..{self.periods[-1]}") from None

    def column(self, name: str) -> np.ndarray:
        """The (dmu, period) matrix for one variable."""
        return self.values[:, :, self.variable_index(name)]


@dataclass(frozen=True)
class CrossSection:
    """One period's input and output matrices, ordered by DMU and by the
    requesting model's variable order."""

    period: str
    dmus: tuple[str, ...]
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        self.inputs.setflags(write=False)
        self.outputs.setflags(write=False)

    def dmu_index(self, dmu: str) -> int:
        try:
            return self.dmus.index(dmu)
        except ValueError:
            raise UsageError(f"unknown dmu {dmu!r} in period {self.period}") from None


@dataclass(frozen=True)
class Finding:
    code: str
    message: str
    location: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[Finding, ...] = ()
    warnings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"]
        for f in self.errors:
            lines.append(f"  ERROR {f.code} at {f.location}: {f.message}")
        for f in self.warnings:
            lines.append(f"  WARNING {f.code} at {f.location}: {f.message}")
        return "\n".join(lines)


def load_panel(source, schema, transforms=()) -> PanelDataset:
    """Read a long-format CSV stream (or path) into a dense PanelDataset,
    then apply transform_undesirable for each (variable, method) pair of
    transforms, in order.

    Every ``variable`` in the file must appear in schema; cells absent from
    the file carry the missing marker. Raises CsvParseError (with line
    number), SchemaError, or DuplicateKeyError.
    """
    variables = tuple(schema)
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise SchemaError("schema variable names must be unique")
    var_index = {n: i for i, n in enumerate(names)}

    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_panel(fh, schema, transforms)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError("empty file, expected header dmu,period,variable,value", 1) from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise CsvParseError(f"header must be exactly {','.join(CSV_HEADER)}", 1)

    dmus: dict[str, int] = {}
    periods: dict[str, int] = {}
    cells: dict[tuple[int, int, int], float] = {}
    first_line: dict[tuple[int, int, int], int] = {}

    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise CsvParseError(f"expected 4 fields, got {len(row)}", line_no)
        dmu, period, variable, raw = (f.strip() for f in row)
        if not dmu or not period:
            raise CsvParseError("dmu and period must be non-empty", line_no)
        if variable not in var_index:
            raise SchemaError(f"line {line_no}: variable {variable!r} is not in the schema")
        if raw == "":
            value = math.nan
        else:
            try:
                value = float(raw)
            except ValueError:
                raise CsvParseError(f"value {raw!r} is not a decimal literal", line_no) from None
        d = dmus.setdefault(dmu, len(dmus))
        p = periods.setdefault(period, len(periods))
        key = (d, p, var_index[variable])
        if key in cells:
            raise DuplicateKeyError(
                f"duplicate key ({dmu}, {period}, {variable}); first seen on line {first_line[key]}",
                line_no,
            )
        cells[key] = value
        first_line[key] = line_no

    values = np.full((len(dmus), len(periods), len(variables)), math.nan)
    for (d, p, v), value in cells.items():
        values[d, p, v] = value
    panel = PanelDataset(tuple(dmus), tuple(periods), variables, values)
    for variable, method in transforms:
        panel = transform_undesirable(panel, variable, method)
    return panel


def write_panel_csv(panel: PanelDataset, dest) -> None:
    """Write a dataset back to long CSV, one row per cell, each value as
    its shortest round-tripping literal. A missing cell is written as an
    empty value field, which load_panel reads as missing, so load_panel
    inverts it with or without missing cells: the same DMUs, periods,
    variables and values, also for a DMU whose every cell is missing."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_panel_csv(panel, fh)
            return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for d, dmu in enumerate(panel.dmus):
        for p, period in enumerate(panel.periods):
            for v, var in enumerate(panel.variables):
                x = panel.values[d, p, v]
                writer.writerow([dmu, period, var.name, "" if math.isnan(x) else repr(float(x))])


def cell_findings(panel: PanelDataset, names, positive: bool = False) -> list[Finding]:
    """A finding per missing or infinite cell of the named variables, and
    with positive per finite nonpositive one, by variable, DMU and period."""
    findings = []
    for name in names:
        col = panel.column(name)
        for d, p in np.argwhere(~(np.isfinite(col) & (col > 0.0) if positive else np.isfinite(col))):
            x = col[d, p]
            loc = f"dmu={panel.dmus[d]} period={panel.periods[p]} variable={name}"
            if math.isnan(x):
                findings.append(Finding("MISSING", "cell is missing", loc))
            elif math.isinf(x):
                findings.append(Finding("NONFINITE", f"cell value {float(x)!r} is not finite", loc))
            else:
                findings.append(Finding("NONPOSITIVE", f"cell value {float(x)!r} must be strictly positive", loc))
    return findings


def validate_for_dea(panel: PanelDataset, spec) -> ValidationReport:
    """Check a dataset against one DEA model configuration.

    Errors: unknown variables, role mismatches, missing or non-positive
    input/output cells. Warnings: DISCRIMINATION when the DMU count does
    not exceed the product of input and output counts, and UNDESIRABLE
    for less-is-better outputs that still need a direction transform.
    Always returns a report rather than raising.
    """
    errors: list[Finding] = []
    warnings: list[Finding] = []
    known = {v.name: v for v in panel.variables}

    role_of = {"dea_input": spec.input_vars, "dea_output": spec.output_vars}
    for role, group in role_of.items():
        for name in group:
            if name not in known:
                errors.append(Finding("UNKNOWN_VARIABLE", f"variable {name!r} is not in the dataset", f"variable={name}"))
                continue
            var = known[name]
            if var.role != role:
                warnings.append(
                    Finding(
                        "ROLE_MISMATCH",
                        f"variable {name!r} has role {var.role}, used as {role}",
                        f"variable={name}",
                    )
                )
            if role == "dea_output" and var.direction == "undesirable":
                warnings.append(
                    Finding(
                        "UNDESIRABLE",
                        f"output {name!r} is marked undesirable; apply a direction transform before solving",
                        f"variable={name}",
                    )
                )

    errors += cell_findings(panel, [n for n in (*spec.input_vars, *spec.output_vars) if n in known], positive=True)

    n_dmus = len(panel.dmus)
    product = len(spec.input_vars) * len(spec.output_vars)
    if n_dmus <= product:
        warnings.append(
            Finding(
                "DISCRIMINATION",
                f"{n_dmus} DMUs do not exceed {len(spec.input_vars)} inputs x "
                f"{len(spec.output_vars)} outputs = {product}; efficient/inefficient "
                "discrimination will be weak",
                f"dmus={n_dmus}",
            )
        )
    return ValidationReport(tuple(errors), tuple(warnings))


def transform_undesirable(panel: PanelDataset, variable: str, method: str = "max_minus") -> PanelDataset:
    """Return a new dataset with a less-is-better variable made increasing.

    reciprocal: x -> 1/x. max_minus: within each period cross-section,
    x -> 1.01 * max(x) - x, which keeps transformed values strictly
    positive. Only finite cells are transformed, and max(x) is taken over
    them; a missing or infinite cell stays as read, for validation to
    name. The returned variable is marked desirable, so a second
    application is rejected.
    """
    if method not in TRANSFORM_METHODS:
        raise UsageError(f"method must be one of {TRANSFORM_METHODS}, got {method!r}")
    v = panel.variable_index(variable)
    vdef = panel.variables[v]
    if vdef.direction != "undesirable":
        raise UsageError(f"variable {variable!r} is not marked undesirable")

    col = panel.values[:, :, v]
    finite = np.isfinite(col)
    if np.any(col[finite] <= 0.0):
        bad = np.argwhere(finite & (col <= 0.0))[0]
        raise DomainError(
            f"variable {variable!r} has non-positive value at dmu={panel.dmus[bad[0]]} "
            f"period={panel.periods[bad[1]]}; transforms require strictly positive data"
        )

    new_col = col.copy()
    if method == "reciprocal":
        new_col[finite] = 1.0 / col[finite]
    else:
        for p in range(len(panel.periods)):
            mask = finite[:, p]
            if not np.any(mask):
                continue
            top = col[mask, p].max()
            new_col[mask, p] = MAX_MINUS_HEADROOM * top - col[mask, p]

    values = panel.values.copy()
    values[:, :, v] = new_col
    variables = list(panel.variables)
    variables[v] = VariableDef(vdef.name, vdef.role, "desirable")
    return PanelDataset(panel.dmus, panel.periods, tuple(variables), values)


def slice_period(panel: PanelDataset, period: str, spec) -> CrossSection:
    """Project one period into the input/output matrices a DEA run consumes.

    Matrices are ordered by panel DMU order and by the model's variable
    order. Callers are expected to have passed validate_for_dea first.
    """
    p = panel.period_index(period)
    inputs = np.column_stack([panel.values[:, p, panel.variable_index(n)] for n in spec.input_vars])
    outputs = np.column_stack([panel.values[:, p, panel.variable_index(n)] for n in spec.output_vars])
    return CrossSection(period, panel.dmus, inputs, outputs)
