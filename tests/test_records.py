"""The contract of the package's public records, which are named tuples:
a field cannot be assigned, records built from equal fields are equal,
and a constructor that checks its fields raises the typed error it names."""

from array import array

import numpy as np
import pytest

from paneleff import cluster, config, dea, linprog, panel_data, pls
from paneleff.cluster import AnovaResult, ClusterSolution, KSweepReport
from paneleff.config import (
    ClusterStageConfig,
    CobbDouglasConfig,
    DeaAnalysisConfig,
    DeaSpec,
    LatentBlock,
    PathModelSpec,
    PlsModelConfig,
    PlsStageConfig,
    parse_config,
)
from paneleff.dea import EfficiencyPanel, EfficiencyResult
from paneleff.errors import SchemaError, UsageError
from paneleff.linprog import LpProblem, LpSolution
from paneleff.panel_data import CrossSection, Finding, PanelDataset, ValidationReport, VariableDef
from paneleff.pls import BootstrapSummary, DesignMatrix, OlsFit, PathEstimates
from paneleff.synthetic import make_demo_config

# field values shared by every build of a record, arrays included
X = np.array([[1.0], [2.0]])
Y = np.array([[3.0], [4.0]])
V = np.array([1.0, 2.0])
CELLS = memoryview(array("d", [1.0, 2.0])).toreadonly()
SPEC = DeaSpec(("x",), ("y",))
PATHS = PathModelSpec((LatentBlock("A", ("a",)), LatentBlock("B", ("b",))), (("A", "B"),))
CS = CrossSection("t", ("d0", "d1"), X, Y)
SOLUTION = ClusterSolution(2, np.array([0, 1]), np.array([[2.0], [1.0]]), 0.0)
ANOVA = AnovaResult(1, 0, float("inf"), 0.0, 0.5, 0.0)

# every public record: a build from the same field values on each call
RECORDS = {
    "VariableDef": lambda: VariableDef("x", "dea_input"),
    "PanelDataset": lambda: PanelDataset(("d0", "d1"), ("t",), (VariableDef("x", "dea_input"),), CELLS),
    "CrossSection": lambda: CrossSection("t", ("d0", "d1"), X, Y),
    "Finding": lambda: Finding("MISSING", "cell is missing", "dmu=d0"),
    "ValidationReport": lambda: ValidationReport((Finding("MISSING", "cell is missing", "dmu=d0"),)),
    "DeaSpec": lambda: DeaSpec(["x"], ["y"], "VRS", orientation="output"),
    "LatentBlock": lambda: LatentBlock("A", ["a"]),
    "PathModelSpec": lambda: PathModelSpec([LatentBlock("A", ("a",)), LatentBlock("B", ("b",))], [["A", "B"]]),
    "DeaAnalysisConfig": lambda: DeaAnalysisConfig("ict", SPEC),
    "ClusterStageConfig": lambda: ClusterStageConfig(6, 2, 0.05),
    "PlsModelConfig": lambda: PlsModelConfig("m", PATHS),
    "CobbDouglasConfig": lambda: CobbDouglasConfig("mcs", ("leb",), "imr"),
    "PlsStageConfig": lambda: PlsStageConfig((PlsModelConfig("m", PATHS),), 100, 0),
    "PipelineConfig": lambda: parse_config(make_demo_config()),
    "LpProblem": lambda: LpProblem([1.0], "max", [([1.0], "<=", 1.0)]),
    "LpSolution": lambda: LpSolution("optimal", 1.0, X, Y, 3),
    "ClusterSolution": lambda: ClusterSolution(2, SOLUTION.assignments, SOLUTION.centroids, 0.0),
    "AnovaResult": lambda: AnovaResult(1, 0, float("inf"), 0.0, 0.5, 0.0),
    "KSweepReport": lambda: KSweepReport(((2, SOLUTION, ANOVA),), 2, "max_f", 0.05),
    "EfficiencyResult": lambda: EfficiencyResult(dmu="d0", score=1.0, orientation="input",
                                                 returns_to_scale="CRS", multiplier_u=X, multiplier_v=Y,
                                                 scale_offset=None, cross_section=CS),
    "EfficiencyPanel": lambda: EfficiencyPanel(("d0", "d1"), ("t",), X, Y, SPEC),
    "BootstrapSummary": lambda: BootstrapSummary({}, {}, {}, 100, 0, 0, 0),
    "PathEstimates": lambda: PathEstimates({("A", "B"): 0.5}, {"B": 0.25}, {"a": 1.0, "b": 1.0}, True, 3,
                                           "path_weighting"),
    "DesignMatrix": lambda: DesignMatrix(("ln_x",), X),
    "OlsFit": lambda: OlsFit(("x0",), V, V, V),
}


def test_every_public_record_is_covered():
    # the named tuples of the modules that define the package's records
    public = {name for module in (cluster, config, dea, linprog, panel_data, pls)
              for name, value in vars(module).items()
              if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == module.__name__
              and not name.startswith("_")}
    assert public == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_refuses_assignment_to_each_field(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_built_from_equal_fields_are_equal(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first == second
    assert not first != second
    assert first._replace() == first


def test_a_record_built_by_keyword_is_the_positional_one():
    assert DeaSpec(input_vars=("x",), output_vars=("y",)) == SPEC
    assert VariableDef(name="x", role="indicator") == VariableDef("x", "indicator", "desirable")
    assert LpSolution(status="infeasible", objective_value=1.0, primal=None, dual=None, iterations=0).dual is None


def test_constructors_normalise_their_fields():
    spec = RECORDS["DeaSpec"]()
    assert (spec.input_vars, spec.output_vars, spec.returns_to_scale) == (("x",), ("y",), "VRS")
    assert RECORDS["LatentBlock"]().indicators == ("a",)
    assert RECORDS["PathModelSpec"]() == PATHS
    assert RECORDS["PanelDataset"]().cells.readonly
    shaped = PanelDataset(("d0", "d1"), ("t",), (VariableDef("x", "dea_input"),), np.array([[[1.0]], [[2.0]]]))
    assert shaped == RECORDS["PanelDataset"]()
    for name in ("CrossSection", "ClusterSolution", "EfficiencyPanel", "DesignMatrix", "OlsFit"):
        record = RECORDS[name]()
        assert not any(a.flags.writeable for a in record if isinstance(a, np.ndarray)), name


def test_path_estimates_leave_fitted_out_of_equality():
    bare = RECORDS["PathEstimates"]()
    fitted = bare._replace(fitted=("model", "sample"))
    assert fitted == bare and bare == fitted
    assert not fitted != bare
    assert fitted != bare._replace(iterations=4)


@pytest.mark.parametrize("build, error", [
    (lambda: VariableDef("", "indicator"), SchemaError),
    (lambda: VariableDef("x", "weight"), SchemaError),
    (lambda: VariableDef("x", "dea_input", "undesirable"), SchemaError),
    (lambda: PanelDataset(("d0", "d0"), ("t",), (VariableDef("x", "dea_input"),), CELLS), UsageError),
    (lambda: PanelDataset(("d0",), ("t",), (VariableDef("x", "dea_input"),) * 2, CELLS), SchemaError),
    (lambda: PanelDataset(("d0",), ("t",), (VariableDef("x", "dea_input"),), CELLS), UsageError),
    (lambda: DeaSpec((), ("y",)), UsageError),
    (lambda: DeaSpec(("x",), ("x",)), UsageError),
    (lambda: DeaSpec(("x",), ("y",), returns_to_scale="DRS"), UsageError),
    (lambda: DeaSpec(("x",), ("y",), orientation="both"), UsageError),
    (lambda: LatentBlock("", ("a",)), UsageError),
    (lambda: LatentBlock("A", ()), UsageError),
    (lambda: PathModelSpec(PATHS.blocks, (("A", "B"), ("B", "A"))), UsageError),
    (lambda: PathModelSpec(PATHS.blocks, (("A", "B"),), inner_scheme="factorial"), UsageError),
    (lambda: LpProblem([1.0], "maximize", []), UsageError),
    (lambda: LpProblem([1.0], "max", [([1.0, 2.0], "<=", 1.0)]), UsageError),
], ids=["variable-name", "variable-role", "undesirable-input", "duplicate-dmu", "duplicate-variable",
        "cell-shape", "no-inputs", "shared-variable", "returns-to-scale", "orientation", "latent-name",
        "no-indicators", "cycle", "inner-scheme", "lp-sense", "lp-row"])
def test_a_checking_constructor_raises_its_typed_error(build, error):
    with pytest.raises(error):
        build()
