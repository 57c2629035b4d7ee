"""Panel efficiency analysis toolkit.

Per-period DEA efficiency scoring over panel data, K-means clustering of
mean efficiencies validated with one-way ANOVA, and PLS path modeling with
bootstrap significance, joined by a deterministic report pipeline.
"""

__version__ = "0.1.0"

from .cluster import AnovaResult, ClusterSolution, KSweepReport, anova_f, kmeans, sweep_k
from .dea import DeaSpec, EfficiencyPanel, EfficiencyResult, run_panel_dea, solve_bcc, solve_ccr
from .errors import PanelEffError
from .linprog import LpProblem, LpSolution, solve_lp
from .panel_data import (
    CrossSection,
    PanelDataset,
    ValidationReport,
    VariableDef,
    load_panel,
    slice_period,
    transform_undesirable,
    validate_for_dea,
    write_panel_csv,
)
from .pls import (
    BootstrapSummary,
    DesignMatrix,
    LatentBlock,
    OlsFit,
    PathEstimates,
    PathModelSpec,
    bootstrap_significance,
    build_cobb_douglas_design,
    fit_path_model,
    ols,
    resample_counts,
    standardize,
)

__all__ = [
    "__version__",
    "AnovaResult",
    "BootstrapSummary",
    "ClusterSolution",
    "CrossSection",
    "DeaSpec",
    "DesignMatrix",
    "EfficiencyPanel",
    "EfficiencyResult",
    "KSweepReport",
    "LatentBlock",
    "LpProblem",
    "LpSolution",
    "OlsFit",
    "PanelDataset",
    "PanelEffError",
    "PathEstimates",
    "PathModelSpec",
    "ValidationReport",
    "VariableDef",
    "anova_f",
    "bootstrap_significance",
    "build_cobb_douglas_design",
    "fit_path_model",
    "kmeans",
    "load_panel",
    "ols",
    "resample_counts",
    "run_panel_dea",
    "slice_period",
    "solve_bcc",
    "solve_ccr",
    "solve_lp",
    "standardize",
    "sweep_k",
    "transform_undesirable",
    "validate_for_dea",
    "write_panel_csv",
]
