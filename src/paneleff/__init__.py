"""Panel efficiency analysis toolkit.

Per-period DEA efficiency scoring over panel data, K-means clustering of
mean efficiencies validated with one-way ANOVA, and PLS path modeling with
bootstrap significance, joined by a deterministic report pipeline.

The names below are loaded from their modules on first use (PEP 562), so
`import paneleff` loads no stage module and a command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cluster": ("AnovaResult", "ClusterSolution", "KSweepReport", "anova_f", "kmeans", "sweep_k"),
    "config": ("DeaSpec", "LatentBlock", "PathModelSpec"),
    "dea": ("EfficiencyPanel", "EfficiencyResult", "run_panel_dea", "solve_bcc", "solve_ccr"),
    "errors": ("PanelEffError",),
    "linprog": ("LpProblem", "LpSolution", "solve_lp"),
    "panel_data": (
        "CrossSection",
        "PanelDataset",
        "ValidationReport",
        "VariableDef",
        "load_panel",
        "slice_period",
        "transform_undesirable",
        "validate_for_dea",
        "write_panel_csv",
    ),
    "pls": (
        "BootstrapSummary",
        "DesignMatrix",
        "OlsFit",
        "PathEstimates",
        "bootstrap_significance",
        "build_cobb_douglas_design",
        "fit_path_model",
        "ols",
        "resample_counts",
        "standardize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    # an AttributeError for any other name lets `from paneleff import pls`
    # fall back to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _lazy(module: str, name: str):
    """A function that imports paneleff.<module> when called and hands the
    call on to its <name>, looked up at call time."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __name__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call
