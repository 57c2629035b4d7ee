"""Three-stage pipeline: DEA scoring, cluster validation, path modeling.

The pipeline is driven by a single JSON configuration document (see README
for the schema), which the config module parses; this module imports every
stage module, so only a command that runs a stage loads it. Identical
configuration and dataset produce byte-identical JSON reports: every
stochastic stage requires an explicit seed, reports carry no timestamps,
and serialization is canonical (sorted keys, repr floats). A run's report
is the plain dict that report.json holds, and this module owns it: it
builds and writes the report, and decides whether a report on disk can be
reused. One walk of the report (report_layout) lays out its tables and
text lines in writing order; the CSV files and report.txt are both written
from that layout. Stages can also run one at a time, chaining through the
same report.json document they would have produced together.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import __version__
from .cluster import CLUSTER_F_CAVEAT, KSweepReport, sweep_k
from .config import CobbDouglasConfig, PipelineConfig, _unusable_pls_cells
from .dea import EfficiencyPanel, run_panel_dea
from .errors import PanelEffError, StageError, UsageError
# validate_for_dea is not called here; perfbench/tracing.py wraps it under
# this module's name
from .panel_data import PanelDataset, load_panel, validate_for_dea  # noqa: F401
from .pls import (
    DesignMatrix,
    bootstrap_significance,
    build_cobb_douglas_design,
    fit_path_model,
    ols,
    resample_counts,
)

REPORT_BASENAME = "report"

STAGE_DEA = "dea"
STAGE_CLUSTER = "cluster"
STAGE_PLS = "pls"


# ---------------------------------------------------------------------------
# report document
#
# A run's report is the dict that report.json holds: the sections
# provenance, dea, cluster, correspondence and pls, plus incomplete on a
# partial report. A configured stage that has not run holds {"pending":
# true}, a stage the configuration lacks {"skipped": true}. The staged
# commands chain through this same document on disk (read_report).

SECTIONS = ("provenance", "dea", "cluster", "correspondence", "pls")


def report_json(report: dict) -> str:
    """The report as the text of report.json: sorted keys, repr floats."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def build_provenance(config: PipelineConfig) -> dict:
    seeds = {"bootstrap": config.pls.bootstrap_seed} if config.pls else {}
    return {
        "tool": "paneleff",
        "version": __version__,
        "config_hash": config.config_hash,
        "dataset": os.path.basename(config.dataset_path),
        "seeds": seeds,
    }


def load_dataset(config: PipelineConfig) -> PanelDataset:
    """The configured dataset with its transforms applied."""
    return load_panel(config.dataset_path, config.schema, config.transforms)


# ---------------------------------------------------------------------------
# stages


def run_dea_stage(config: PipelineConfig, panel: PanelDataset) -> dict:
    section = {}
    for analysis in config.dea_analyses:
        panel_result = run_panel_dea(panel, analysis.spec)
        section[analysis.name] = _dea_table(panel_result)
    return section


def _dea_table(result: EfficiencyPanel) -> dict:
    return {
        "inputs": list(result.spec.input_vars),
        "outputs": list(result.spec.output_vars),
        "returns_to_scale": result.spec.returns_to_scale,
        "orientation": result.spec.orientation,
        "dmus": list(result.dmus),
        "periods": list(result.periods),
        "scores": [[float(x) for x in row] for row in result.scores],
        "means": [float(x) for x in result.means],
    }


def run_cluster_stage(config: PipelineConfig, dea_section: dict) -> tuple[dict, dict]:
    cfg = config.cluster
    analyses = {}
    # iterate in configuration order: dea_section may have been re-read from
    # a sorted JSON document
    for analysis in config.dea_analyses:
        name = analysis.name
        table = dea_section[name]
        report = sweep_k(
            np.array(table["means"]),
            cfg.k_max,
            cfg.k_min,
            significance=cfg.significance,
        )
        analyses[name] = _cluster_table(report, table["dmus"])
    section = {
        "k_max": cfg.k_max,
        "k_min": cfg.k_min,
        "significance": cfg.significance,
        "caveat": CLUSTER_F_CAVEAT,
        "analyses": analyses,
    }
    return section, _correspondence(analyses, dea_section)


def _cluster_table(report: KSweepReport, dmus: list) -> dict:
    sweep = []
    for k, solution, anova in report.entries:
        sweep.append({
            "k": k,
            "f_value": _finite_or_none(anova.f_value),
            "p_value": anova.p_value,
            "df_between": anova.df_between,
            "df_within": anova.df_within,
            "sse_within": solution.sse_within,
            "flags": list(anova.flags),
        })
    table = {
        "selected_k": report.selected_k,
        "selection_rule": report.selection_rule,
        "flags": list(report.flags),
        "sweep": sweep,
    }
    if report.selected is not None:
        _, solution, anova = report.selected
        table["assignments"] = [int(c) for c in solution.assignments]
        table["centroids"] = [float(c) for c in solution.centroids[:, 0]]
        table["sizes"] = list(solution.sizes)
        table["anova"] = {
            "df_between": anova.df_between,
            "df_within": anova.df_within,
            "f_value": _finite_or_none(anova.f_value),
            "p_value": anova.p_value,
            "flags": list(anova.flags),
        }
    return table


def _finite_or_none(x: float):
    return float(x) if math.isfinite(x) else None


def _correspondence(cluster_analyses: dict, dea_section: dict) -> dict:
    """DMU-by-analysis cluster membership, plus a pairwise contingency table
    and best-label-matching agreement count for every analysis pair."""
    names = [n for n in cluster_analyses if "assignments" in cluster_analyses[n]]
    if not names:
        return {"skipped": True, "reason": "no analysis selected a cluster count"}
    dmus = dea_section[names[0]]["dmus"]
    memberships = {n: cluster_analyses[n]["assignments"] for n in names}
    doc = {
        "dmus": list(dmus),
        "analyses": names,
        "clusters": [[memberships[n][i] for n in names] for i in range(len(dmus))],
    }
    pairs = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            pairs.append(_pair_agreement(a, memberships[a], b, memberships[b]))
    doc["pairs"] = pairs
    return doc


def _pair_agreement(name_a: str, assign_a, name_b: str, assign_b) -> dict:
    ka = max(assign_a) + 1
    kb = max(assign_b) + 1
    table = [[0] * kb for _ in range(ka)]
    for ca, cb in zip(assign_a, assign_b):
        table[ca][cb] += 1
    best = _max_assignment(table)
    n = len(assign_a)
    return {
        "analyses": [name_a, name_b],
        "contingency": table,
        "agreement": best,
        "agreement_rate": best / n,
    }


def _max_assignment(table) -> int:
    """Largest sum of table entries with at most one entry per row and per
    column, every row or every column matched (Kuhn-Munkres, O(k^3)).

    The shortest-augmenting-path form with row and column potentials, run
    on the cost -table with rows as the shorter side. Integer entries keep
    every step exact.
    """
    if len(table) > len(table[0]):
        table = [list(col) for col in zip(*table)]
    rows, cols = len(table), len(table[0])
    inf = float("inf")
    # 1-based; column 0 is the virtual start of each augmenting path
    u = [0] * (rows + 1)
    v = [0] * (cols + 1)
    match = [0] * (cols + 1)  # match[j]: row assigned to column j, 0 if none
    way = [0] * (cols + 1)
    for i in range(1, rows + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (cols + 1)
        used = [False] * (cols + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            for j in range(1, cols + 1):
                if not used[j]:
                    cur = -table[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(cols + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return sum(table[match[j] - 1][j - 1] for j in range(1, cols + 1) if match[j])


def run_pls_stage(config: PipelineConfig, panel: PanelDataset) -> dict:
    cfg = config.pls
    cells = _unusable_pls_cells(cfg, panel)
    if cells:
        raise UsageError(f"{cells[0].message} at {cells[0].location} "
                         f"({len(cells)} cell(s) the pls stage cannot use; see paneleff validate)")
    data = _pooled_observations(panel)
    # every model pools the same rows, so they share each replicate's first draw
    counts = resample_counts(len(panel.dmus) * len(panel.periods), cfg.bootstrap_samples, cfg.bootstrap_seed)
    models = {}
    for model in cfg.models:
        estimates = fit_path_model(data, model.spec)
        boot = bootstrap_significance(estimates, samples=cfg.bootstrap_samples, seed=cfg.bootstrap_seed,
                                      counts=counts)
        paths = []
        for (source, target), beta in estimates.path_coefficients.items():
            paths.append({
                "source": source,
                "target": target,
                "coefficient": beta,
                "std_error": boot.std_error[(source, target)],
                "t_statistic": _finite_or_none(boot.t_statistic[(source, target)]),
                "p_value": boot.p_value[(source, target)],
            })
        models[model.name] = {
            "inner_scheme": model.spec.inner_scheme,
            "converged": estimates.converged,
            "iterations": estimates.iterations,
            "paths": paths,
            "r_squared": {k: float(v) for k, v in estimates.r_squared.items()},
            "loadings": {k: float(v) for k, v in estimates.outer_loadings.items()},
        }
    section = {
        "observations": "pooled (dmu, period) rows",
        "bootstrap_samples": cfg.bootstrap_samples,
        "seed": cfg.bootstrap_seed,
        "models": models,
    }
    if cfg.cobb_douglas:
        section["cobb_douglas"] = [_cobb_douglas_table(panel, c) for c in cfg.cobb_douglas]
    return section


def _pooled_observations(panel: PanelDataset) -> dict:
    n = len(panel.dmus) * len(panel.periods)
    return {v.name: panel.values[:, :, i].reshape(n) for i, v in enumerate(panel.variables)}


def _cobb_douglas_table(panel: PanelDataset, cfg: CobbDouglasConfig) -> dict:
    design = build_cobb_douglas_design(panel, cfg.ict_var, cfg.health_vars)
    X = np.column_stack([np.ones(design.values.shape[0]), design.values])
    fit = ols(DesignMatrix(("const",) + design.columns, X), np.log(panel.column(cfg.target).reshape(-1)))
    return {
        "target": f"ln_{cfg.target}",
        "columns": list(fit.columns),
        "coefficients": [float(b) for b in fit.coefficients],
        "standard_errors": [float(s) for s in fit.standard_errors],
    }


# ---------------------------------------------------------------------------
# orchestration


def unrun_report(config: PipelineConfig) -> dict:
    """The report before any stage has run: every configured stage pending,
    every other one skipped."""

    def unrun(configured):
        return {"pending": True} if configured else {"skipped": True}

    return {
        "provenance": build_provenance(config),
        "dea": unrun(True),
        "cluster": unrun(config.cluster is not None),
        "correspondence": unrun(config.cluster is not None),
        "pls": unrun(config.pls is not None),
    }


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every configured stage. A stage failure raises StageError carrying
    the partial report (completed stages plus an incomplete marker)."""
    # a failed dea stage leaves an empty section, not a pending one
    report = {**unrun_report(config), "dea": {}}

    def failure(stage, exc) -> StageError:
        partial = {**report, "incomplete": {"stage": stage, "message": str(exc)}}
        return StageError(stage, str(exc), partial_report=partial)

    try:
        panel = load_dataset(config)
        report["dea"] = run_dea_stage(config, panel)
    except PanelEffError as exc:
        raise failure(STAGE_DEA, exc) from exc

    if config.cluster is not None:
        try:
            report["cluster"], report["correspondence"] = run_cluster_stage(config, report["dea"])
        except PanelEffError as exc:
            raise failure(STAGE_CLUSTER, exc) from exc

    if config.pls is not None:
        try:
            report["pls"] = run_pls_stage(config, panel)
        except PanelEffError as exc:
            raise failure(STAGE_PLS, exc) from exc
    return report


def chain_report(config: PipelineConfig, **fresh) -> dict:
    """The report of this run on disk (read_report), or without one the
    unrun report, with the freshly computed sections in place of its own."""
    return {**(read_report(config) or unrun_report(config)), **fresh}


def chain_cluster_stage(config: PipelineConfig) -> dict:
    """The report of this run on disk with the cluster stage run on its DEA
    results; a StageError when it holds none."""
    report = read_report(config)
    if report is None or "pending" in report["dea"]:
        raise StageError(STAGE_CLUSTER, "no DEA results of this configuration and seed on disk; "
                                        "run the dea stage first")
    report["cluster"], report["correspondence"] = run_cluster_stage(config, report["dea"])
    return report


def read_report(config: PipelineConfig) -> dict | None:
    """The five sections of the report.json of this configuration and seed
    in the output directory, tables in configuration order, or None. A
    report of another run, or a file that is not a well-formed report
    (truncated, not JSON, missing a section, a section of the wrong shape),
    counts as absent."""
    path = os.path.join(config.output_dir, f"{REPORT_BASENAME}.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        report = {section: document[section] for section in SECTIONS}
        if report["provenance"] != build_provenance(config) or not _well_formed(report, config):
            return None
    except (ValueError, KeyError, TypeError, AttributeError, IndexError):
        return None
    # report.json has sorted keys; tables and text follow configuration order
    dea_names = [a.name for a in config.dea_analyses]
    report["dea"] = _in_order(report["dea"], dea_names)
    if "analyses" in report["cluster"]:
        report["cluster"]["analyses"] = _in_order(report["cluster"]["analyses"], dea_names)
    if "models" in report["pls"]:
        report["pls"]["models"] = _in_order(report["pls"]["models"], [m.name for m in config.pls.models])
    return report


def _well_formed(report: dict, config: PipelineConfig) -> bool:
    """Whether each section of a report is a JSON object that the emitter
    renders, the sections of a stage the configuration lacks are skipped,
    and the DEA section, which the cluster stage reads, is pending or one
    table per configured analysis. A malformed section may also raise."""
    if not all(isinstance(report[s], dict) for s in SECTIONS):
        return False
    skipped = {"skipped": True}
    if config.cluster is None and (report["cluster"], report["correspondence"]) != (skipped, skipped):
        return False
    if config.pls is None and report["pls"] != skipped:
        return False
    render_text(report)
    return "pending" in report["dea"] or set(report["dea"]) == {a.name for a in config.dea_analyses}


def _in_order(section: dict, names) -> dict:
    """section with the entries named in names first, in that order."""
    rank = {name: i for i, name in enumerate(names)}
    return dict(sorted(section.items(), key=lambda item: rank.get(item[0], len(rank))))


# ---------------------------------------------------------------------------
# emission


class Table(NamedTuple):
    """One report table: the CSV file <name>.csv, or a view of one that the
    text report shows."""

    name: str
    headers: list
    rows: list


def significance_marker(p: float) -> str:
    """Table marker: * for p < 0.001, ** for p < 0.01."""
    if p < 0.001:
        return "*"
    if p < 0.01:
        return "**"
    return ""


def _fmt7(x) -> str:
    """Fixed 7-decimal rendering used by CSV and text tables."""
    if x is None:
        return ""
    return f"{x:.7f}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_report(report: dict, out_dir: str, formats=("json",)) -> list[str]:
    """Write the report to disk; one file per table for CSV, a single
    document for JSON, aligned tables for text. Returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    layout = report_layout(report) if {"csv", "text"} & set(formats) else []
    written = []
    for fmt in formats:
        if fmt == "json":
            files = [(f"{REPORT_BASENAME}.json", report_json(report))]
        elif fmt == "text":
            files = [(f"{REPORT_BASENAME}.txt", _layout_text(layout))]
        elif fmt == "csv":
            files = [(f"{table.name}.csv", _csv_text(table)) for table, _ in layout if table is not None]
        else:
            raise UsageError(f"unknown report format {fmt!r}")
        for name, text in files:
            path = os.path.join(out_dir, name)
            _atomic_write(path, text)
            written.append(path)
    return written


def _csv_text(table: Table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.headers)
    writer.writerows(table.rows)
    return buf.getvalue()


def report_layout(report: dict) -> list[tuple]:
    """The report in writing order, from one walk. Each item is a pair
    (table, shown): table is a Table written as <name>.csv, or None, and
    shown is what report.txt holds in its place: a line, a Table (the
    table or a view of it), or None for a table that only the CSV files
    hold."""
    layout = []

    def line(text=""):
        layout.append((None, text))

    prov = report["provenance"]
    line(f"paneleff {prov.get('version', '')} report")
    line(f"config {prov.get('config_hash', '')[:16]}  dataset {prov.get('dataset', '')}")
    incomplete = report.get("incomplete")
    if incomplete:
        line(f"INCOMPLETE: stage {incomplete['stage']} failed: {incomplete['message']}")
    line()

    # a stage command run before the dea stage leaves it pending
    dea = {} if "pending" in report["dea"] else report["dea"]
    for name, table in dea.items():
        line(f"== DEA efficiency: {name} ({table['returns_to_scale']}, {table['orientation']}-oriented) ==")
        scores = Table(
            f"dea_{name}_scores",
            ["dmu"] + list(table["periods"]) + ["mean"],
            [
                [dmu] + [_fmt7(x) for x in row] + [_fmt7(mean)]
                for dmu, row, mean in zip(table["dmus"], table["scores"], table["means"])
            ],
        )
        layout.append((scores, scores))
        line()

    cluster = report["cluster"]
    if "analyses" in cluster:
        line("== Cluster analysis ==")
        line(f"note: {cluster['caveat']}")
        for name, table in cluster["analyses"].items():
            line(f"-- {name}: selected k = {table['selected_k']} "
                 f"({table['selection_rule']}) {' '.join(table['flags'])}".rstrip())
            sweep = [
                [e["k"], _fmt7(e["f_value"]), _fmt7(e["p_value"]), e["df_between"], e["df_within"],
                 _fmt7(e["sse_within"]), ";".join(e["flags"])]
                for e in table["sweep"]
            ]
            # the text sweep leaves out sse_within and shows a null F as inf
            layout.append((
                Table(f"cluster_{name}_sweep",
                      ["k", "f_value", "p_value", "df_between", "df_within", "sse_within", "flags"], sweep),
                Table(f"cluster_{name}_sweep", ["k", "F", "p", "df_between", "df_within", "flags"],
                      [[k, f or "inf", p, df_b, df_w, flags] for k, f, p, df_b, df_w, _, flags in sweep]),
            ))
            if "assignments" in table:
                membership = [
                    [dmu, label, _fmt7(mean)]
                    for dmu, label, mean in zip(dea[name]["dmus"], table["assignments"], dea[name]["means"])
                ]
                layout.append((
                    Table(f"cluster_{name}_membership", ["dmu", "cluster", "mean_efficiency"], membership),
                    Table(f"cluster_{name}_membership", ["dmu", "cluster", "mean"], membership),
                ))
        line()
    elif cluster.get("skipped"):
        line("== Cluster analysis: skipped ==")
        line()

    doc = report["correspondence"]
    if "clusters" in doc:
        line("== Cluster correspondence ==")
        correspondence = Table(
            "correspondence",
            ["dmu"] + [f"cluster_{n}" for n in doc["analyses"]],
            [[dmu] + list(clusters) for dmu, clusters in zip(doc["dmus"], doc["clusters"])],
        )
        layout.append((correspondence, correspondence))
        for pair in doc["pairs"]:
            a, b = pair["analyses"]
            kb = len(pair["contingency"][0])
            contingency = Table(
                f"contingency_{a}_vs_{b}",
                [f"{a}\\{b}"] + [str(j) for j in range(kb)],
                [[i] + row for i, row in enumerate(pair["contingency"])],
            )
            layout.append((contingency, None))
            line(f"{a} vs {b}: agreement {pair['agreement']}/{len(doc['dmus'])} "
                 f"({100.0 * pair['agreement_rate']:.1f}%)")
        line()

    pls = report["pls"]
    if "models" in pls:
        line(f"== Path models (bootstrap B={pls['bootstrap_samples']}, seed={pls['seed']}) ==")
        # the grid has a row per model and exogenous latent, and a column
        # per target in first-seen order
        paths, grid, columns, fits = [], {}, [], []
        for model_name, model in pls["models"].items():
            for p in model["paths"]:
                coefficient, marker = _fmt7(p["coefficient"]), significance_marker(p["p_value"])
                paths.append([model_name, p["source"], p["target"], coefficient, _fmt7(p["std_error"]),
                              _fmt7(p["t_statistic"]), _fmt7(p["p_value"]), marker])
                grid.setdefault((model_name, p["source"]), {})[p["target"]] = coefficient + marker
                if p["target"] not in columns:
                    columns.append(p["target"])
            r2 = ", ".join(f"{k}={v:.4f}" for k, v in sorted(model["r_squared"].items()))
            fits.append(f"-- {model_name}: converged={model['converged']} "
                        f"iterations={model['iterations']} R2: {r2}")
        header = ["model", "source", "target", "coefficient", "std_error", "t_statistic", "p_value", "marker"]
        layout.append((Table("pls_paths", header, paths), None))
        pls_grid = Table(
            "pls_grid",
            ["model", "source"] + columns,
            [[model, source] + [cells.get(t, "") for t in columns] for (model, source), cells in grid.items()],
        )
        layout.append((pls_grid, pls_grid))
        line("note: * p < 0.001, ** p < 0.01")
        for fit in fits:
            line(fit)
        baselines = pls.get("cobb_douglas", [])
        targets = Counter(table["target"] for table in baselines)
        for table in baselines:
            # columns[1] is ln_<ict_var>; it names baselines that share a target
            ict = "" if targets[table["target"]] == 1 else table["columns"][1][len("ln_"):] + "_"
            line(f"-- log-log baseline for {ict}{table['target']}")
            baseline = Table(
                f"cobb_douglas_{ict}{table['target']}",
                ["column", "coefficient", "std_error"],
                [
                    [c, _fmt7(b), _fmt7(s)]
                    for c, b, s in zip(table["columns"], table["coefficients"], table["standard_errors"])
                ],
            )
            layout.append((baseline, baseline))
        line()
    elif pls.get("skipped"):
        line("== Path models: skipped ==")
        line()
    return layout


def render_text(report: dict) -> str:
    """Aligned, human-readable rendering of the full report."""
    return _layout_text(report_layout(report))


def _layout_text(layout: list[tuple]) -> str:
    """The text of report.txt: the lines and shown tables of a layout."""
    return "\n".join(shown if isinstance(shown, str) else _text_table(shown)
                     for _, shown in layout if shown is not None)


def _text_table(table: Table) -> str:
    cells = [[str(h) for h in table.headers]] + [[str(c) for c in row] for row in table.rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(table.headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
