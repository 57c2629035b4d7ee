"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces public functions at the module attributes their
callers resolve at call time (for example ``paneleff.dea.solve_lp``, which
``_solve_dea`` looks up in its own module) with wrappers that record a span
and count what the call returned. The wrappers change no argument, result
or exception, so every check inside the program still runs. ``uninstall``
puts the original functions back.

A span is (id, name, start, end, parent id, run id). Spans stay in memory
and are written out by ``dump`` when the run ends.

Which end-to-end metric each layer should move, and on which workload:

- cli.startup_s, panel_data.*: setup_s everywhere; load and validation are
  largest on pls_heavy (about 10k CSV rows).
- dea.*, linprog.*: wall_s on dea_wide (pivot-bound VRS-output LPs) and demo
  (setup-bound 1x1 LPs), query_s on dea_wide; not setup_s.
- cluster.*, pipeline.correspondence_s: wall_s on dea_wide (k=9 label
  matching); demo is the near-zero control, pls_heavy has no cluster stage.
- pls.*: wall_s on pls_heavy and demo, peak_rss_mb on pls_heavy; dea_wide
  has no PLS stage.
- pipeline.*_stage_s, emit_s, unattributed_s: wall_s on every workload.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the module is the one whose code calls it
TARGETS = (
    ("paneleff.cli", "run_pipeline", "pipeline.run"),
    ("paneleff.cli", "emit_report", "pipeline.emit"),
    ("paneleff.pipeline", "load_dataset", "pipeline.load"),
    ("paneleff.pipeline", "run_dea_stage", "pipeline.dea_stage"),
    ("paneleff.pipeline", "run_cluster_stage", "pipeline.cluster_stage"),
    ("paneleff.pipeline", "run_pls_stage", "pipeline.pls_stage"),
    ("paneleff.pipeline", "load_panel", "panel_data.load"),
    ("paneleff.pipeline", "validate_for_dea", "panel_data.validate"),
    ("paneleff.dea", "validate_for_dea", "panel_data.validate"),
    ("paneleff.pipeline", "run_panel_dea", "dea.run_panel_dea"),
    ("paneleff.dea", "solve_ccr", "dea.solve"),
    ("paneleff.dea", "solve_bcc", "dea.solve"),
    ("paneleff.dea", "solve_lp", "linprog.solve_lp"),
    ("paneleff.pipeline", "sweep_k", "cluster.sweep_k"),
    ("paneleff.cluster", "kmeans", "cluster.kmeans"),
    ("paneleff.cluster", "anova_f", "cluster.anova_f"),
    ("paneleff.pipeline", "fit_path_model", "pls.fit_path_model"),
    ("paneleff.pipeline", "bootstrap_significance", "pls.bootstrap"),
    ("paneleff.pls", "standardize", "pls.standardize"),
    ("paneleff.pipeline", "ols", "pls.ols"),
)

# spans whose durations make up the pipeline root; the rest is unattributed
STAGES = ("pipeline.load", "pipeline.dea_stage", "pipeline.cluster_stage",
          "pipeline.pls_stage", "pipeline.emit")


def _count_result(counts: Counter, name: str, result) -> None:
    """Counters read off a call's result."""
    if name == "linprog.solve_lp":
        counts["linprog.pivots"] += result.iterations
        counts["linprog.not_optimal"] += result.status != "optimal"
    elif name == "panel_data.load":
        counts["panel_data.rows"] += result.values.size
    elif name == "pipeline.emit":
        counts["pipeline.report_bytes"] += sum(os.path.getsize(p) for p in result)
    elif name == "pls.fit_path_model":
        counts["pls.als_iterations"] += result.iterations
    elif name == "pls.bootstrap":
        counts["pls.replicates"] += result.samples


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid)
                self.counts[f"{name}.errors"] += 1
                raise
            self.close(sid)
            _count_result(self.counts, name, result)
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def run(self, root: str, fn):
        """Call fn under a root span, with the wrappers installed."""
        self.run_id += 1
        before = Counter(self.counts)
        first = len(self.spans)
        self.install()
        try:
            sid = self.open(root)
            try:
                result = fn()
            finally:
                self.close(sid)
        finally:
            self.uninstall()
        return result, self.spans[first:], self.counts - before

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "run")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "missing": self.missing}, fh)
            fh.write("\n")


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer metrics of one traced run (the spans of one run id)."""
    by_id = {s[0]: s for s in spans}
    duration = defaultdict(float)
    calls = Counter()
    for s in spans:
        duration[s[1]] += s[3] - s[2]
        calls[s[1]] += 1

    def under(name: str, ancestor: str) -> tuple[int, float]:
        """Calls and time of spans `name` that run inside a span `ancestor`."""
        n, t = 0, 0.0
        for s in spans:
            if s[1] != name:
                continue
            parent = s[4]
            while parent is not None and by_id[parent][1] != ancestor:
                parent = by_id[parent][4]
            if parent is not None:
                n, t = n + 1, t + s[3] - s[2]
        return n, t

    def ratio(a, b):
        return a / b if b else 0.0

    root = next(s for s in spans if s[4] is None)
    solves = calls["linprog.solve_lp"]
    pivots = counts["linprog.pivots"]
    lp_busy = duration["linprog.solve_lp"]
    lps_in_dea, lp_in_dea = under("linprog.solve_lp", "dea.run_panel_dea")
    _, validate_in_dea = under("panel_data.validate", "dea.run_panel_dea")
    scores = calls["dea.solve"]
    dea_busy = duration["dea.run_panel_dea"]
    _, sweep_in_stage = under("cluster.sweep_k", "pipeline.cluster_stage")
    replicates = counts["pls.replicates"]
    fits = calls["pls.fit_path_model"]
    return {
        "panel_data.rows": counts["panel_data.rows"],
        "panel_data.load_s": duration["panel_data.load"],
        "panel_data.validate_calls": calls["panel_data.validate"],
        "panel_data.validate_s": duration["panel_data.validate"],
        "dea.scores": scores,
        "dea.busy_s": dea_busy,
        "dea.self_s": dea_busy - lp_in_dea - validate_in_dea,
        "dea.ms_per_score": 1e3 * ratio(dea_busy, scores),
        "dea.lps_per_score": ratio(lps_in_dea, scores),
        "linprog.solves": solves,
        "linprog.busy_s": lp_busy,
        "linprog.us_per_solve": 1e6 * ratio(lp_busy, solves),
        "linprog.pivots": pivots,
        "linprog.pivots_per_solve": ratio(pivots, solves),
        "linprog.us_per_pivot": 1e6 * ratio(lp_busy, pivots),
        "linprog.failed": ratio(counts["linprog.not_optimal"] + counts["linprog.solve_lp.errors"],
                                 solves),
        "cluster.sweep_s": duration["cluster.sweep_k"],
        "cluster.kmeans_calls": calls["cluster.kmeans"],
        "cluster.kmeans_s": duration["cluster.kmeans"],
        "cluster.anova_s": duration["cluster.anova_f"],
        "pipeline.dea_stage_s": duration["pipeline.dea_stage"],
        "pipeline.cluster_stage_s": duration["pipeline.cluster_stage"],
        "pipeline.correspondence_s": duration["pipeline.cluster_stage"] - sweep_in_stage,
        "pipeline.pls_stage_s": duration["pipeline.pls_stage"],
        "pipeline.emit_s": duration["pipeline.emit"],
        "pipeline.report_bytes": counts["pipeline.report_bytes"],
        "pipeline.unattributed_s": (root[3] - root[2]) - sum(duration[n] for n in STAGES),
        "pls.fit_calls": fits,
        "pls.fit_s": duration["pls.fit_path_model"],
        "pls.bootstrap_s": duration["pls.bootstrap"],
        "pls.ms_per_replicate": 1e3 * ratio(duration["pls.bootstrap"], replicates),
        "pls.standardize_calls": calls["pls.standardize"],
        # one standardize per full-sample fit, per bootstrap's own full
        # fit, and per replicate; the rest are redrawn replicates
        "pls.redraws": calls["pls.standardize"] - fits - calls["pls.bootstrap"] - replicates,
        "pls.als_iterations": ratio(counts["pls.als_iterations"], fits),
        "pls.ols_s": duration["pls.ols"],
    }
