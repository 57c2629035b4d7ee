"""Output checks: an independent DEA oracle and report invariants.

The oracle solves each envelopment program with HiGHS through
``scipy.optimize.linprog``. It runs once per workload at set-up, outside
every timed region.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linprog

from paneleff.panel_data import slice_period

SCORE_TOL = 1e-6
EFFICIENT_TOL = 1e-6
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def envelopment_score(X: np.ndarray, Y: np.ndarray, o: int, rts: str, orientation: str) -> float:
    """Radial envelopment score of DMU o: theta (input) or phi (output)."""
    n, m = X.shape
    s = Y.shape[1]
    c = np.zeros(n + 1)
    A = np.zeros((m + s, n + 1))
    b = np.zeros(m + s)
    A[:m, 1:] = X.T
    A[m:, 1:] = -Y.T
    if orientation == "input":
        # min theta  s.t.  X'lam <= theta x_o,  Y'lam >= y_o
        c[0] = 1.0
        A[:m, 0] = -X[o]
        b[m:] = -Y[o]
    else:
        # max phi  s.t.  X'lam <= x_o,  Y'lam >= phi y_o
        c[0] = -1.0
        b[:m] = X[o]
        A[m:, 0] = Y[o]
    A_eq = b_eq = None
    if rts == "VRS":
        A_eq = np.concatenate(([0.0], np.ones(n)))[None, :]
        b_eq = [1.0]
    bounds = [(None, None)] + [(0.0, None)] * n
    res = linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options=_HIGHS)
    if res.status != 0:
        raise RuntimeError(f"oracle LP for DMU {o} did not solve: {res.message}")
    return float(res.x[0])


def oracle_scores(built) -> dict:
    """Oracle score matrix (dmu x period) for every configured analysis."""
    from paneleff.dea import DeaSpec

    panel = built.panel
    out = {}
    for entry in built.document["dea"]:
        spec = DeaSpec(tuple(entry["inputs"]), tuple(entry["outputs"]),
                       entry["returns_to_scale"], entry["orientation"])
        scores = np.empty((len(panel.dmus), len(panel.periods)))
        for p, period in enumerate(panel.periods):
            cs = slice_period(panel, period, spec)
            # Radial scores do not change when a column is rescaled; scaling
            # every column to mean 1 keeps HiGHS from declaring some of these
            # always-feasible programs infeasible at the tight tolerances.
            X = cs.inputs / cs.inputs.mean(axis=0)
            Y = cs.outputs / cs.outputs.mean(axis=0)
            for d in range(len(panel.dmus)):
                scores[d, p] = envelopment_score(X, Y, d, spec.returns_to_scale, spec.orientation)
        out[entry["name"]] = scores
    return out


def _tolerance(oracle):
    return SCORE_TOL * np.maximum(1.0, np.abs(oracle))


def check_report(text: str, built, oracle: dict) -> dict:
    """Check one report.json against the oracle and the configuration;
    returns the parsed document."""
    doc = json.loads(text)
    panel = built.panel
    for name, expected in oracle.items():
        table = doc["dea"].get(name)
        if table is None:
            raise CheckFailed(f"report has no DEA analysis {name!r}")
        if tuple(table["dmus"]) != panel.dmus or tuple(table["periods"]) != panel.periods:
            raise CheckFailed(f"DEA analysis {name!r}: DMU or period order differs from the dataset")
        scores = np.array(table["scores"], dtype=float)
        if scores.shape != expected.shape:
            raise CheckFailed(f"DEA analysis {name!r}: score table shape {scores.shape}")
        bad = np.argwhere(np.abs(scores - expected) > _tolerance(expected))
        if bad.size:
            d, p = bad[0]
            raise CheckFailed(f"DEA {name!r} {panel.dmus[d]} {panel.periods[p]}: "
                              f"score {scores[d, p]!r}, oracle {expected[d, p]!r}")
        if not np.allclose(table["means"], scores.mean(axis=1), rtol=0.0, atol=1e-12):
            raise CheckFailed(f"DEA analysis {name!r}: means are not the period averages")

    pls_cfg = built.document.get("pls")
    if pls_cfg:
        models = doc["pls"].get("models", {})
        for model in pls_cfg["models"]:
            rows = models.get(model["name"], {}).get("paths")
            if rows is None:
                raise CheckFailed(f"report has no PLS model {model['name']!r}")
            got = sorted((r["source"], r["target"]) for r in rows)
            if got != sorted(tuple(p) for p in model["paths"]):
                raise CheckFailed(f"PLS model {model['name']!r}: path rows {got} "
                                  "do not match the configured paths one to one")
            for r in rows:
                p = r["p_value"]
                if not (isinstance(p, float) and math.isfinite(p) and 0.0 <= p <= 1.0):
                    raise CheckFailed(f"PLS model {model['name']!r}: p-value {p!r} outside [0, 1]")

    if built.name == "demo":
        # planted tiers: the dominant DMU scores 1 in every period, three tiers
        for name, table in doc["dea"].items():
            if table["means"][0] != 1.0:
                raise CheckFailed(f"demo {name!r}: C01 mean is {table['means'][0]!r}, expected 1.0")
            k = doc["cluster"]["analyses"][name]["selected_k"]
            if k != 3:
                raise CheckFailed(f"demo {name!r}: selected k = {k}, expected the planted 3")
    return doc


def check_period_output(stdout: str, built, oracle: dict, period: str) -> None:
    """Check the table printed by ``paneleff dea --period``."""
    p = built.panel.periods.index(period)
    current = None
    seen: dict = {}
    for line in stdout.splitlines():
        if line.startswith("analysis "):
            current = line[len("analysis "):].split(",")[0]
            seen[current] = 0
            continue
        fields = line.split()
        if len(fields) != 2 or current not in oracle:
            raise CheckFailed(f"unexpected line in dea --period output: {line!r}")
        d = built.panel.dmus.index(fields[0])
        expected = oracle[current][d, p]
        # scores are printed with 7 decimals
        if abs(float(fields[1]) - expected) > _tolerance(expected) + 5e-8:
            raise CheckFailed(f"dea --period {period} {current!r} {fields[0]}: "
                              f"{fields[1]}, oracle {expected!r}")
        seen[current] += 1
    n = len(built.panel.dmus)
    if set(seen) != set(oracle) or any(v != n for v in seen.values()):
        raise CheckFailed(f"dea --period printed {seen}, expected {n} rows per analysis")


def check_validate_output(stdout: str, built) -> None:
    names = {e["name"] for e in built.document["dea"]}
    found = {line.split(":")[0][len("analysis "):] for line in stdout.splitlines()
             if line.startswith("analysis ")}
    if found != names:
        raise CheckFailed(f"validate reported analyses {sorted(found)}, expected {sorted(names)}")


def efficient_share(scores: np.ndarray) -> float:
    return float(np.mean(np.abs(scores - 1.0) <= EFFICIENT_TOL))
