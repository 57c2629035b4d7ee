"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import json
import time

import numpy as np
import pytest

from oracles import (
    best_partition_sse,
    dea_ratio_oracle,
    f_cdf_by_quadrature,
    lp_enumeration_oracle,
    ols_by_lstsq,
    random_lp,
)
from paneleff.cli import cli_main
from paneleff.cluster import anova_f, kmeans
from paneleff.dea import solve_bcc, solve_ccr
from paneleff.distributions import f_cdf
from paneleff.linprog import LpProblem, solve_lp
from paneleff.panel_data import CrossSection, write_panel_csv
from paneleff.pls import LatentBlock, PathModelSpec, bootstrap_significance, fit_path_model, standardize
from paneleff.synthetic import make_demo_config, make_demo_panel


def report(criterion: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {verdict}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


def cross_section(inputs, outputs):
    X = np.asarray(inputs, float)
    Y = np.asarray(outputs, float)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    return CrossSection("t", tuple(f"d{i}" for i in range(X.shape[0])), X, Y)


def test_criterion_1_lp_oracle_equivalence():
    rng = np.random.default_rng(20250801)
    start = time.perf_counter()
    failures = []
    for trial in range(200):
        c, A, b = random_lp(rng, max_vars=5, max_cons=5, span=5.0)
        status, value = lp_enumeration_oracle(c, A, b)
        solution = solve_lp(LpProblem(c, "max", [(A[i], "<=", b[i]) for i in range(len(b))]))
        if solution.status != status:
            failures.append(f"trial {trial}: {solution.status} vs oracle {status}")
        elif status == "optimal" and abs(solution.objective_value - value) > 1e-8:
            failures.append(f"trial {trial}: objective {solution.objective_value} vs {value}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    report("1 (LP oracle equivalence, 200 random programs)", ok,
           f"{len(failures)} mismatches, {elapsed:.2f}s" + ("; " + failures[0] if failures else ""))


def test_criterion_2_dea_ratio_oracle():
    rng = np.random.default_rng(20250802)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        x = rng.uniform(0.5, 20.0, n)
        y = rng.uniform(0.5, 20.0, n)
        cs = cross_section(x, y)
        expected = dea_ratio_oracle(x, y)
        for i, dmu in enumerate(cs.dmus):
            worst = max(worst, abs(solve_ccr(cs, dmu).score - expected[i]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 2.0
    report("2 (DEA single-ratio oracle, 100 cross-sections)", ok,
           f"worst |theta - oracle| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_dea_duality_and_model_ordering():
    rng = np.random.default_rng(20250803)
    start = time.perf_counter()
    worst_gap = 0.0
    worst_order = 0.0
    for _ in range(100):
        X = rng.uniform(1.0, 10.0, (10, 3))
        Y = rng.uniform(1.0, 10.0, (10, 2))
        cs = cross_section(X, Y)
        for i, dmu in enumerate(cs.dmus):
            ccr = solve_ccr(cs, dmu)
            bcc = solve_bcc(cs, dmu)
            # input orientation: the multiplier score is u . y_o (v . x_o = 1)
            gap_ccr = abs(ccr.multiplier_u @ Y[i] - ccr.score)
            gap_bcc = abs(bcc.multiplier_u @ Y[i] + bcc.scale_offset - bcc.score)
            worst_gap = max(worst_gap, gap_ccr, gap_bcc)
            worst_order = max(worst_order, ccr.score - bcc.score)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-6 and worst_order <= 1e-9 and elapsed < 10.0
    report("3 (DEA duality and BCC >= CCR, 100 instances)", ok,
           f"worst duality gap {worst_gap:.2e}, worst ordering violation {worst_order:.2e}, {elapsed:.2f}s")


def test_criterion_4_units_invariance():
    rng = np.random.default_rng(20250804)
    worst = 0.0
    for trial in range(30):
        X = rng.uniform(1.0, 10.0, (5, 2))
        Y = rng.uniform(1.0, 10.0, (5, 2))
        cs = cross_section(X, Y)
        base = [(solve_ccr(cs, d).score, solve_bcc(cs, d).score) for d in cs.dmus]
        column = trial % 4  # rotate across the four data columns
        for factor in (1e-3, 1.0, 1e3):
            X2, Y2 = X.copy(), Y.copy()
            if column < 2:
                X2[:, column] *= factor
            else:
                Y2[:, column - 2] *= factor
            cs2 = cross_section(X2, Y2)
            for i, dmu in enumerate(cs.dmus):
                worst = max(worst, abs(solve_ccr(cs2, dmu).score - base[i][0]))
                worst = max(worst, abs(solve_bcc(cs2, dmu).score - base[i][1]))
    ok = worst <= 1e-6
    report("4 (units invariance under column rescaling)", ok, f"worst |delta theta| = {worst:.2e}")


def test_criterion_5_kmeans_brute_force_equivalence():
    rng = np.random.default_rng(20250805)
    worst = 0.0
    for trial in range(50):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k + 2, 9))
        spread = 1.0
        separation = 3.0 * spread * k  # separation ratio >= 3
        centers = np.arange(k) * separation
        pts = np.array([centers[i % k] + rng.uniform(0, spread) for i in range(n)])
        solution = kmeans(pts, k)
        optimum = best_partition_sse(pts, k)
        worst = max(worst, abs(solution.sse_within - optimum))
    ok = worst <= 1e-10
    report("5 (k-means equals exhaustive partition optimum, 50 instances)", ok,
           f"worst |sse - optimum| = {worst:.2e}")


def test_criterion_6_anova_degrees_of_freedom_and_f_cdf():
    rng = np.random.default_rng(20250806)
    df_ok = True
    for n in range(4, 31):
        for k in range(2, 6):
            if k >= n:
                continue
            pts = rng.normal(size=n)
            solution = kmeans(pts, k)
            result = anova_f(pts, solution)
            if result.df_between != k - 1 or result.df_within != n - k:
                df_ok = False
    grid = [
        (0.3, 1, 5), (2.0, 1, 8), (10.0, 1, 3),
        (0.8, 2, 10), (1.7, 2, 24), (3.4, 2, 24), (6.0, 2, 24),
        (1.1, 3, 7), (2.2, 3, 10), (4.4, 3, 30),
        (0.5, 4, 4), (2.9, 4, 12), (5.0, 4, 7),
        (0.9, 5, 30), (3.3, 5, 15), (8.0, 5, 5),
        (1.5, 6, 20), (2.6, 7, 14), (4.1, 8, 9), (0.2, 10, 10),
    ]
    worst = max(abs(f_cdf(f, d1, d2) - f_cdf_by_quadrature(f, d1, d2)) for f, d1, d2 in grid)
    ok = df_ok and worst <= 5e-3
    report("6 (ANOVA df exhaustive + F CDF vs quadrature)", ok,
           f"df rule {'held' if df_ok else 'violated'}, worst CDF error {worst:.2e} on {len(grid)} points")


def test_criterion_7_pls_matches_standardized_ols():
    rng = np.random.default_rng(20250807)
    worst = 0.0
    for trial in range(100):
        scheme = "centroid" if trial % 2 else "path_weighting"
        n_latents = int(rng.integers(2, 5))
        names = [f"L{i}" for i in range(n_latents)]
        paths = []
        for j in range(1, n_latents):
            preds = [i for i in range(j) if rng.random() < 0.6] or [int(rng.integers(0, j))]
            paths.extend((names[i], names[j]) for i in preds)
        spec = PathModelSpec(
            tuple(LatentBlock(m, (m.lower(),)) for m in names), tuple(paths), inner_scheme=scheme
        )
        base = rng.normal(size=(50, n_latents))
        data = {}
        for i, name in enumerate(names):
            v = base[:, i] + (0.6 * base[:, :i].sum(axis=1) if i else 0.0)
            data[name.lower()] = v * rng.uniform(0.5, 3.0) + rng.uniform(-2.0, 2.0)
        estimates = fit_path_model(data, spec)
        z = {m: standardize(data[m.lower()]) for m in names}
        for endo in estimates.r_squared:
            preds = spec.predecessors(endo)
            beta = ols_by_lstsq(np.column_stack([z[p] for p in preds]), z[endo])
            for p, b in zip(preds, beta):
                worst = max(worst, abs(estimates.path_coefficients[(p, endo)] - b))
    ok = worst <= 1e-6
    report("7 (PLS equals standardized OLS on single-indicator models)", ok,
           f"worst |beta difference| = {worst:.2e} over 100 models, both inner schemes")


def test_criterion_8_bootstrap_calibration():
    spec = PathModelSpec(
        blocks=(LatentBlock("X", ("x",)), LatentBlock("Y", ("y",))),
        paths=(("X", "Y"),),
    )
    rng = np.random.default_rng(20250808)
    start = time.perf_counter()
    rejections = 0
    for trial in range(100):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        boot = bootstrap_significance(fit_path_model({"x": x, "y": y}, spec), samples=500, seed=trial)
        if boot.p_value[("X", "Y")] < 0.05:
            rejections += 1
    rate = rejections / 100.0

    tight_ok = True
    for trial in range(5):
        x = rng.normal(size=30)
        y = x + rng.normal(0.0, 1e-6, size=30)
        boot = bootstrap_significance(fit_path_model({"x": x, "y": y}, spec), samples=500, seed=1000 + trial)
        tight_ok = tight_ok and boot.p_value[("X", "Y")] < 0.001
    elapsed = time.perf_counter() - start
    ok = 0.01 <= rate <= 0.12 and tight_ok and elapsed < 60.0
    report("8 (bootstrap size calibration and power)", ok,
           f"null rejection rate {rate:.2f}, near-perfect relation significant: {tight_ok}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def demo_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_demo")
    panel = make_demo_panel()
    write_panel_csv(panel, root / "dataset.csv")
    document = make_demo_config("dataset.csv", "reports")
    (root / "config.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return root


def test_criterion_9_structural_reproduction(demo_workspace):
    start = time.perf_counter()
    out = demo_workspace / "run"
    code = cli_main(["pipeline", "--config", str(demo_workspace / "config.json"),
                     "--out", str(out), "--quiet"])
    elapsed = time.perf_counter() - start
    checks = {}
    checks["exit 0"] = code == 0
    document = json.loads((out / "report.json").read_text())
    for name in ("ict", "health"):
        table = document["dea"][name]
        checks[f"{name} 27x10 scores"] = (
            len(table["scores"]) == 27 and all(len(r) == 10 for r in table["scores"])
        )
        checks[f"{name} 27 means"] = len(table["means"]) == 27
        cluster = document["cluster"]["analyses"][name]
        checks[f"{name} selected k=3"] = cluster["selected_k"] == 3
        checks[f"{name} df_between=2"] = cluster["anova"]["df_between"] == 2
    rendered = (out / "dea_ict_scores.csv").read_text()
    checks["mean 1.0000000 rendered"] = ",1.0000000" in rendered
    pair = document["correspondence"]["pairs"][0]
    checks["agreement >= 80%"] = pair["agreement_rate"] >= 0.8
    checks["runtime < 10s"] = elapsed < 10.0
    failed = [name for name, passed in checks.items() if not passed]
    report("9 (structural reproduction on the bundled synthetic panel)", not failed,
           f"{elapsed:.1f}s" + (f"; failed: {failed}" if failed else ""))


def test_criterion_10_pipeline_determinism(demo_workspace):
    config = str(demo_workspace / "config.json")
    out1 = demo_workspace / "det1"
    out2 = demo_workspace / "det2"
    code1 = cli_main(["pipeline", "--config", config, "--out", str(out1), "--quiet"])
    code2 = cli_main(["pipeline", "--config", config, "--out", str(out2), "--quiet"])
    identical = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report("10 (byte-identical reports across runs)", ok,
           "byte-identical" if identical else "reports differ")
