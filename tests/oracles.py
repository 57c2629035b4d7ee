"""Independent brute-force oracles used by the test suite.

Each oracle deliberately avoids the code path it checks: the LP oracle
enumerates basic points and extreme rays, the clustering oracles enumerate
set partitions or cut sets of the sorted values, the F-distribution oracle
integrates the density with composite Simpson quadrature. scalar_fit and
scalar_solve_lp are the one-at-a-time forms of the program's stacked PLS
and simplex kernels, scalar_rows the word-at-a-time form of its bulk
bootstrap draw, and the panel cell oracles the numpy-mask forms of
the program's loops over a panel's cell buffer, kept as the references
those must equal bit for bit.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np

from paneleff import pls
from paneleff.errors import CollinearityError, DegenerateColumnError, DomainError, LpSolverError
from paneleff.linprog import (
    _BLAND_TRIGGER,
    _DEGENERATE_STEP,
    _MAX_ITER,
    DUALITY_TOL,
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    LpSolution,
)
from paneleff.panel_data import MAX_MINUS_HEADROOM, Finding


def lp_enumeration_oracle(c, A, b, tol=1e-8):
    """Maximize c.x subject to A x <= b, x >= 0 by brute force.

    Enumerates all candidate basic points (n active constraints among the
    m inequality rows and n sign constraints) and all candidate extreme
    rays (n-1 active constraints). Returns (status, objective or None).
    """
    c = np.asarray(c, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    m, n = A.shape
    G = np.vstack([A, -np.eye(n)])
    h = np.concatenate([b, np.zeros(n)])
    scale = max(1.0, float(np.abs(h).max()), float(np.abs(G).max()))

    best = None
    for rows in combinations(range(m + n), n):
        M = G[list(rows)]
        rhs = h[list(rows)]
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.abs(M @ x - rhs).max() > 1e-7 * scale:
            continue  # nearly singular system
        if np.all(G @ x <= h + tol * scale):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    if best is None:
        return "infeasible", None

    # Feasible: unbounded iff some extreme ray of {A d <= 0, d >= 0}
    # improves the objective.
    if n == 1:
        directions = [np.array([1.0])]
    else:
        directions = []
        for rows in combinations(range(m + n), n - 1):
            M = G[list(rows)]
            _, s, vt = np.linalg.svd(M)
            if s.size and s.min() < 1e-9 * max(1.0, s.max()):
                continue  # degenerate subset: null space dimension >= 2
            d = vt[-1]
            for cand in (d, -d):
                directions.append(cand)
    for d in directions:
        norm = np.abs(d).max()
        if norm <= 0:
            continue
        d = d / norm
        if np.all(G @ d <= 1e-9) and c @ d > 1e-9:
            return "unbounded", None
    return "optimal", best


def random_lp(rng, max_vars=5, max_cons=5, span=5.0):
    """A random inequality-form LP with coefficients in [-span, span]."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_cons + 1))
    c = rng.uniform(-span, span, size=n)
    A = rng.uniform(-span, span, size=(m, n))
    b = rng.uniform(-span, span, size=m)
    return c, A, b


def dea_ratio_oracle(x, y):
    """Single-input single-output CRS efficiency: (y/x) / max(y/x)."""
    ratios = np.asarray(y, float) / np.asarray(x, float)
    return ratios / ratios.max()


def numpy_cell_findings(panel, names, positive=False):
    """panel_data.cell_findings by numpy masks: np.argwhere over each named
    (dmu, period) column."""
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


def numpy_transform_values(panel, variable, method):
    """The cells panel_data.transform_undesirable gives, by numpy masks
    over the variable's (dmu, period) column, as a (dmu, period, variable)
    array; or the DomainError it raises."""
    v = panel.variable_index(variable)
    col = panel.values[:, :, v]
    finite = np.isfinite(col)
    if np.any(col[finite] <= 0.0):
        bad = np.argwhere(finite & (col <= 0.0))[0]
        raise DomainError(
            f"variable {variable!r} has non-positive value at dmu={panel.dmus[bad[0]]} "
            f"period={panel.periods[bad[1]]}; transforms require strictly positive data"
        )
    new_col = col.copy()
    with np.errstate(over="ignore"):  # an overflow to inf is the result, not a fault
        if method == "reciprocal":
            new_col[finite] = 1.0 / col[finite]
        else:
            for p in range(len(panel.periods)):
                mask = finite[:, p]
                if np.any(mask):
                    new_col[mask, p] = MAX_MINUS_HEADROOM * col[mask, p].max() - col[mask, p]
    values = panel.values.copy()
    values[:, :, v] = new_col
    return values


def best_partition_sse(points, k):
    """Minimum within-cluster sum of squares over all partitions into
    exactly k non-empty groups, by exhaustive enumeration."""
    pts = np.asarray(points, float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    best = math.inf
    for labels in _partitions(n, k):
        sse = 0.0
        for g in range(k):
            members = pts[[i for i in range(n) if labels[i] == g]]
            if members.size:
                sse += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, sse)
    return best


def best_contiguous_sse(points, k):
    """Minimum within-cluster sum of squares of 1-D points over all splits
    of the sorted values into k non-empty contiguous runs, trying every set
    of k - 1 cut positions. In one dimension an optimal k-means partition
    is such a split, so this is the k-means optimum for n far beyond what
    best_partition_sse can enumerate."""
    xs = sorted(float(x) for x in np.ravel(points))
    n = len(xs)
    best = math.inf
    for cuts in combinations(range(1, n), k - 1):
        sse = 0.0
        for lo, hi in zip((0,) + cuts, cuts + (n,)):
            run = xs[lo:hi]
            mean = math.fsum(run) / len(run)
            sse += math.fsum((x - mean) ** 2 for x in run)
        best = min(best, sse)
    return best


def _partitions(n, k):
    """Assignment vectors for partitions of n items into exactly k non-empty
    groups, in canonical form (group g appears before group g+1)."""

    def rec(i, labels, used):
        if i == n:
            if used == k:
                yield tuple(labels)
            return
        for g in range(min(used + 1, k)):
            labels.append(g)
            yield from rec(i + 1, labels, max(used, g + 1))
            labels.pop()

    yield from rec(0, [], 0)


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def f_cdf_by_quadrature(f, d1, d2, intervals=4096):
    """P(F <= f) by composite Simpson integration of the F density.

    The substitution x = u**2 removes the integrable endpoint singularity
    that the density has for d1 = 1, so the integrand
    g(u) = 2 C u**(d1-1) (1 + d1 u**2 / d2)**(-(d1+d2)/2) is smooth.
    """
    if f <= 0:
        return 0.0
    ln_c = 0.5 * d1 * math.log(d1 / d2) - _log_beta(0.5 * d1, 0.5 * d2)
    upper = math.sqrt(f)

    def g(u):
        if u == 0.0:
            return 2.0 * math.exp(ln_c) if d1 == 1 else 0.0
        return 2.0 * math.exp(
            ln_c + (d1 - 1) * math.log(u) - 0.5 * (d1 + d2) * math.log1p(d1 * u * u / d2)
        )

    h = upper / intervals
    total = g(0.0) + g(upper)
    for i in range(1, intervals):
        total += g(i * h) * (4.0 if i % 2 else 2.0)
    return total * h / 3.0


def t_cdf_by_quadrature(t, df, intervals=4096):
    """P(T <= t) by composite Simpson integration of the Student-t density."""
    ln_c = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)

    def g(u):
        return math.exp(ln_c - 0.5 * (df + 1) * math.log1p(u * u / df))

    upper = abs(t)
    if upper == 0.0:
        return 0.5
    h = upper / intervals
    total = g(0.0) + g(upper)
    for i in range(1, intervals):
        total += g(i * h) * (4.0 if i % 2 else 2.0)
    half = total * h / 3.0
    return 0.5 + half if t > 0 else 0.5 - half


def ols_by_lstsq(X, y):
    """Least-squares coefficients straight from numpy's lstsq."""
    beta, *_ = np.linalg.lstsq(np.asarray(X, float), np.asarray(y, float), rcond=None)
    return beta


def scalar_fit(X, model):
    """The path model fitted by the scalar ALS loop, one vector at a time.

    X is the standardized data matrix and model the compiled spec
    (`paneleff.pls._CompiledModel`). Returns PathEstimates; raises
    CollinearityError on a collapsed score, collinear predecessors, zero
    outer weights or a singular structural regression."""
    n = X.shape[0]
    blocks = [X[:, sl] for sl in model.slices]
    weights = [_canonical_weights(np.ones(b.shape[1])) for b in blocks]

    converged = False
    iterations = 0
    scores = [None] * len(blocks)
    for iterations in range(1, pls.MAX_ITERATIONS + 1):
        scores = [_unit_score(blocks[i] @ weights[i], model.names[i]) for i in range(len(blocks))]
        corr = _score_correlations(scores, n)
        delta = 0.0
        new_weights = []
        for i, block in enumerate(blocks):
            proxy = _inner_proxy(i, scores, corr, model)
            w = _canonical_weights(block.T @ proxy)
            delta = max(delta, float(np.abs(w - weights[i]).max()))
            new_weights.append(w)
        weights = new_weights
        if delta < pls.CONVERGENCE_TOL:
            converged = True
            break

    scores = [_unit_score(blocks[i] @ weights[i], model.names[i]) for i in range(len(blocks))]

    # Reflective loadings; orient each latent so its loading sum is
    # nonnegative.
    loadings: dict = {}
    for i, block in enumerate(blocks):
        lam = block.T @ scores[i] / (n - 1)
        if lam.sum() < 0.0:
            scores[i] = -scores[i]
            lam = -lam
        for name, value in zip(model.spec.blocks[i].indicators, lam):
            loadings[name] = float(value)

    path_coefficients: dict = {}
    r_squared: dict = {}
    for i, name in enumerate(model.names):
        preds = model.pred[i]
        if not preds:
            continue
        T = np.column_stack([scores[j] for j in preds])
        beta, rss = _structural_ols(T, scores[i], [model.names[j] for j in preds])
        tss = float(scores[i] @ scores[i])
        r_squared[name] = float(1.0 - rss / tss)
        for j, b in zip(preds, beta):
            path_coefficients[(model.names[j], name)] = float(b)

    return pls.PathEstimates(
        path_coefficients=path_coefficients,
        r_squared=r_squared,
        outer_loadings=loadings,
        converged=converged,
        iterations=iterations,
        inner_scheme=model.spec.inner_scheme,
    )


def _unit_score(raw, latent):
    sd = raw.std(ddof=1)
    if sd == 0.0:
        raise CollinearityError(f"latent {latent!r} collapsed to a constant score")
    return (raw - raw.mean()) / sd


def _score_correlations(scores, n):
    S = np.column_stack(scores)
    return S.T @ S / (n - 1)


def _inner_proxy(i, scores, corr, model):
    if model.centroid:
        weights = {j: _sign(corr[i, j]) for j in model.adjacent[i]}
    else:
        # path weighting: regression coefficients toward predecessors,
        # correlations toward successors
        weights = {}
        preds = model.pred[i]
        if preds:
            R = corr[np.ix_(preds, preds)]
            r = corr[preds, i]
            try:
                coef = np.linalg.solve(R, r)
            except np.linalg.LinAlgError as exc:
                raise CollinearityError(
                    f"predecessors of {model.names[i]!r} are collinear"
                ) from exc
            for j, c in zip(preds, coef):
                weights[j] = float(c)
        for j in model.succ[i]:
            weights[j] = float(corr[i, j])
    proxy = np.zeros_like(scores[0])
    for j, w in weights.items():
        proxy += w * scores[j]
    return proxy


def _sign(x):
    return -1.0 if x < 0.0 else 1.0


def _canonical_weights(w):
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise CollinearityError("outer weights collapsed to zero")
    w = w / norm
    total = float(w.sum())
    if total < 0.0 or (total == 0.0 and w[np.flatnonzero(w)[0]] < 0.0):
        w = -w
    return w


def _structural_ols(T, y, names):
    gram = T.T @ T
    # guard against numerically repeated predecessor scores
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise CollinearityError(f"structural regression on {names} is singular", columns=tuple(names))
    beta = np.linalg.solve(gram, T.T @ y)
    resid = y - T @ beta
    return beta, float(resid @ resid)


def scalar_rows(rng: random.Random, n: int, count: int) -> list:
    """count rows of range(n) from rng, one getrandbits(32) word at a time:
    a word w gives row (w * n) >> 32, and is rejected when (w * n) mod
    2**32 < 2**32 mod n (Lemire's method, as R's sample() draws)."""
    rows = []
    while len(rows) < count:
        w = rng.getrandbits(32)
        if (w * n) % 2 ** 32 >= 2 ** 32 % n:
            rows.append((w * n) >> 32)
    return rows


def scalar_bootstrap(data, spec, samples=500, seed=0):
    """The bootstrap fitted one replicate at a time: each resample is
    standardized and fitted by itself. Replicate i first draws the i-th n
    rows of random.Random(seed)'s stream (scalar_rows); a degenerate
    resample is redrawn from the replicate's own stream,
    random.Random(f"{seed}:{i}"), up to 10x samples in total.

    Returns (std_error, t_statistic, p_value, redraws, unconverged), keyed
    like BootstrapSummary."""
    from paneleff.distributions import t_two_tailed_p
    from paneleff.pls import _CompiledModel, _matrix_from_mapping, standardize

    model = _CompiledModel(spec)
    X_raw = _matrix_from_mapping(data, model.columns)
    n = X_raw.shape[0]
    full = scalar_fit(standardize(X_raw, columns=model.columns), model)

    paths = list(full.path_coefficients)
    draws = {p: np.empty(samples) for p in paths}
    redraws_left = 10 * samples
    unconverged = 0
    first = random.Random(seed)
    for i in range(samples):
        idx = scalar_rows(first, n, n)
        rng = random.Random(f"{seed}:{i}")
        while True:
            try:
                X = standardize(X_raw[idx], columns=model.columns)
                est = scalar_fit(X, model)
            except (DegenerateColumnError, CollinearityError):
                redraws_left -= 1
                if redraws_left < 0:
                    raise DegenerateColumnError(
                        f"more than {10 * samples} degenerate resamples; data is too discrete to bootstrap"
                    ) from None
                idx = scalar_rows(rng, n, n)
                continue
            break
        unconverged += not est.converged
        flip = {}
        for block in spec.blocks:
            dot = sum(full.outer_loadings[c] * est.outer_loadings[c] for c in block.indicators)
            flip[block.name] = -1.0 if dot < 0.0 else 1.0
        for (a, b) in paths:
            draws[(a, b)][i] = est.path_coefficients[(a, b)] * flip[a] * flip[b]

    std_error, t_statistic, p_value = {}, {}, {}
    for p in paths:
        se = float(draws[p].std(ddof=1))
        beta = full.path_coefficients[p]
        if se == 0.0:
            t = 0.0 if beta == 0.0 else math.inf * (-1.0 if beta < 0.0 else 1.0)
        else:
            t = beta / se
        std_error[p] = se
        t_statistic[p] = float(t)
        p_value[p] = float(t_two_tailed_p(t, n - 1))
    return std_error, t_statistic, p_value, 10 * samples - redraws_left, unconverged


# slack coefficient of each relation in the standard form
_SLACK_COEF = {"<=": 1.0, "=": 0.0, ">=": -1.0}


class _Tableau:
    """Dense simplex tableau with Dantzig pricing and a Bland fallback."""

    def __init__(self, T: np.ndarray, basis: list[int], allowed: np.ndarray):
        self.T = T
        self.basis = basis
        self.allowed = allowed  # columns eligible to enter
        self.iterations = 0
        self.degenerate_run = 0
        self.bland = False

    def run(self) -> str:
        T = self.T
        while True:
            if self.iterations > _MAX_ITER:
                raise LpSolverError(
                    "iteration limit reached",
                    diagnostics={
                        "iterations": self.iterations,
                        "bland_mode": self.bland,
                        "degenerate_run": self.degenerate_run,
                    },
                )
            cost = T[-1, :-1]
            candidates = np.flatnonzero(self.allowed & (cost < -PIVOT_TOL))
            if candidates.size == 0:
                return OPTIMAL
            if self.bland:
                enter = int(candidates[0])
            else:
                enter = int(candidates[np.argmin(cost[candidates])])
            col = T[:-1, enter]
            rows = np.flatnonzero(col > PIVOT_TOL)
            if rows.size == 0:
                return UNBOUNDED
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            ties = rows[ratios <= best + 1e-12]
            if self.bland:
                # leave by the lowest basic-variable index among the ties
                leave = int(ties[np.argmin([self.basis[r] for r in ties])])
            else:
                leave = int(ties[0])
            if best < _DEGENERATE_STEP:
                self.degenerate_run += 1
                if self.degenerate_run >= _BLAND_TRIGGER:
                    self.bland = True
            else:
                self.degenerate_run = 0
            self._pivot(leave, enter)

    def _pivot(self, row: int, col: int) -> None:
        T = self.T
        piv = T[row, col]
        if abs(piv) <= PIVOT_TOL:
            raise LpSolverError(
                "pivot below tolerance",
                diagnostics={
                    "iterations": self.iterations,
                    "pivot": float(piv),
                    "bland_mode": self.bland,
                },
            )
        T[row] /= piv
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        T[:, col] = 0.0
        T[row, col] = 1.0
        self.basis[row] = col
        self.iterations += 1


def scalar_solve_lp(problem):
    """The two-phase primal simplex on one program at a time, pivoting a
    single 2-D tableau: the solver `paneleff.linprog.solve_lp` replaced by
    its lockstep stack, kept as the reference the stack must equal bit for
    bit.

    Returns an LpSolution whose status is "optimal", "infeasible", or
    "unbounded". Output is deterministic for identical input. Raises
    LpSolverError with iteration diagnostics on numerical breakdown.
    """
    n = problem.objective.size
    m = problem.b.size
    minimize = problem.sense == "min"

    c_std = problem.objective if minimize else -problem.objective

    if m == 0:
        # Bounded iff no improving coordinate direction exists.
        if np.any(c_std < -PIVOT_TOL):
            return LpSolution(UNBOUNDED, float("nan"), None, None, 0)
        x = np.zeros(n)
        return LpSolution(OPTIMAL, float(problem.objective @ x), x, np.zeros(0), 0)

    M, slack_coef, rhs = _dense_rows(problem)
    has_slack = slack_coef != 0.0
    n_slacks = int(has_slack.sum())
    A = np.zeros((m, n + n_slacks))
    A[:, :n] = M
    slack_of_row = np.full(m, -1, dtype=int)
    slack_of_row[has_slack] = n + np.arange(n_slacks)
    A[has_slack, slack_of_row[has_slack]] = slack_coef[has_slack]
    b = rhs.copy()

    row_sign = np.ones(m)
    negative = b < 0.0
    A[negative] *= -1.0
    b[negative] *= -1.0
    row_sign[negative] = -1.0

    # Scale each row of M once; the slacks stay unit columns of the scaled
    # rows.
    row_max = np.abs(A[:, :n]).max(axis=1)
    row_scale = np.where(row_max > 0.0, row_max, 1.0)
    A[:, :n] /= row_scale[:, None]
    b /= row_scale

    total_cols = A.shape[1]
    # A row starts on its own slack when that slack's coefficient is
    # positive; every other row gets an artificial column.
    own_slack = has_slack & (A[np.arange(m), slack_of_row] > 0.0)
    artificial_rows = np.flatnonzero(~own_slack)
    n_art = artificial_rows.size
    basis_arr = slack_of_row.copy()
    basis_arr[artificial_rows] = total_cols + np.arange(n_art)

    T = np.zeros((m + 1, total_cols + n_art + 1))
    T[:m, :total_cols] = A
    T[:m, -1] = b
    T[artificial_rows, total_cols + np.arange(n_art)] = 1.0

    basis: list[int] = basis_arr.tolist()
    allowed = np.arange(total_cols + n_art) < total_cols  # an artificial never enters

    # Phase 1: minimize the sum of artificials.
    if n_art:
        T[-1, total_cols:-1] = 1.0
        for i in artificial_rows:
            T[-1] -= T[i]
        tab = _Tableau(T, basis, allowed)
        status = tab.run()
        if status != OPTIMAL:
            raise LpSolverError(
                f"phase 1 broke down: an improving column has no entry above the pivot tolerance {PIVOT_TOL:g}",
                diagnostics={"iterations": tab.iterations})
        phase1_obj = sum(T[i, -1] for i in range(m) if basis[i] >= total_cols)
        if phase1_obj > FEAS_TOL:
            return LpSolution(INFEASIBLE, float("nan"), None, None, tab.iterations)
        iterations = tab.iterations
    else:
        iterations = 0

    # Drive remaining artificials out of the basis; rows that cannot be
    # pivoted are redundant and get dropped.
    keep_rows = np.ones(m, dtype=bool)
    cleanup = _Tableau(T, basis, allowed)
    for i in range(m):
        if basis[i] >= total_cols:
            pivot_cols = np.flatnonzero(np.abs(T[i, :total_cols]) > PIVOT_TOL)
            if pivot_cols.size:
                cleanup._pivot(i, int(pivot_cols[0]))
            else:
                keep_rows[i] = False
    iterations += cleanup.iterations

    row_index = np.flatnonzero(keep_rows)
    T2 = np.zeros((row_index.size + 1, total_cols + 1))
    T2[:-1, :total_cols] = T[row_index][:, :total_cols]
    T2[:-1, -1] = T[row_index, -1]
    basis2 = [basis[i] for i in row_index]

    # Phase 2: restore the real objective and eliminate basic columns.
    c_full = np.concatenate([c_std, np.zeros(n_slacks)])
    T2[-1, :total_cols] = c_full
    for r, j in enumerate(basis2):
        cj = T2[-1, j]
        if cj != 0.0:
            T2[-1] -= cj * T2[r]

    tab = _Tableau(T2, basis2, np.ones(total_cols, dtype=bool))
    status = tab.run()
    iterations += tab.iterations
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, float("nan"), None, None, iterations)

    # Re-solve the final basis against the stored (scaled) data to clear
    # accumulated tableau drift, then unwind scaling, signs, and sense.
    A_rows = A[row_index]
    b_rows = b[row_index]
    B = A_rows[:, basis2]
    try:
        x_basic = np.linalg.solve(B, b_rows)
        y_rows = np.linalg.solve(B.T, c_full[basis2])
    except np.linalg.LinAlgError as exc:
        raise LpSolverError(
            "singular final basis",
            diagnostics={"iterations": iterations, "basis": list(map(int, basis2))},
        ) from exc

    x_std = np.zeros(total_cols)
    x_std[basis2] = x_basic
    x_std[(x_std >= -FEAS_TOL) & (x_std <= 0.0)] = 0.0  # zero roundoff; the certificate rejects larger negatives

    x = x_std[:n]

    dual = np.zeros(m)
    sense_factor = 1.0 if minimize else -1.0
    dual[row_index] = sense_factor * row_sign[row_index] * y_rows / row_scale[row_index]

    objective_value = float(problem.objective @ x)
    _check_certificates(problem, M, slack_coef, rhs, x, dual, objective_value, iterations)
    return LpSolution(OPTIMAL, objective_value, x, dual, iterations)


def _dense_rows(problem):
    """The constraints as a dense (m, n) matrix, the slack coefficient of
    each row (+1 for <=, 0 for =, -1 for >=) and the right-hand sides."""
    M = np.array(problem.A)
    slack_coef = np.array([_SLACK_COEF[rel] for rel in problem.relations])
    rhs = np.array(problem.b)
    return M, slack_coef, rhs


def _check_certificates(problem, M, slack_coef, rhs, x, dual, objective_value, iterations) -> None:
    """Verify primal feasibility, dual feasibility and strong duality.

    Together the three prove x optimal and dual an optimal dual solution.
    Each test is relative to the magnitudes of its own terms: row i's
    residual to max(1, |b_i|, sum_j |a_ij| |x_j|), column j's reduced cost
    to max(1, |c_j|, sum_i |a_ij| |dual_i|). Breakdowns surface as errors.
    """
    abs_M = np.abs(M)
    residual = M @ x - rhs
    violation = np.where(slack_coef == 0.0, np.abs(residual), slack_coef * residual)
    scale = np.maximum(1.0, np.maximum(np.abs(rhs), abs_M @ np.abs(x)))
    bad = np.flatnonzero(violation > FEAS_TOL * scale)
    if bad.size:
        i = int(bad[0])
        raise LpSolverError(
            f"primal infeasibility {violation[i]:.3e} in constraint {i} at claimed optimum",
            diagnostics={"iterations": iterations, "constraint": i},
        )
    if np.any(x < -FEAS_TOL):
        raise LpSolverError("negative value for a nonnegative variable at claimed optimum",
                            diagnostics={"iterations": iterations})

    # Dual feasibility. With s = +1 for min and -1 for max: s * dual_i <= 0
    # on a <= row and >= 0 on a >= row; s * (c - M'dual) >= 0 on every
    # column. A row's sign is the reduced cost of its unit slack column, so
    # it shares the column test.
    s = 1.0 if problem.sense == "min" else -1.0
    dual_max = float(np.abs(dual).max(initial=0.0))
    wrong_sign = s * slack_coef * dual
    bad = np.flatnonzero(wrong_sign > FEAS_TOL * max(1.0, dual_max))
    if bad.size:
        i = int(bad[0])
        raise LpSolverError(
            f"dual sign violation {wrong_sign[i]:.3e} in constraint {i} at claimed optimum",
            diagnostics={"iterations": iterations, "constraint": i},
        )
    reduced = s * (problem.objective - M.T @ dual)
    violation = -reduced
    scale = np.maximum(1.0, np.maximum(np.abs(problem.objective), np.abs(dual) @ abs_M))
    bad = np.flatnonzero(violation > FEAS_TOL * scale)
    if bad.size:
        j = int(bad[0])
        raise LpSolverError(
            f"dual infeasibility {violation[j]:.3e} in the reduced cost of variable {j} at claimed optimum",
            diagnostics={"iterations": iterations, "variable": j},
        )

    b_dot_y = float(rhs @ dual)
    gap = abs(objective_value - b_dot_y)
    if gap > DUALITY_TOL * max(1.0, abs(objective_value)):
        raise LpSolverError(
            f"strong duality gap {gap:.3e} at claimed optimum",
            diagnostics={"iterations": iterations, "objective": objective_value, "dual_objective": b_dot_y},
        )


def lp_outcome(solve, problem):
    """solve(problem), or the LpSolverError it raises."""
    try:
        return solve(problem)
    except LpSolverError as exc:
        return exc


def same_lp_outcome(a, b) -> bool:
    """Whether two solver outcomes are identical: the same error message
    and diagnostics, or the same status, iterations and objective, primal
    and dual bit for bit."""
    if isinstance(a, LpSolverError) or isinstance(b, LpSolverError):
        return type(a) is type(b) and str(a) == str(b) and a.diagnostics == b.diagnostics
    if (a.status, a.iterations) != (b.status, b.iterations):
        return False
    if a.status != OPTIMAL:
        return a.primal is None and b.primal is None
    return (a.objective_value == b.objective_value and np.array_equal(a.primal, b.primal)
            and np.array_equal(a.dual, b.dual))
