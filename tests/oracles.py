"""Independent brute-force oracles used by the test suite.

Each oracle deliberately avoids the code path it checks: the LP oracle
enumerates basic points and extreme rays, the clustering oracles enumerate
set partitions or cut sets of the sorted values, the F-distribution oracle
integrates the density with composite Simpson quadrature. scalar_fit is the
one-at-a-time form of the program's stacked PLS kernel, scalar_rows the
word-at-a-time form of its bulk bootstrap draw, and the panel cell oracles
the numpy-mask forms of the program's loops over a panel's cell buffer,
kept as the references those must equal bit for bit.

scalar_outcomes is the one reference that runs the code it judges: it
solves each member of an LP stack by itself, so it shows that the members
of a stack do not affect each other, not that the solver is right. The
solver's answers are judged by the enumeration oracle (enumeration_outcome
for any sense and relations), by HiGHS on DEA programs (test_dea_highs.py)
and its pivot paths by one pinned digest (test_linprog.py)."""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np

from paneleff import pls
from paneleff.errors import CollinearityError, DegenerateColumnError, DomainError, LpSolverError
from paneleff.linprog import OPTIMAL, solve_stack
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


# each relation as the sides of A x <= b it is: a >= row negated, an = row both ways
_SIDES = {"<=": (1.0,), ">=": (-1.0,), "=": (1.0, -1.0)}


def enumeration_outcome(problem):
    """lp_enumeration_oracle's (status, objective or None) for an LpProblem
    of either sense and any relations: each row becomes its sides of
    A x <= b and min c.x is read as -max -c.x."""
    rows, sides = [], []
    for i, relation in enumerate(problem.relations.tolist()):
        rows += [i] * len(_SIDES[relation])
        sides += _SIDES[relation]
    side = np.array(sides)
    sign = 1.0 if problem.sense == "max" else -1.0
    status, value = lp_enumeration_oracle(sign * problem.objective, side[:, None] * problem.A[rows],
                                          side * problem.b[rows])
    return status, None if value is None else sign * value


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


def scalar_outcomes(objective, sense, A, relations, b) -> list:
    """Each member of a solve_stack stack solved by solve_stack alone, one
    program at a time: the reference every member of the whole stack must
    equal bit for bit, since no pivot of one tableau reads another's."""
    return [solve_stack(objective, sense, A_k[None], relations, b_k[None])[0] for A_k, b_k in zip(A, b)]


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
