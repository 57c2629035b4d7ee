"""Independent brute-force oracles used by the test suite.

Each oracle deliberately avoids the code path it checks: the LP oracle
enumerates basic points and extreme rays, the clustering oracles enumerate
set partitions or cut sets of the sorted values, the F-distribution oracle
integrates the density with composite Simpson quadrature.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from paneleff import pls
from paneleff.errors import CollinearityError, DegenerateColumnError


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


def scalar_bootstrap(data, spec, samples=500, seed=0):
    """The bootstrap fitted one replicate at a time: each resample is
    standardized and fitted by itself, degenerate resamples are redrawn
    from the replicate's own stream, up to 10x samples in total.

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
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        while True:
            idx = rng.integers(0, n, size=n)
            try:
                X = standardize(X_raw[idx], columns=model.columns)
                est = scalar_fit(X, model)
            except (DegenerateColumnError, CollinearityError):
                redraws_left -= 1
                if redraws_left < 0:
                    raise DegenerateColumnError(
                        f"more than {10 * samples} degenerate resamples; data is too discrete to bootstrap"
                    ) from None
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
