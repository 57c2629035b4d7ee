"""Independent brute-force oracles used by the test suite.

Each oracle deliberately avoids the code path it checks: the LP oracle
enumerates basic points and extreme rays, the clustering oracle enumerates
set partitions, the F-distribution oracle integrates the density with
composite Simpson quadrature.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


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


def scalar_bootstrap(data, spec, samples=500, seed=0):
    """The bootstrap fitted one replicate at a time: each resample is
    standardized and fitted by itself, degenerate resamples are redrawn
    from the replicate's own stream, up to 10x samples in total.

    Returns (std_error, t_statistic, p_value, redraws), keyed like
    BootstrapSummary."""
    from paneleff.distributions import t_two_tailed_p
    from paneleff.errors import CollinearityError, DegenerateColumnError
    from paneleff.pls import _CompiledModel, _fit_compiled, _matrix_from_mapping, standardize

    model = _CompiledModel(spec)
    X_raw = _matrix_from_mapping(data, model.columns)
    n = X_raw.shape[0]
    full = _fit_compiled(standardize(X_raw, columns=model.columns), model)

    paths = list(full.path_coefficients)
    draws = {p: np.empty(samples) for p in paths}
    redraws_left = 10 * samples
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        while True:
            idx = rng.integers(0, n, size=n)
            try:
                X = standardize(X_raw[idx], columns=model.columns)
                est = _fit_compiled(X, model)
            except (DegenerateColumnError, CollinearityError):
                redraws_left -= 1
                if redraws_left < 0:
                    raise DegenerateColumnError(
                        f"more than {10 * samples} degenerate resamples; data is too discrete to bootstrap"
                    ) from None
                continue
            break
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
    return std_error, t_statistic, p_value, 10 * samples - redraws_left
