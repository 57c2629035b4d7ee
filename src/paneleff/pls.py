"""PLS path modeling with bootstrap significance, plus the log-log
interaction design builder and an ordinary-least-squares baseline.

The path model estimator is the classical alternating least squares
iteration: outer weights start at one, latent scores are standardized,
inner weights follow the configured scheme (path_weighting or centroid),
and mode-A regressions update the outer weights until the largest weight
change falls below 1e-7. Structural coefficients are then ordinary least
squares among latent scores, so for all-single-indicator models every path
coefficient collapses to the standardized OLS coefficient - the test
suite's primary oracle.

Only the linear algorithm is implemented; no proprietary nonlinear
transforms are applied to the inner relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import t_two_tailed_p
from .errors import (
    CollinearityError,
    DegenerateColumnError,
    DomainError,
    UsageError,
)

INNER_SCHEMES = ("path_weighting", "centroid")
CONVERGENCE_TOL = 1e-7
MAX_ITERATIONS = 300
MIN_BOOTSTRAP_SAMPLES = 100
# bytes of resampled data the bootstrap fits at once: enough replicates to
# spread numpy's per-call cost, few enough to keep peak memory flat
STACK_BYTES = 256 * 1024


@dataclass(frozen=True)
class LatentBlock:
    """A reflective (mode A) latent variable and its indicator columns."""

    name: str
    indicators: tuple[str, ...]
    mode: str = "reflective"

    def __post_init__(self):
        object.__setattr__(self, "indicators", tuple(self.indicators))
        if not self.name:
            raise UsageError("latent name must be non-empty")
        if not self.indicators:
            raise UsageError(f"latent {self.name!r} needs at least one indicator")
        if self.mode != "reflective":
            raise UsageError(f"latent {self.name!r}: only reflective blocks are supported")


@dataclass(frozen=True)
class PathModelSpec:
    """Latent blocks plus directed structural paths; the path graph must be
    acyclic and every indicator belongs to exactly one block."""

    blocks: tuple[LatentBlock, ...]
    paths: tuple[tuple[str, str], ...]
    inner_scheme: str = "path_weighting"

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "paths", tuple((str(a), str(b)) for a, b in self.paths))
        if self.inner_scheme not in INNER_SCHEMES:
            raise UsageError(f"inner_scheme must be one of {INNER_SCHEMES}")
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise UsageError("latent names must be unique")
        seen: dict[str, str] = {}
        for b in self.blocks:
            for ind in b.indicators:
                if ind in seen:
                    raise UsageError(f"indicator {ind!r} appears in blocks {seen[ind]!r} and {b.name!r}")
                seen[ind] = b.name
        known = set(names)
        if not self.paths:
            raise UsageError("a path model needs at least one structural path")
        for a, b in self.paths:
            if a not in known or b not in known:
                raise UsageError(f"path ({a!r}, {b!r}) references an unknown latent")
            if a == b:
                raise UsageError(f"self-path on latent {a!r}")
        if len(set(self.paths)) != len(self.paths):
            raise UsageError("duplicate structural path")
        _toposort(names, self.paths)  # raises on cycles
        connected = {a for a, _ in self.paths} | {b for _, b in self.paths}
        isolated = known - connected
        if isolated:
            raise UsageError(f"latents {sorted(isolated)} appear in no structural path")

    @property
    def latent_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blocks)

    @property
    def indicator_names(self) -> tuple[str, ...]:
        return tuple(ind for b in self.blocks for ind in b.indicators)

    def predecessors(self, latent: str) -> tuple[str, ...]:
        return tuple(a for a, b in self.paths if b == latent)

    def successors(self, latent: str) -> tuple[str, ...]:
        return tuple(b for a, b in self.paths if a == latent)

    @property
    def endogenous(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blocks if self.predecessors(b.name))


def _toposort(names, paths):
    order = []
    pending = {n: set(a for a, b in paths if b == n) for n in names}
    while pending:
        ready = sorted(n for n, deps in pending.items() if not deps)
        if not ready:
            raise UsageError(f"path graph contains a cycle among {sorted(pending)}")
        for n in ready:
            order.append(n)
            del pending[n]
        for deps in pending.values():
            deps.difference_update(ready)
    return order


@dataclass(frozen=True)
class BootstrapSummary:
    """Resampling-based significance for every structural path."""

    std_error: dict
    t_statistic: dict
    p_value: dict
    samples: int
    seed: int
    redraws: int  # degenerate resamples that were drawn again


@dataclass(frozen=True)
class PathEstimates:
    """Fitted path model: standardized path coefficients, R-squared per
    endogenous latent, outer loadings per indicator, and optionally the
    bootstrap block."""

    path_coefficients: dict
    r_squared: dict
    outer_loadings: dict
    converged: bool
    iterations: int
    inner_scheme: str
    bootstrap: BootstrapSummary | None = None

    def with_bootstrap(self, bootstrap: BootstrapSummary) -> "PathEstimates":
        return replace(self, bootstrap=bootstrap)


def standardize(matrix, columns=None) -> np.ndarray:
    """Center each column to mean 0 and scale to sample variance 1 (n-1
    denominator). Raises DegenerateColumnError naming any constant column."""
    X = np.asarray(matrix, dtype=float)
    one_dim = X.ndim == 1
    if one_dim:
        X = X[:, None]
    if X.shape[0] < 2:
        raise UsageError("standardize needs at least two rows")
    if not np.all(np.isfinite(X)):
        raise UsageError("standardize requires finite values")
    sd = X.std(axis=0, ddof=1)
    dead = np.flatnonzero(sd == 0.0)
    if dead.size:
        j = int(dead[0])
        name = columns[j] if columns is not None else j
        raise DegenerateColumnError(f"column {name!r} has zero variance", column=name)
    out = (X - X.mean(axis=0)) / sd
    return out[:, 0] if one_dim else out


class _CompiledModel:
    """Spec resolved against a concrete column order, reused across
    bootstrap refits."""

    def __init__(self, spec: PathModelSpec):
        self.spec = spec
        self.columns = spec.indicator_names
        self.names = spec.latent_names
        index = {}
        start = 0
        self.slices = []
        for b in spec.blocks:
            self.slices.append(slice(start, start + len(b.indicators)))
            start += len(b.indicators)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.pred = [ [self.index[p] for p in spec.predecessors(n)] for n in self.names ]
        self.succ = [ [self.index[s] for s in spec.successors(n)] for n in self.names ]
        self.adjacent = [sorted(set(p) | set(s)) for p, s in zip(self.pred, self.succ)]
        # (predecessor, latent) in the order of PathEstimates.path_coefficients
        self.structural = [(j, i) for i in range(len(self.names)) for j in self.pred[i]]
        self.centroid = spec.inner_scheme == "centroid"


def _matrix_from_mapping(data, columns) -> np.ndarray:
    cols = []
    n = None
    for name in columns:
        if name not in data:
            raise UsageError(f"indicator {name!r} missing from the data")
        col = np.asarray(data[name], dtype=float).reshape(-1)
        if n is None:
            n = col.size
        elif col.size != n:
            raise UsageError(f"indicator {name!r} has {col.size} rows, expected {n}")
        cols.append(col)
    return np.column_stack(cols)


def fit_path_model(data, spec: PathModelSpec) -> PathEstimates:
    """Estimate a path model from a mapping of indicator name to 1-D array.

    Raw columns are standardized first, so rescaling any indicator leaves
    every coefficient unchanged. Requires at least three more observations
    than the largest structural equation's predictor count. Returns
    converged=False (rather than raising) when 300 iterations do not settle
    the outer weights; a singular structural regression raises
    CollinearityError.
    """
    model = _CompiledModel(spec)
    X_raw = _matrix_from_mapping(data, model.columns)
    largest = max(len(p) for p in model.pred)
    if X_raw.shape[0] < largest + 3:
        raise UsageError(
            f"need at least {largest + 3} observations for {largest} predictor(s), got {X_raw.shape[0]}"
        )
    X = standardize(X_raw, columns=model.columns)
    return _fit_compiled(X, model)


def _fit_compiled(X: np.ndarray, model: _CompiledModel) -> PathEstimates:
    n = X.shape[0]
    blocks = [X[:, sl] for sl in model.slices]
    weights = [_canonical_weights(np.ones(b.shape[1])) for b in blocks]

    converged = False
    iterations = 0
    scores = [None] * len(blocks)
    for iterations in range(1, MAX_ITERATIONS + 1):
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
        if delta < CONVERGENCE_TOL:
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

    return PathEstimates(
        path_coefficients=path_coefficients,
        r_squared=r_squared,
        outer_loadings=loadings,
        converged=converged,
        iterations=iterations,
        inner_scheme=model.spec.inner_scheme,
    )


def _unit_score(raw: np.ndarray, latent: str) -> np.ndarray:
    sd = raw.std(ddof=1)
    if sd == 0.0:
        raise CollinearityError(f"latent {latent!r} collapsed to a constant score")
    return (raw - raw.mean()) / sd


def _score_correlations(scores, n) -> np.ndarray:
    S = np.column_stack(scores)
    return S.T @ S / (n - 1)


def _inner_proxy(i, scores, corr, model: _CompiledModel) -> np.ndarray:
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


def _sign(x: float) -> float:
    return -1.0 if x < 0.0 else 1.0


def _canonical_weights(w: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise CollinearityError("outer weights collapsed to zero")
    w = w / norm
    total = float(w.sum())
    if total < 0.0 or (total == 0.0 and w[np.flatnonzero(w)[0]] < 0.0):
        w = -w
    return w


def _structural_ols(T: np.ndarray, y: np.ndarray, names) -> tuple[np.ndarray, float]:
    gram = T.T @ T
    # guard against numerically repeated predecessor scores
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise CollinearityError(f"structural regression on {names} is singular", columns=tuple(names))
    beta = np.linalg.solve(gram, T.T @ y)
    resid = y - T @ beta
    return beta, float(resid @ resid)


def bootstrap_significance(data, spec: PathModelSpec, samples: int = 500, seed: int = 0,
                           full: PathEstimates | None = None) -> BootstrapSummary:
    """Bootstrap standard errors and two-tailed p-values for every path.

    Rows are resampled with replacement; each replicate's random stream is
    derived from (seed, replicate index) so results do not depend on
    scheduling. Replicates that draw a zero-variance column are redrawn, up
    to 10x the requested count in total. t statistics divide the
    full-sample coefficient by the resampling standard deviation and are
    referred to a Student-t distribution with n - 1 degrees of freedom.
    `full` is the model already fitted to the whole sample; without it the
    whole sample is fitted here.

    Replicates are fitted in stacks of STACK_BYTES of resampled data by
    `_fit_stack`. A replicate it cannot fit cleanly is refitted alone by
    `_fit_compiled`, which raises exactly when it must be redrawn.
    """
    if samples < MIN_BOOTSTRAP_SAMPLES:
        raise UsageError(f"bootstrap needs at least {MIN_BOOTSTRAP_SAMPLES} samples, got {samples}")
    model = _CompiledModel(spec)
    X_raw = _matrix_from_mapping(data, model.columns)
    n = X_raw.shape[0]
    if full is None:
        full = _fit_compiled(standardize(X_raw, columns=model.columns), model)

    paths = [(model.names[j], model.names[i]) for j, i in model.structural]
    draws = np.empty((len(paths), samples))
    redraws = 0
    chunk = max(1, STACK_BYTES // X_raw.nbytes)
    for start in range(0, samples, chunk):
        rngs = [np.random.default_rng((seed, i)) for i in range(start, min(start + chunk, samples))]
        idx = np.stack([rng.integers(0, n, size=n) for rng in rngs])
        coefficients = np.empty((len(rngs), len(paths)))
        loadings = np.empty((len(rngs), len(model.columns)))
        rows, coefficients_clean, loadings_clean = _fit_stack(X_raw, idx, model)
        coefficients[rows] = coefficients_clean
        loadings[rows] = loadings_clean
        for k in np.setdiff1d(np.arange(len(rngs)), rows):
            sample = idx[k]
            while True:
                try:
                    est = _fit_compiled(standardize(X_raw[sample], columns=model.columns), model)
                    break
                except (DegenerateColumnError, CollinearityError):
                    redraws += 1
                    if redraws > 10 * samples:
                        raise DegenerateColumnError(
                            f"more than {10 * samples} degenerate resamples; data is too discrete to bootstrap"
                        ) from None
                    sample = rngs[k].integers(0, n, size=n)
            coefficients[k] = [est.path_coefficients[p] for p in paths]
            loadings[k] = [est.outer_loadings[c] for c in model.columns]
        flip = _sign_alignment(full.outer_loadings, loadings, model)
        for q, (j, i) in enumerate(model.structural):
            draws[q, start:start + len(rngs)] = coefficients[:, q] * flip[:, j] * flip[:, i]

    std_error = {}
    t_statistic = {}
    p_value = {}
    for q, p in enumerate(paths):
        se = float(draws[q].std(ddof=1))
        beta = full.path_coefficients[p]
        if se == 0.0:
            t = 0.0 if beta == 0.0 else math.inf * _sign(beta)
        else:
            t = beta / se
        std_error[p] = se
        t_statistic[p] = float(t)
        p_value[p] = float(t_two_tailed_p(t, n - 1))
    return BootstrapSummary(std_error, t_statistic, p_value, samples, seed, redraws)


def _sign_alignment(full_loadings, loadings: np.ndarray, model: _CompiledModel) -> np.ndarray:
    """Per-replicate, per-latent sign (replicates x latents) that aligns
    each replicate's orientation with the full-sample solution; loadings
    holds one replicate's outer loadings per row, in column order."""
    flip = np.empty((loadings.shape[0], len(model.names)))
    for b, (block, sl) in enumerate(zip(model.spec.blocks, model.slices)):
        dot = 0.0
        for name, column in zip(block.indicators, loadings[:, sl].T):
            dot = dot + full_loadings[name] * column
        flip[:, b] = np.where(dot < 0.0, -1.0, 1.0)
    return flip


@np.errstate(divide="ignore", invalid="ignore")  # left-out replicates may divide by zero
def _fit_stack(X_raw: np.ndarray, idx: np.ndarray, model: _CompiledModel):
    """Fit the resamples X_raw[idx[k]] of a stack of replicates with the
    operations of `standardize` and `_fit_compiled`, replicate by replicate
    in the same order.

    Returns (rows, coefficients, loadings): the positions in idx fitted
    cleanly, their structural coefficients in `model.structural` order and
    their outer loadings in column order. A replicate is left out when its
    own fit would raise or not converge: a zero-variance column, a
    collapsed score, zero outer weights, a singular or ill-conditioned
    system, or no convergence within MAX_ITERATIONS. Each ALS step updates
    only the replicates still iterating, so a replicate's weights stop
    where its own loop would stop.
    """
    n = X_raw.shape[0]
    X = X_raw[idx]
    sd = X.std(axis=1, ddof=1, keepdims=True)
    X -= X.mean(axis=1, keepdims=True)
    X /= sd
    rows = np.arange(len(idx))
    X, rows = _rows_where((sd != 0.0).all(axis=(1, 2)), X, rows)
    W = np.concatenate(
        [np.tile(_canonical_weights(np.ones(sl.stop - sl.start)), (len(rows), 1)) for sl in model.slices],
        axis=1,
    )
    active = np.ones(len(rows), dtype=bool)
    for _ in range(MAX_ITERATIONS):
        W_new, ok = _als_step(X, W, model)
        settled = np.abs(W_new - W).max(axis=1) < CONVERGENCE_TOL
        W = np.where(active[:, None], W_new, W)
        keep = ok | ~active
        active &= ~settled
        X, W, active, rows = _rows_where(keep, X, W, active, rows)
        if not active.any():
            break
    S, ok = _stack_scores(X, W, model)
    X, S, rows = _rows_where(ok & ~active, X, S, rows)

    loadings = np.empty((len(rows), X.shape[2]))
    for i, sl in enumerate(model.slices):
        lam = (X[:, :, sl].transpose(0, 2, 1) @ S[:, i, :, None])[:, :, 0] / (n - 1)
        flip = lam.sum(axis=1) < 0.0
        S[:, i] = np.where(flip[:, None], -S[:, i], S[:, i])
        loadings[:, sl] = np.where(flip[:, None], -lam, lam)

    coefficients = np.empty((len(rows), len(model.structural)))
    ok = np.ones(len(rows), dtype=bool)
    q = 0
    for i, preds in enumerate(model.pred):
        if not preds:
            continue
        T = np.stack([S[:, j] for j in preds], axis=-1)
        gram = T.transpose(0, 2, 1) @ T
        cond = np.linalg.cond(gram)
        regular = np.isfinite(cond) & (cond <= 1e12)
        gram[~regular] = np.eye(len(preds))
        rhs = T.transpose(0, 2, 1) @ S[:, i, :, None]
        coefficients[:, q:q + len(preds)] = np.linalg.solve(gram, rhs)[:, :, 0]
        ok &= regular
        q += len(preds)
    return rows[ok], coefficients[ok], loadings[ok]


def _als_step(X: np.ndarray, W: np.ndarray, model: _CompiledModel):
    """One pass of the `_fit_compiled` ALS loop body for every replicate:
    the new outer weights, and which replicates took the step cleanly."""
    n = X.shape[1]
    S, ok = _stack_scores(X, W, model)
    S_cols = np.ascontiguousarray(S.transpose(0, 2, 1))
    corr = S_cols.transpose(0, 2, 1) @ S_cols / (n - 1)
    W_new = np.empty_like(W)
    for i, sl in enumerate(model.slices):
        proxy, solved = _stack_inner_proxy(i, S, corr, model)
        u = (X[:, :, sl].transpose(0, 2, 1) @ proxy[:, :, None])[:, :, 0]
        W_new[:, sl], nonzero = _stack_canonical_weights(u)
        ok &= solved & nonzero
    return W_new, ok


def _stack_scores(X: np.ndarray, W: np.ndarray, model: _CompiledModel):
    """`_unit_score` of every block of every replicate (replicates x
    latents x n), and which replicates have no collapsed score."""
    S = np.stack([(X[:, :, sl] @ W[:, sl, None])[:, :, 0] for sl in model.slices], axis=1)
    sd = S.std(axis=2, ddof=1, keepdims=True)
    S -= S.mean(axis=2, keepdims=True)
    S /= sd
    return S, (sd != 0.0).all(axis=(1, 2))


def _rows_where(keep: np.ndarray, *arrays):
    """The rows of each array where keep is true."""
    return arrays if keep.all() else tuple(a[keep] for a in arrays)


def _stack_inner_proxy(i, S: np.ndarray, corr: np.ndarray, model: _CompiledModel):
    """`_inner_proxy` of latent i for every replicate, and which replicates
    had a nonsingular predecessor system."""
    solved = np.ones(S.shape[0], dtype=bool)
    if model.centroid:
        terms = [(j, np.where(corr[:, i, j] < 0.0, -1.0, 1.0)) for j in model.adjacent[i]]
    else:
        terms = []
        preds = model.pred[i]
        if preds:
            coef, solved = _stack_solve(corr[:, preds][:, :, preds], corr[:, preds, i])
            terms += zip(preds, coef.T)
        terms += [(j, corr[:, i, j]) for j in model.succ[i]]
    proxy = np.zeros(S.shape[::2])
    for j, w in terms:
        proxy += w[:, None] * S[:, j]
    return proxy, solved


def _stack_solve(A: np.ndarray, b: np.ndarray):
    """Solve A[k] x = b[k] for every k; a singular system gives NaN and
    False in the returned mask."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0], np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for k in range(len(A)):
            try:
                x[k] = np.linalg.solve(A[k], b[k])
            except np.linalg.LinAlgError:
                pass
        return x, ~np.isnan(x).any(axis=1)


def _stack_canonical_weights(u: np.ndarray):
    """`_canonical_weights` of every row, and which rows had a nonzero norm."""
    norm = np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0, 0])
    w = u / norm[:, None]
    total = w.sum(axis=1)
    flip = total < 0.0
    if (total == 0.0).any():
        first = w[np.arange(len(w)), np.argmax(w != 0.0, axis=1)]
        flip |= (total == 0.0) & (first < 0.0)
    return np.where(flip[:, None], -w, w), norm != 0.0


def fit_with_bootstrap(data, spec: PathModelSpec, samples: int = 500, seed: int = 0) -> PathEstimates:
    """fit_path_model plus bootstrap_significance in one call."""
    full = fit_path_model(data, spec)
    return full.with_bootstrap(bootstrap_significance(data, spec, samples=samples, seed=seed, full=full))


@dataclass(frozen=True)
class DesignMatrix:
    """Named observation matrix; interaction columns are exact elementwise
    products of their parent columns."""

    columns: tuple[str, ...]
    values: np.ndarray
    rows: tuple = ()

    def __post_init__(self):
        self.values.setflags(write=False)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


def build_cobb_douglas_design(panel, ict_var: str, health_vars) -> DesignMatrix:
    """Pooled log-log design: one log column for the infrastructure
    variable, one per outcome variable, and one interaction product per
    outcome. Observations are (dmu, period) rows in panel order; all
    referenced values must be strictly positive."""
    health_vars = tuple(health_vars)
    if not health_vars:
        raise UsageError("need at least one outcome variable")
    names = (ict_var,) + health_vars
    logs = {}
    rows = tuple((d, p) for d in panel.dmus for p in panel.periods)
    for name in names:
        col = panel.column(name)  # (dmu, period)
        flat = col.reshape(-1)
        bad = ~(np.isfinite(flat) & (flat > 0.0))
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            d, p = rows[i]
            raise DomainError(
                f"variable {name!r} is not strictly positive at dmu={d} period={p}; "
                "log transform undefined"
            )
        logs[name] = np.log(flat)

    columns = [f"ln_{ict_var}"]
    data = [logs[ict_var]]
    for h in health_vars:
        columns.append(f"ln_{h}")
        data.append(logs[h])
    for h in health_vars:
        columns.append(f"ln_{ict_var}*ln_{h}")
        data.append(logs[ict_var] * logs[h])
    return DesignMatrix(tuple(columns), np.column_stack(data), rows)


@dataclass(frozen=True)
class OlsFit:
    columns: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        self.coefficients.setflags(write=False)
        self.standard_errors.setflags(write=False)
        self.residuals.setflags(write=False)


def ols(design, target) -> OlsFit:
    """Least squares through a rank-revealing decomposition of the design.

    Accepts a DesignMatrix or plain matrix. Requires more rows than
    columns; rank deficiency raises CollinearityError naming the columns
    that are linear combinations of earlier ones. Standard errors are the
    usual residual-variance form."""
    if isinstance(design, DesignMatrix):
        X = np.asarray(design.values, float)
        columns = design.columns
    else:
        X = np.asarray(design, float)
        if X.ndim == 1:
            X = X[:, None]
        columns = tuple(f"x{j}" for j in range(X.shape[1]))
    y = np.asarray(target, float).reshape(-1)
    n, p = X.shape
    if y.size != n:
        raise UsageError(f"target has {y.size} rows, design has {n}")
    if n <= p:
        raise UsageError(f"need more rows ({n}) than columns ({p})")

    u, s, vt = np.linalg.svd(X, full_matrices=False)
    tol = s[0] * max(n, p) * np.finfo(float).eps if s.size else 0.0
    rank = int((s > tol).sum())
    if rank < p:
        raise CollinearityError(
            f"design is rank deficient (rank {rank} of {p}); dependent columns: "
            f"{', '.join(_dependent_columns(X, columns))}",
            columns=_dependent_columns(X, columns),
        )
    beta = vt.T @ ((u.T @ y) / s)
    resid = y - X @ beta
    sigma2 = float(resid @ resid) / (n - p)
    xtx_inv_diag = ((vt.T / s) ** 2).sum(axis=1)
    se = np.sqrt(sigma2 * xtx_inv_diag)
    return OlsFit(tuple(columns), beta, se, resid)


def _dependent_columns(X, columns) -> tuple[str, ...]:
    """Columns that are linear combinations of earlier ones (greedy scan)."""
    kept: list[int] = []
    dependent: list[str] = []
    for j in range(X.shape[1]):
        trial = X[:, kept + [j]]
        if np.linalg.matrix_rank(trial) > len(kept):
            kept.append(j)
        else:
            dependent.append(columns[j])
    return tuple(dependent)
