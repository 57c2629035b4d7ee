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
from functools import partial

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
    unconverged: int  # replicates kept with converged=False


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
    """Spec resolved against a concrete column order, reused by the
    full-sample fit and every bootstrap replicate."""

    def __init__(self, spec: PathModelSpec):
        self.spec = spec
        self.columns = spec.indicator_names
        self.names = spec.latent_names
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
        # the errors of the checks a fit makes, in the order it makes them
        # (see `_record`): standardizing, each ALS step, the final scores
        # and structural regressions
        self.column_errors = [
            partial(DegenerateColumnError, f"column {c!r} has zero variance", column=c) for c in self.columns
        ]
        collapsed = [partial(CollinearityError, f"latent {n!r} collapsed to a constant score") for n in self.names]
        self.step_errors = collapsed + [
            error
            for n in self.names
            for error in (partial(CollinearityError, f"predecessors of {n!r} are collinear"),
                          partial(CollinearityError, "outer weights collapsed to zero"))
        ]
        self.final_errors = collapsed + [
            partial(CollinearityError, f"structural regression on {list(names)} is singular", columns=names)
            for names in (tuple(self.names[j] for j in p) for p in self.pred if p)
        ]


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


def _prepare(data, spec: PathModelSpec):
    """The compiled spec and the raw data matrix that every fit starts
    from: at least three more rows than the largest structural equation has
    predictors, all of them finite."""
    model = _CompiledModel(spec)
    X_raw = _matrix_from_mapping(data, model.columns)
    largest = max(len(p) for p in model.pred)
    if X_raw.shape[0] < largest + 3:
        raise UsageError(
            f"need at least {largest + 3} observations for {largest} predictor(s), got {X_raw.shape[0]}"
        )
    if not np.all(np.isfinite(X_raw)):
        raise UsageError("standardize requires finite values")
    return model, X_raw


def fit_path_model(data, spec: PathModelSpec) -> PathEstimates:
    """Estimate a path model from a mapping of indicator name to 1-D array.

    Raw columns are standardized first, so rescaling any indicator leaves
    every coefficient unchanged. Requires at least three more observations
    than the largest structural equation's predictor count. Returns
    converged=False (rather than raising) when 300 iterations do not settle
    the outer weights; a constant indicator raises DegenerateColumnError,
    and a collapsed score, collinear predecessors, zero outer weights or a
    singular structural regression raise CollinearityError.
    """
    return _fit_sample(*_prepare(data, spec))


def _fit_sample(model: _CompiledModel, X_raw: np.ndarray) -> PathEstimates:
    """The fit to the whole sample: `_fit_stack` on a stack of one."""
    fit = _fit_stack(X_raw, np.arange(X_raw.shape[0])[None], model)
    if fit.errors:
        raise fit.errors[0]
    names = model.names
    return PathEstimates(
        path_coefficients={
            (names[j], names[i]): b for (j, i), b in zip(model.structural, fit.coefficients[0].tolist())
        },
        r_squared=dict(zip(model.spec.endogenous, fit.r_squared[0].tolist())),
        outer_loadings=dict(zip(model.columns, fit.loadings[0].tolist())),
        converged=bool(fit.converged[0]),
        iterations=int(fit.iterations[0]),
        inner_scheme=model.spec.inner_scheme,
    )


def bootstrap_significance(data, spec: PathModelSpec, samples: int = 500, seed: int = 0,
                           full: PathEstimates | None = None) -> BootstrapSummary:
    """Bootstrap standard errors and two-tailed p-values for every path.

    Rows are resampled with replacement; each replicate's random stream is
    derived from (seed, replicate index) so results do not depend on
    scheduling. A replicate whose fit raises (a zero-variance column, a
    collapsed score, collinear predecessors, zero outer weights or a
    singular structural regression) is redrawn from its own stream, up to
    10x the requested count in total; one that does not converge is kept
    as fitted. t statistics divide the full-sample coefficient by the
    resampling standard deviation and are referred to a Student-t
    distribution with n - 1 degrees of freedom. `full` is the model already
    fitted to the whole sample; without it the whole sample is fitted here.

    Replicates are fitted by `_fit_stack` in stacks of STACK_BYTES of
    resampled data, and a redrawn replicate as a stack of one.
    """
    if samples < MIN_BOOTSTRAP_SAMPLES:
        raise UsageError(f"bootstrap needs at least {MIN_BOOTSTRAP_SAMPLES} samples, got {samples}")
    model, X_raw = _prepare(data, spec)
    n = X_raw.shape[0]
    if full is None:
        full = _fit_sample(model, X_raw)

    paths = [(model.names[j], model.names[i]) for j, i in model.structural]
    draws = np.empty((len(paths), samples))
    redraws = unconverged = 0
    chunk = max(1, STACK_BYTES // X_raw.nbytes)
    for start in range(0, samples, chunk):
        rngs = [np.random.default_rng((seed, i)) for i in range(start, min(start + chunk, samples))]
        fit = _fit_stack(X_raw, np.stack([rng.integers(0, n, size=n) for rng in rngs]), model)
        coefficients = np.empty((len(rngs), len(paths)))
        loadings = np.empty((len(rngs), len(model.columns)))
        coefficients[fit.rows] = fit.coefficients
        loadings[fit.rows] = fit.loadings
        unconverged += int((~fit.converged).sum())
        for k in sorted(fit.errors):
            while True:
                redraws += 1
                if redraws > 10 * samples:
                    raise DegenerateColumnError(
                        f"more than {10 * samples} degenerate resamples; data is too discrete to bootstrap"
                    )
                one = _fit_stack(X_raw, rngs[k].integers(0, n, size=n)[None], model)
                if not one.errors:
                    break
            coefficients[k] = one.coefficients[0]
            loadings[k] = one.loadings[0]
            unconverged += int(not one.converged[0])
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
    return BootstrapSummary(std_error, t_statistic, p_value, samples, seed, redraws, unconverged)


def _sign(x: float) -> float:
    return -1.0 if x < 0.0 else 1.0


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


@dataclass(frozen=True)
class _StackFit:
    """`_fit_stack`'s result: one row per fitted replicate."""

    rows: np.ndarray  # positions in the stack
    coefficients: np.ndarray  # in `model.structural` order
    loadings: np.ndarray  # in column order
    r_squared: np.ndarray  # in `spec.endogenous` order
    iterations: np.ndarray
    converged: np.ndarray
    errors: dict  # position in the stack -> the error its fit raises


@np.errstate(divide="ignore", invalid="ignore")  # failed replicates may divide by zero
def _fit_stack(X_raw: np.ndarray, idx: np.ndarray, model: _CompiledModel) -> _StackFit:
    """Fit the path model to each resample X_raw[idx[k]] of a stack of
    replicates, with the arithmetic of fitting it alone: standardize, run
    ALS, orient each latent so its loading sum is nonnegative, and regress
    every endogenous score on its predecessors.

    Each ALS step updates only the replicates still iterating, so a
    replicate's weights stop at the step where they settle, or unconverged
    after MAX_ITERATIONS steps. A replicate is left out when its fit meets
    a zero-variance column, a collapsed score, a singular predecessor
    system, zero outer weights or a singular or ill-conditioned structural
    regression; `errors` holds the first of these it meets, in the order
    the fit makes its checks.
    """
    n = X_raw.shape[0]
    X = X_raw[idx]
    sd = X.std(axis=1, ddof=1, keepdims=True)
    X -= X.mean(axis=1, keepdims=True)
    X /= sd
    rows = np.arange(len(idx))
    errors: dict = {}
    failed = _record(errors, rows, sd[:, 0] != 0.0, model.column_errors)
    X, rows = _rows_where(~failed, X, rows)
    W = np.concatenate(
        [_stack_canonical_weights(np.ones((len(rows), sl.stop - sl.start)))[0] for sl in model.slices], axis=1
    )
    iterations = np.zeros(len(rows), dtype=int)
    active = np.ones(len(rows), dtype=bool)
    for _ in range(MAX_ITERATIONS):
        if not active.any():
            break
        W_new, passed = _als_step(X, W, model)
        failed = _record(errors, rows, passed, model.step_errors, checked=active)
        settled = np.abs(W_new - W).max(axis=1) < CONVERGENCE_TOL
        W = np.where(active[:, None], W_new, W)
        iterations += active
        active &= ~settled
        X, W, iterations, active, rows = _rows_where(~failed, X, W, iterations, active, rows)

    S, spread = _stack_scores(X, W, model)
    checks = [spread]
    loadings = np.empty((len(rows), X.shape[2]))
    for i, sl in enumerate(model.slices):
        lam = (X[:, :, sl].transpose(0, 2, 1) @ S[:, i, :, None])[:, :, 0] / (n - 1)
        flip = lam.sum(axis=1) < 0.0
        S[:, i] = np.where(flip[:, None], -S[:, i], S[:, i])
        loadings[:, sl] = np.where(flip[:, None], -lam, lam)

    endogenous = [(i, preds) for i, preds in enumerate(model.pred) if preds]
    coefficients = np.empty((len(rows), len(model.structural)))
    r_squared = np.empty((len(rows), len(endogenous)))
    q = 0
    for e, (i, preds) in enumerate(endogenous):
        T = np.stack([S[:, j] for j in preds], axis=-1)
        y = S[:, i, :, None]
        gram = T.transpose(0, 2, 1) @ T
        # guard against numerically repeated predecessor scores
        cond = np.linalg.cond(gram)
        regular = np.isfinite(cond) & (cond <= 1e12)
        gram[~regular] = np.eye(len(preds))
        beta = np.linalg.solve(gram, T.transpose(0, 2, 1) @ y)
        resid = y - T @ beta
        rss = (resid.transpose(0, 2, 1) @ resid)[:, 0, 0]
        tss = (y.transpose(0, 2, 1) @ y)[:, 0, 0]
        coefficients[:, q:q + len(preds)] = beta[:, :, 0]
        r_squared[:, e] = 1.0 - rss / tss
        q += len(preds)
        checks.append(regular[:, None])
    fitted = ~_record(errors, rows, np.concatenate(checks, axis=1), model.final_errors)
    return _StackFit(rows[fitted], coefficients[fitted], loadings[fitted], r_squared[fitted],
                     iterations[fitted], ~active[fitted], errors)


def _record(errors: dict, rows: np.ndarray, passed: np.ndarray, make_errors, checked=True) -> np.ndarray:
    """Note in errors, for each replicate of the stack where `checked`
    holds, the error of the first check it failed, keyed by its position
    rows[k]; return which replicates failed a check. passed holds one row
    per replicate and one column per check, in the order a lone fit makes
    them, and make_errors the callables that make their errors."""
    failed = checked & ~passed.all(axis=1)
    for k in np.flatnonzero(failed):
        errors[int(rows[k])] = make_errors[int(np.argmin(passed[k]))]()
    return failed


def _als_step(X: np.ndarray, W: np.ndarray, model: _CompiledModel):
    """One ALS pass for every replicate: the new outer weights, and which
    checks of the pass each replicate passed (see `_record`): a
    nonconstant score per latent, then per latent a nonsingular
    predecessor system and nonzero outer weights."""
    n = X.shape[1]
    S, spread = _stack_scores(X, W, model)
    checks = [spread]
    S_cols = np.ascontiguousarray(S.transpose(0, 2, 1))
    corr = S_cols.transpose(0, 2, 1) @ S_cols / (n - 1)
    W_new = np.empty_like(W)
    for i, sl in enumerate(model.slices):
        proxy, solved = _stack_inner_proxy(i, S, corr, model)
        u = (X[:, :, sl].transpose(0, 2, 1) @ proxy[:, :, None])[:, :, 0]
        W_new[:, sl], nonzero = _stack_canonical_weights(u)
        checks += [solved[:, None], nonzero[:, None]]
    return W_new, np.concatenate(checks, axis=1)


def _stack_scores(X: np.ndarray, W: np.ndarray, model: _CompiledModel):
    """The standardized latent scores of every replicate (replicates x
    latents x n), and which of them are not constant (replicates x
    latents)."""
    S = np.stack([(X[:, :, sl] @ W[:, sl, None])[:, :, 0] for sl in model.slices], axis=1)
    sd = S.std(axis=2, ddof=1, keepdims=True)
    S -= S.mean(axis=2, keepdims=True)
    S /= sd
    return S, sd[:, :, 0] != 0.0


def _rows_where(keep: np.ndarray, *arrays):
    """The rows of each array where keep is true."""
    return arrays if keep.all() else tuple(a[keep] for a in arrays)


def _stack_inner_proxy(i, S: np.ndarray, corr: np.ndarray, model: _CompiledModel):
    """The inner proxy of latent i for every replicate, and which
    replicates had a nonsingular predecessor system. Centroid weights are
    the signs of the correlations with adjacent latents; path weighting
    regresses on the predecessors and takes correlations with successors."""
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
    """Each row scaled to unit norm and signed so its sum is positive (or,
    summing to zero, its first nonzero entry is), and which rows had a
    nonzero norm."""
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
