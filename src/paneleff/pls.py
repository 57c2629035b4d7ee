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

The full-sample fit and the bootstrap share one kernel, `_fit_stack`,
which fits a stack of resamples at once (the full sample is a stack of
one) and gives each the result of fitting it alone, bit for bit. An ALS
step costs a fixed number of numpy calls per block size, term position and
predecessor count, whatever the number of blocks; `_fit_stack` states the
data layout and the rules that keep its arithmetic exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

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
        self._index_blocks()

    def _index_blocks(self):
        """The index arrays that let `_fit_stack` run each step once per
        block size, term position or predecessor count, not once per block.

        groups: the blocks of each indicator count (`_Group`), whose columns
        are consecutive in the stack's column order `order`; `inverse` maps
        that order back. initial_weights: the starting outer weights, in
        that order. padded: each block's columns in column order, padded
        with the index one past the last column (latents x largest block).
        positions: per term position q, the inner-weight columns of the
        q-th terms, the latents that have one and the latent each names. A
        latent's terms are its adjacent latents (centroid) or its
        predecessors, then its successors (path weighting), in the order
        the lone fit adds them. pairs: the (latent, term latent) of each
        inner-weight column. equations: the structural equations of each
        predecessor count (`_Equations`).
        """
        sizes = [sl.stop - sl.start for sl in self.slices]
        order: list = []
        initial = []
        self.groups = []
        for size in sorted(set(sizes)):
            latents = [i for i, s in enumerate(sizes) if s == size]
            start = len(order)
            for i in latents:
                order += range(self.slices[i].start, self.slices[i].stop)
            initial += [_stack_canonical_weights(np.ones(size))[0]] * len(latents)
            self.groups.append(_Group(_index(latents), slice(start, len(order)), len(latents), size))
        self.order = np.array(order)
        self.inverse = np.argsort(self.order)
        self.initial_weights = np.concatenate(initial)
        self.padded = np.array([[*range(sl.start, sl.stop)] + [len(order)] * (max(sizes) - s)
                                for sl, s in zip(self.slices, sizes)])

        terms = [self.adjacent[i] if self.centroid else self.pred[i] + self.succ[i]
                 for i in range(len(self.names))]
        column: dict = {}  # (latent, position) -> inner-weight column
        self.positions = []
        for q in range(max(map(len, terms))):
            latents = [i for i, t in enumerate(terms) if len(t) > q]
            start = len(column)
            for i in latents:
                column[i, q] = len(column)
            self.positions.append((slice(start, len(column)), _index(latents),
                                   np.array([terms[i][q] for i in latents])))
        self.pairs = np.array([(i, terms[i][q]) for i, q in column]).T

        endogenous = [i for i, p in enumerate(self.pred) if p]
        first = np.cumsum([0] + [len(self.pred[i]) for i in endogenous])
        self.equations = []
        for m in sorted({len(self.pred[i]) for i in endogenous}):
            rows = [e for e, i in enumerate(endogenous) if len(self.pred[i]) == m]
            latents = [endogenous[e] for e in rows]
            self.equations.append(_Equations(
                np.array(latents),
                _index(latents),
                np.array([self.pred[i] for i in latents]),
                np.array([[column[i, q] for q in range(m)] for i in latents]),
                np.array([range(first[e], first[e] + m) for e in rows]),
                np.array(rows),
            ))


class _Group(NamedTuple):
    """The blocks of one indicator count."""

    latents: slice | np.ndarray  # a slice when consecutive
    columns: slice  # in the stack's column order
    blocks: int
    size: int


class _Equations(NamedTuple):
    """The structural equations with one predecessor count."""

    latents: np.ndarray
    scores: slice | np.ndarray  # the latents, as a slice when consecutive
    preds: np.ndarray  # (equation, predecessor)
    terms: np.ndarray  # the predecessors' inner-weight columns (path weighting)
    coefficients: np.ndarray  # the coefficients' positions in `structural`
    rows: np.ndarray  # the latents' positions in `spec.endogenous`


def _index(positions: list):
    """positions as a slice when they are consecutive, else as an array."""
    if positions == list(range(positions[0], positions[-1] + 1)):
        return slice(positions[0], positions[-1] + 1)
    return np.array(positions)


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
    full_loadings = np.array([full.outer_loadings[c] for c in model.columns])
    tails, heads = np.array(model.structural).T
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
        flip = _sign_alignment(full_loadings, loadings, model)
        draws[:, start:start + len(rngs)] = (coefficients * flip[:, tails] * flip[:, heads]).T

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


def _sign_alignment(full_loadings: np.ndarray, loadings: np.ndarray, model: _CompiledModel) -> np.ndarray:
    """Per-replicate, per-latent sign (replicates x latents) that aligns
    each replicate's orientation with the full-sample solution: the sign
    of the dot product of the two loading vectors of each block, summed
    in indicator order. Both loadings are in column order, one replicate
    per row of `loadings`."""
    products = np.zeros((len(loadings), loadings.shape[1] + 1))  # the last column pads short blocks
    np.multiply(full_loadings, loadings, out=products[:, :-1])
    return np.where(np.cumsum(products[:, model.padded], axis=2)[:, :, -1] < 0.0, -1.0, 1.0)


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

    Each step runs once per block size, inner-proxy term position or
    predecessor count (see `_CompiledModel._index_blocks`), never once per
    block, and stays bit-identical to the lone fit of tests/oracles.py:
    - The resampled data is (row, replicate, column), rows outermost, with
      the columns of equal-sized blocks consecutive, so one block size is
      one strided view. Column sums then run row by row, as `standardize`
      sums one sample; the mean is formed once.
    - Latent scores are (replicate, latent, row), rows contiguous, so each
      score sums pairwise, as a 1-D score does.
    - Every product is one batched matmul whose items have the lone fit's
      shapes and strides, so numpy sends each to the same BLAS routine
      (dot, gemv or syrk); over an inner dimension of one, `_matmul` forms
      numpy's 0 + a b. LAPACK solves and conditions each system alone.
    - Inner proxies add their terms in the lone fit's order, from zero.

    Each ALS step updates only the replicates still iterating, so a
    replicate's weights stop at the step where they settle, or unconverged
    after MAX_ITERATIONS steps. A replicate is left out when its fit meets
    a zero-variance column, a collapsed score, a singular predecessor
    system, zero outer weights or a singular or ill-conditioned structural
    regression; `errors` holds the first of these it meets, in the order
    the fit makes its checks.
    """
    n = X_raw.shape[0]
    X = X_raw[:, model.order].take(idx.T, axis=0)
    X -= X.sum(axis=0) / n
    sd = np.sqrt((X * X).sum(axis=0) / (n - 1))
    X /= sd
    rows = np.arange(len(idx))
    errors: dict = {}
    failed = _record(errors, rows, (sd != 0.0)[:, model.inverse], model.column_errors)
    X, rows = _replicates_where(~failed, X, rows)
    W = np.broadcast_to(model.initial_weights, (len(rows), X.shape[2]))
    iterations = np.zeros(len(rows), dtype=int)
    active = np.ones(len(rows), dtype=bool)
    scored = None  # the weights of the scores S
    for _ in range(MAX_ITERATIONS):
        if not active.any():
            break
        S, spread = _stack_scores(X, W, model)
        W_new, passed = _als_step(X, S, spread, model)
        failed = _record(errors, rows, passed, model.step_errors, checked=active)
        settled = np.abs(W_new - W).max(axis=1) < CONVERGENCE_TOL
        scored, W = W, np.where(active[:, None], W_new, W)
        iterations += active
        active &= ~settled
        X, W, scored, S, spread, iterations, active, rows = _replicates_where(
            ~failed, X, W, scored, S, spread, iterations, active, rows)

    if not np.array_equal(scored, W):
        S, spread = _stack_scores(X, W, model)
    loadings = np.empty(W.shape)
    for group in model.groups:
        lam = _block_products(X, S[:, group.latents], group) / (n - 1)
        sign = np.where(lam.sum(axis=2) < 0.0, -1.0, 1.0)[:, :, None]
        S[:, group.latents] *= sign
        loadings[:, group.columns] = (lam * sign).reshape(len(W), group.blocks * group.size)
    del X  # the regressions need only the scores: free the data before they allocate

    coefficients = np.empty((len(rows), len(model.structural)))
    r_squared = np.empty((len(rows), len(model.spec.endogenous)))
    regular = np.empty(r_squared.shape, dtype=bool)
    for equations in model.equations:
        # (replicate, equation, row, predecessor)
        T = np.ascontiguousarray(S[:, equations.preds].swapaxes(2, 3))
        y = S[:, equations.scores, :, None]
        gram = T.swapaxes(2, 3) @ T
        # guard against numerically repeated predecessor scores
        cond = np.linalg.cond(gram)
        ok = np.isfinite(cond) & (cond <= 1e12)
        gram[~ok] = np.eye(T.shape[3])
        beta = np.linalg.solve(gram, T.swapaxes(2, 3) @ y)
        resid = _matmul(T, beta)
        np.subtract(y, resid, out=resid)
        rss = (resid.swapaxes(2, 3) @ resid)[:, :, 0, 0]
        tss = (y.swapaxes(2, 3) @ y)[:, :, 0, 0]
        coefficients[:, equations.coefficients] = beta[:, :, :, 0]
        r_squared[:, equations.rows] = 1.0 - rss / tss
        regular[:, equations.rows] = ok
    fitted = ~_record(errors, rows, np.concatenate([spread, regular], axis=1), model.final_errors)
    return _StackFit(rows[fitted], coefficients[fitted], loadings[fitted][:, model.inverse], r_squared[fitted],
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


def _replicates_where(keep: np.ndarray, X: np.ndarray, *arrays):
    """The replicates (axis 1) of the data X and the rows of each array
    where keep is true."""
    return (X, *arrays) if keep.all() else (X[:, keep], *(a[keep] for a in arrays))


def _als_step(X: np.ndarray, S: np.ndarray, spread: np.ndarray, model: _CompiledModel):
    """One ALS pass for every replicate from its scores S and their
    spread (see `_stack_scores`): the new outer weights, and which checks
    of the pass each replicate passed (see `_record`): a nonconstant score
    per latent, then per latent a nonsingular predecessor system and
    nonzero outer weights."""
    weights, solved = _inner_weights(_correlations(S), model)
    (columns, _, terms), *later = model.positions
    proxy = S.take(terms, axis=1)  # every latent has a first term
    proxy *= weights[:, columns, None]
    proxy += 0.0  # the lone fit adds its first term to zeros
    for columns, latents, terms in later:
        proxy[:, latents] += S.take(terms, axis=1) * weights[:, columns, None]
    W_new = np.empty((len(S), X.shape[2]))
    nonzero = np.empty(spread.shape, dtype=bool)
    for group in model.groups:
        w, nonzero[:, group.latents] = _stack_canonical_weights(_block_products(X, proxy[:, group.latents], group))
        W_new[:, group.columns] = w.reshape(len(S), group.blocks * group.size)
    return W_new, np.concatenate([spread, np.stack([solved, nonzero], axis=2).reshape(len(S), -1)], axis=1)


def _correlations(S: np.ndarray) -> np.ndarray:
    """The latent correlation matrix of every replicate from its scores S
    (replicate, latent, row), formed as the lone fit forms it: S'S / (n - 1)
    with S a (row, latent) matrix."""
    S_cols = np.ascontiguousarray(S.transpose(0, 2, 1))
    return S_cols.transpose(0, 2, 1) @ S_cols / (S.shape[2] - 1)


def _blocks(X: np.ndarray, group: _Group) -> np.ndarray:
    """The blocks of one group as a (replicate, block, row, indicator) view."""
    return X[:, :, group.columns].reshape(X.shape[0], X.shape[1], group.blocks, group.size).transpose(1, 2, 0, 3)


def _block_products(X: np.ndarray, V: np.ndarray, group: _Group) -> np.ndarray:
    """X_b' v for each block b of one group and its row vector v in V
    (replicate, block, row): (replicate, block, indicator)."""
    return (_blocks(X, group).swapaxes(2, 3) @ V[:, :, :, None])[:, :, :, 0]


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B. Over an inner dimension of one, numpy's matmul skips BLAS and
    forms 0 + a b for each entry, which one elementwise product and sum
    form faster."""
    if A.shape[-1] != 1:
        return A @ B
    product = np.multiply(A, B, order="C")
    product += 0.0
    return product


def _stack_scores(X: np.ndarray, W: np.ndarray, model: _CompiledModel):
    """The standardized latent scores of every replicate (replicates x
    latents x n), and which of them are not constant (replicates x
    latents)."""
    n = X.shape[0]
    S = np.empty((len(W), len(model.names), n))
    for group in model.groups:
        weights = W[:, group.columns].reshape(len(W), group.blocks, group.size, 1)
        S[:, group.latents] = _matmul(_blocks(X, group), weights)[:, :, :, 0]
    S -= S.sum(axis=2, keepdims=True) / n
    sd = np.sqrt((S * S).sum(axis=2, keepdims=True) / (n - 1))
    S /= sd
    return S, sd[:, :, 0] != 0.0


def _inner_weights(corr: np.ndarray, model: _CompiledModel):
    """The weight of every inner-proxy term (replicates x terms, columns as
    in `model.positions`), and which replicates had a nonsingular
    predecessor system for each latent. Centroid weights are the signs of
    the correlations with adjacent latents; path weighting regresses on
    the predecessors and takes correlations with successors."""
    i, j = model.pairs
    weights = corr[:, i, j]
    solved = np.ones((len(corr), corr.shape[1]), dtype=bool)
    if model.centroid:
        return np.where(weights < 0.0, -1.0, 1.0), solved
    for equations in model.equations:
        preds, latents = equations.preds, equations.latents
        weights[:, equations.terms], solved[:, latents] = _stack_solve(
            corr[:, preds[:, :, None], preds[:, None, :]], corr[:, preds, latents[:, None]])
    return weights, solved


def _stack_solve(A: np.ndarray, b: np.ndarray):
    """Solve A[k] x = b[k] for every leading index k; a singular system
    gives NaN and False in the returned mask."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], np.ones(b.shape[:-1], dtype=bool)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for k in np.ndindex(b.shape[:-1]):
            try:
                x[k] = np.linalg.solve(A[k], b[k])
            except np.linalg.LinAlgError:
                pass
        return x, ~np.isnan(x).any(axis=-1)


def _stack_canonical_weights(u: np.ndarray):
    """Each vector along the last axis scaled to unit norm and signed so
    its sum is positive (or, summing to zero, its first nonzero entry is),
    and which vectors had a nonzero norm."""
    norm = np.sqrt((u[..., None, :] @ u[..., None])[..., 0, 0])
    w = u / norm[..., None]
    total = w.sum(axis=-1)
    flip = total < 0.0
    if (total == 0.0).any():
        first = np.take_along_axis(w, np.argmax(w != 0.0, axis=-1)[..., None], axis=-1)[..., 0]
        flip |= (total == 0.0) & (first < 0.0)
    return np.where(flip[..., None], -w, w), norm != 0.0


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
