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

Every step of the iteration reads the standardized indicators only through
their correlation matrix R, so the fit runs on p x p moments and never on
the rows (Lohmöller, "Latent Variable Path Modeling with Partial Least
Squares", 1989; Rönkkö, "matrixpls: Matrix-based Partial Least Squares
Estimation"). With w_a latent a's outer weights scaled to give its score
unit variance, latent correlations are w_a' R_ab w_b, the mode-A update of
block a is sum_b e_ab R_ab w_b for inner weights e, loadings are
R_aa w_a, and a structural regression's R-squared is beta' C_Pi from the
latent correlations C.

The full-sample fit and the bootstrap share one kernel, `_fit_stack`,
which fits a stack of correlation matrices at once; the full sample is a
stack of one. The fit keeps its `_Sample` of the rows, which the bootstrap
resamples. A bootstrap replicate counts how often it draws each row, so
one product of a block of replicates' row counts with the rows' centred
first and pairwise products gives every replicate's R (`_Sample`). Every
replicate's first draw is a row of one generator's draws from the seed,
the nonparametric bootstrap of Efron & Tibshirani ("An Introduction to
the Bootstrap", 1993), and path models fitted to the same rows with the
same seed share them (`resample_counts`). A replicate drawn again draws
from a stream of its own, keyed by the seed and its index. The streams are
the standard library's MT19937 (`random.Random`), whose 32-bit words map
to rows by Lemire's multiply-and-reject rule (`_draw_rows`).
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import NamedTuple

import numpy as np

from .config import (  # noqa: F401 (LatentBlock re-exported)
    MAX_BOOTSTRAP_SAMPLES,
    MIN_BOOTSTRAP_SAMPLES,
    LatentBlock,
    PathModelSpec,
)
from .distributions import t_two_tailed_p
from .errors import (
    CollinearityError,
    DegenerateColumnError,
    DomainError,
    UsageError,
)

CONVERGENCE_TOL = 1e-7
MAX_ITERATIONS = 300
# bootstrap replicates whose row counts are formed at once: a (replicates x
# rows) count block stays small whatever the sample count
REPLICATE_BLOCK = 64


class BootstrapSummary(NamedTuple):
    """Resampling-based significance for every structural path."""

    std_error: dict
    t_statistic: dict
    p_value: dict
    samples: int
    seed: int
    redraws: int  # degenerate resamples that were drawn again
    unconverged: int  # replicates kept with converged=False


class PathEstimates(NamedTuple):
    """Fitted path model: standardized path coefficients, R-squared per
    endogenous latent and outer loadings per indicator. `fitted` holds the
    compiled spec and the `_Sample` of the rows that `fit_path_model`
    fitted, which `bootstrap_significance` resamples."""

    path_coefficients: dict
    r_squared: dict
    outer_loadings: dict
    converged: bool
    iterations: int
    inner_scheme: str
    fitted: tuple[_CompiledModel, _Sample] | None = None

    def __eq__(self, other):  # `fitted` is left out of equality
        return isinstance(other, PathEstimates) and self[:-1] == other[:-1]

    __ne__ = object.__ne__  # the negation of __eq__, not the tuple's


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
        self.sizes = np.array([len(b.indicators) for b in spec.blocks])
        ends = np.cumsum(self.sizes).tolist()
        self.slices = [slice(end - size, end) for end, size in zip(ends, self.sizes.tolist())]
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
        """The index arrays of `_fit_stack`. block: each column's latent;
        member: (column, latent) membership; padded: each block's columns,
        padded with the index one past the last column, and unpad each
        column's position in a flattened padded row. terms: the (latent,
        latent) inner-proxy terms that take a correlation (path weighting:
        successors) or its sign (centroid: adjacent latents). regressed:
        the latents with predecessors, in `spec.endogenous` order, and
        equations their regressions by predecessor count."""
        p = len(self.columns)
        self.block = np.repeat(np.arange(len(self.names)), self.sizes)
        self.member = np.zeros((p, len(self.names)))
        self.member[np.arange(p), self.block] = 1.0
        self.initial_weights = (1.0 / np.sqrt(self.sizes))[self.block]
        self.padded = np.array([[*range(sl.start, sl.stop)] + [p] * (self.sizes.max() - s)
                                for sl, s in zip(self.slices, self.sizes)])
        self.unpad = np.flatnonzero(self.padded.reshape(-1) < p)

        self.terms = np.zeros((len(self.names), len(self.names)))
        for i, latents in enumerate(self.adjacent if self.centroid else self.succ):
            self.terms[i, latents] = 1.0
        self.tails, self.heads = np.array(self.structural).T
        self.regressed = np.array([i for i, p in enumerate(self.pred) if p])
        first = np.cumsum([0] + [len(self.pred[i]) for i in self.regressed])
        self.equations = []
        for m in sorted({len(self.pred[i]) for i in self.regressed}):
            rows = [e for e, i in enumerate(self.regressed) if len(self.pred[i]) == m]
            latents = self.regressed[rows]
            self.equations.append(_Equations(
                latents,
                np.array([self.pred[i] for i in latents]),
                np.array([range(first[e], first[e] + m) for e in rows]),
                np.array(rows),
            ))


class _Equations(NamedTuple):
    """The structural equations with one predecessor count."""

    latents: np.ndarray
    preds: np.ndarray  # (equation, predecessor)
    coefficients: np.ndarray  # the coefficients' positions in `structural`
    rows: np.ndarray  # the latents' positions in `spec.endogenous`


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


class _Sample:
    """The rows every fit reads its moments from.

    products: each row's columns centred on their full-sample means, then
    their pairwise products (row x (p + p * p)), so that one product with
    a (replicate x row) count matrix gives every replicate's first and
    second moments; centring once keeps E[x^2] - E[x]^2 from cancelling.
    probes: each column's value-class index and its square, whose
    count-weighted sums are integers, so they tell exactly whether a
    replicate drew one class only. They stay exact in float64 while below
    2**53 and in int64 up to 2**63 (about two million rows).
    """

    def __init__(self, X_raw: np.ndarray):
        self.n, self.p = X_raw.shape
        X = X_raw - X_raw.mean(axis=0)
        self.products = np.concatenate([X, (X[:, :, None] * X[:, None, :]).reshape(self.n, -1)], axis=1)
        classes = np.stack([np.unique(column, return_inverse=True)[1] for column in X_raw.T], axis=1)
        exact = float if self.n * int(classes.max()) ** 2 < 2 ** 53 else np.int64
        self.probes = np.concatenate([classes, classes * classes], axis=1).astype(exact)

    @np.errstate(divide="ignore", invalid="ignore")  # constant columns divide by zero
    def correlations(self, counts: np.ndarray):
        """Each replicate's indicator correlation matrix (replicate x p x
        p) from its row counts (replicate x row, each row summing to n),
        and which of its columns are constant (replicate x p): all the
        rows it draws in one value class, so that each probe's sum is n
        times the probe of one drawn row."""
        n, p = self.n, self.p
        weights = counts.astype(float)
        moments = weights @ self.products / n
        mean = moments[:, :p]
        cov = moments[:, p:].reshape(-1, p, p) - mean[:, :, None] * mean[:, None, :]
        sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        R = cov / sd[:, :, None] / sd[:, None, :]
        sums = (weights if self.probes.dtype == float else counts) @ self.probes
        same = sums == n * self.probes[np.argmax(counts > 0, axis=1)]
        return R, same[:, :p] & same[:, p:]


def _counts(draws: np.ndarray) -> np.ndarray:
    """How often each replicate (row of draws) draws each of the n rows."""
    k, n = draws.shape
    return np.bincount((draws + n * np.arange(k)[:, None]).ravel(), minlength=k * n).reshape(k, n)


def _check_resampling(samples: int, seed: int) -> None:
    if samples < MIN_BOOTSTRAP_SAMPLES:
        raise UsageError(f"bootstrap needs at least {MIN_BOOTSTRAP_SAMPLES} samples, got {samples}")
    if samples > MAX_BOOTSTRAP_SAMPLES:
        raise UsageError(f"bootstrap takes at most {MAX_BOOTSTRAP_SAMPLES} samples, got {samples}")
    if seed < 0:
        raise UsageError(f"bootstrap seed must be non-negative, got {seed}")


def _draw_rows(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The next count rows of rng's stream, each uniform on range(n) for
    0 < n <= 2**32. A 32-bit word w of the stream draws row (w * n) >> 32,
    unless (w * n) mod 2**32 < 2**32 mod n, when the next word replaces it
    (Lemire, "Fast random integer generation in an interval", ACM TOMACS
    29(1), 2019; R's `sample()` since 3.6). The words are drawn in bulk:
    `getrandbits(32 * m)`, read as little-endian uint32, is the words of m
    `getrandbits(32)` calls in turn."""
    reject = (1 << 32) % n
    rows = []
    while count:
        words = np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")
        products = np.multiply(words, np.uint64(n), dtype=np.uint64)
        if reject:
            products = products[products.astype(np.uint32) >= reject]
        rows.append((products >> 32).view(np.int64))  # rows < 2**32: the same values
        count -= len(products)
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def resample_counts(n: int, samples: int, seed: int) -> np.ndarray:
    """The (samples, n) row counts of each bootstrap replicate's first
    draw: for a non-negative seed, replicate i draws the i-th n rows that
    `_draw_rows` draws from `random.Random(seed)`, so a replicate's draw
    does not depend on `samples`. The rows are drawn REPLICATE_BLOCK
    replicates at a time from the one stream, each block's counts in the
    narrowest unsigned dtype that holds its largest count; the result is
    read-only. Path models fitted to the same n rows with the same seed
    share them (see `bootstrap_significance`)."""
    _check_resampling(samples, seed)
    rng = random.Random(seed)
    blocks = []
    for k in range(0, samples, REPLICATE_BLOCK):
        m = min(REPLICATE_BLOCK, samples - k)
        counts = _counts(_draw_rows(rng, n, m * n).reshape(m, n))
        blocks.append(counts.astype(np.min_scalar_type(int(counts.max()))))
    counts = np.concatenate(blocks)
    counts.setflags(write=False)
    return counts


def _redraw_stream(seed: int, replicate: int) -> random.Random:
    """A replicate's stream for redraws, keyed by the seed and its index.
    `random.Random` seeds from a str's bytes and their sha512 (the
    interpreter's own), so the stream is neither the first draws'
    `random.Random(seed)` nor another replicate's."""
    return random.Random(f"{seed}:{replicate}")


def _fit_counts(sample: _Sample, counts: np.ndarray, model: _CompiledModel) -> _StackFit:
    """`_fit_stack` on the replicates of a (replicate x row) count matrix,
    whose moments are formed REPLICATE_BLOCK replicates at a time."""
    blocks = [sample.correlations(counts[k:k + REPLICATE_BLOCK]) for k in range(0, len(counts), REPLICATE_BLOCK)]
    R, constant = np.concatenate([R for R, _ in blocks]), np.concatenate([c for _, c in blocks])
    del blocks  # the fit needs only the joined arrays
    return _fit_stack(R, constant, model, sample.n)


def fit_path_model(data, spec: PathModelSpec) -> PathEstimates:
    """Estimate a path model from a mapping of indicator name to 1-D array.

    Raw columns are standardized first, so rescaling any indicator leaves
    every coefficient unchanged. Requires at least three more observations
    than the largest structural equation's predictor count, all of them
    finite. Returns converged=False (rather than raising) when 300
    iterations do not settle the outer weights; a constant indicator raises
    DegenerateColumnError, and a collapsed score, collinear predecessors,
    zero outer weights or a singular structural regression raise
    CollinearityError. The whole sample is fitted by `_fit_stack` as a
    stack of one, every row counted once.
    """
    model = _CompiledModel(spec)
    X_raw = _matrix_from_mapping(data, model.columns)
    largest = max(len(p) for p in model.pred)
    if X_raw.shape[0] < largest + 3:
        raise UsageError(
            f"need at least {largest + 3} observations for {largest} predictor(s), got {X_raw.shape[0]}"
        )
    if not np.all(np.isfinite(X_raw)):
        raise UsageError("standardize requires finite values")
    sample = _Sample(X_raw)
    fit = _fit_stack(*sample.correlations(np.ones((1, sample.n), dtype=np.int64)), model, sample.n)
    if fit.errors:
        raise fit.errors[0]
    names = model.names
    return PathEstimates(
        path_coefficients={
            (names[j], names[i]): b for (j, i), b in zip(model.structural, fit.coefficients[0].tolist())
        },
        r_squared=dict(zip(spec.endogenous, fit.r_squared[0].tolist())),
        outer_loadings=dict(zip(model.columns, fit.loadings[0].tolist())),
        converged=bool(fit.converged[0]),
        iterations=int(fit.iterations[0]),
        inner_scheme=spec.inner_scheme,
        fitted=(model, sample),
    )


def bootstrap_significance(full: PathEstimates, samples: int = 500, seed: int = 0,
                           counts: np.ndarray | None = None) -> BootstrapSummary:
    """Bootstrap standard errors and two-tailed p-values for every path of
    `full`, a model fitted by `fit_path_model`, from resamples of the rows
    it was fitted to.

    Rows are resampled with replacement; replicate i first draws the i-th
    n rows of the stream `random.Random(seed)` (`resample_counts`). A
    replicate whose fit raises (a zero-variance column, a collapsed score,
    collinear predecessors, zero outer weights or a singular structural
    regression) is redrawn from a stream of its own, keyed by the seed and
    its index (`_redraw_stream`), so its redraws do not depend on which
    other replicates fail; in total up to 10x the requested count. One
    that does not converge is kept as fitted. t statistics divide the
    full-sample coefficient by the resampling standard deviation and are
    referred to a Student-t distribution with n - 1 degrees of freedom.
    `counts` are the replicates' first draws as `resample_counts(n,
    samples, seed)` returns them, so that models fitted to the same rows
    draw them once; without them they are drawn here.

    Every replicate is fitted by one `_fit_stack` call, and each round of
    redraws by one more.
    """
    _check_resampling(samples, seed)
    if full.fitted is None:
        raise UsageError("bootstrap needs estimates returned by fit_path_model")
    model, sample = full.fitted
    n = sample.n
    if counts is None:
        counts = resample_counts(n, samples, seed)
    elif counts.shape != (samples, n):
        raise UsageError(f"bootstrap counts have shape {counts.shape}, expected {(samples, n)}")

    paths = [(model.names[j], model.names[i]) for j, i in model.structural]
    coefficients = np.empty((samples, len(paths)))
    loadings = np.empty((samples, len(model.columns)))
    fit = _fit_counts(sample, counts, model)
    replicates = np.arange(samples)
    redraws = unconverged = 0
    streams: dict = {}
    while True:
        coefficients[replicates[fit.rows]] = fit.coefficients
        loadings[replicates[fit.rows]] = fit.loadings
        unconverged += int((~fit.converged).sum())
        if not fit.errors:
            break
        replicates = replicates[sorted(fit.errors)]
        redraws += len(replicates)
        if redraws > 10 * samples:
            raise DegenerateColumnError(
                f"more than {10 * samples} degenerate resamples; data is too discrete to bootstrap"
            )
        streams.update((k, _redraw_stream(seed, k)) for k in replicates.tolist() if k not in streams)
        again = np.stack([_draw_rows(streams[k], n, n) for k in replicates.tolist()])
        fit = _fit_counts(sample, _counts(again), model)

    flip = _sign_alignment(np.array([full.outer_loadings[c] for c in model.columns]), loadings, model)
    draws = (coefficients * flip[:, model.tails] * flip[:, model.heads]).T
    std_error = {}
    t_statistic = {}
    p_value = {}
    for q, p in enumerate(paths):
        se = float(draws[q].std(ddof=1))
        beta = full.path_coefficients[p]
        if se == 0.0:
            t = 0.0 if beta == 0.0 else math.copysign(math.inf, beta)
        else:
            t = beta / se
        std_error[p] = se
        t_statistic[p] = float(t)
        p_value[p] = float(t_two_tailed_p(t, n - 1))
    return BootstrapSummary(std_error, t_statistic, p_value, samples, seed, redraws, unconverged)


def _padded(a: np.ndarray, model: _CompiledModel) -> np.ndarray:
    """Rows of a (replicate x column) array by block: (replicate, latent,
    indicator), short blocks padded with zeros."""
    return np.concatenate([a, np.zeros((len(a), 1))], axis=1)[:, model.padded]


def _block_sums(a: np.ndarray, model: _CompiledModel) -> np.ndarray:
    """Each block's sum of a (replicate x column) array, added in indicator
    order: (replicate, latent)."""
    return np.cumsum(_padded(a, model), axis=2)[:, :, -1]


def _sign_alignment(full_loadings: np.ndarray, loadings: np.ndarray, model: _CompiledModel) -> np.ndarray:
    """Per-replicate, per-latent sign (replicates x latents) that aligns
    each replicate's orientation with the full-sample solution: the sign
    of the dot product of the two loading vectors of each block, summed
    in indicator order. Both loadings are in column order, one replicate
    per row of `loadings`."""
    return np.where(_block_sums(full_loadings * loadings, model) < 0.0, -1.0, 1.0)


class _StackFit(NamedTuple):
    """`_fit_stack`'s result: one row per fitted replicate."""

    rows: np.ndarray  # positions in the stack
    coefficients: np.ndarray  # in `model.structural` order
    loadings: np.ndarray  # in column order
    r_squared: np.ndarray  # in `spec.endogenous` order
    iterations: np.ndarray
    converged: np.ndarray
    errors: dict  # position in the stack -> the error its fit raises


@np.errstate(divide="ignore", invalid="ignore")  # failed replicates may divide by zero
def _fit_stack(R: np.ndarray, constant: np.ndarray, model: _CompiledModel, n: int) -> _StackFit:
    """Fit the path model to each replicate of a stack from its indicator
    correlation matrix R and constant-column flags (`_Sample.correlations`)
    with n rows: run ALS, orient each latent so its loading sum is
    nonnegative, and regress every endogenous latent on its predecessors.

    Each ALS step updates only the replicates still iterating, so a
    replicate's weights stop at the step where they settle, or unconverged
    after MAX_ITERATIONS steps. A replicate is left out when its fit meets
    a constant column, a collapsed score, an ill-conditioned predecessor
    system, zero outer weights or an ill-conditioned structural regression;
    `errors` holds the first of these it meets, in the order the fit makes
    its checks. A column whose moments leave it no positive variance, which
    rounding can do to a nearly constant one, counts as constant.

    A score collapses when its variance w' R_bb w, for unit outer weights
    w on the block's unit-variance indicators, is at most n * size * eps:
    each entry of R sums n terms, so carries a rounding error of up to
    about n * eps, and w' R_bb w adds size^2 entries with weights whose
    absolute values sum to at most size. A smaller variance cannot be told
    from zero.
    """
    p = len(model.columns)
    rows = np.arange(len(R))
    errors: dict = {}
    variances = np.diagonal(R, axis1=1, axis2=2)
    fitted = ~_record(errors, rows, ~constant & np.isfinite(variances), model.column_errors)
    bound = n * model.sizes * np.finfo(float).eps
    W = np.tile(model.initial_weights, (len(R), 1))
    iterations = np.zeros(len(R), dtype=int)
    active = rows[fitted]
    for _ in range(MAX_ITERATIONS):
        if not active.size:
            break
        W_new, passed = _als_step(R if active.size == len(R) else R[active], W[active], model, bound)
        failed = _record(errors, active, passed, model.step_errors)
        settled = np.abs(W_new - W[active]).max(axis=1) < CONVERGENCE_TOL
        W[active] = W_new
        iterations[active] += 1
        fitted[active[failed]] = False
        active = active[~failed & ~settled]
    converged = np.ones(len(R), dtype=bool)
    converged[active] = False

    rows = rows[fitted]
    RW, C, spread = _latent_moments(R[rows], W[rows], model, bound)
    lam = RW[:, np.arange(p), model.block]
    sign = np.where(_block_sums(lam, model) < 0.0, -1.0, 1.0)
    C *= sign[:, :, None] * sign[:, None, :]
    coefficients, r_squared, regular = _regressions(C, model)
    ok = ~_record(errors, rows, np.concatenate([spread, regular], axis=1), model.final_errors)
    return _StackFit(rows[ok], coefficients[ok], (lam * sign[:, model.block])[ok], r_squared[ok],
                     iterations[rows[ok]], converged[rows[ok]], errors)


def _record(errors: dict, rows: np.ndarray, passed: np.ndarray, make_errors) -> np.ndarray:
    """Note in errors, for each replicate of the stack that failed a
    check, the error of the first check it failed, keyed by its position
    rows[k]; return which replicates failed. passed holds one row per
    replicate and one column per check, in the order a lone fit makes
    them, and make_errors the callables that make their errors."""
    failed = ~passed.all(axis=1)
    for k in np.flatnonzero(failed):
        errors[int(rows[k])] = make_errors[int(np.argmin(passed[k]))]()
    return failed


def _latent_moments(R: np.ndarray, W: np.ndarray, model: _CompiledModel, bound: np.ndarray):
    """For outer weights W (replicate x column): R Ŵ (replicate x column x
    latent), the latent correlations Ŵ' R Ŵ and which scores do not
    collapse (replicate x latent, see `_fit_stack`), where column a of Ŵ
    holds latent a's weights in its block's rows, scaled to give its score
    unit variance."""
    Wm = W[:, :, None] * model.member
    RWm = R @ Wm
    variance = (Wm * RWm).sum(axis=1)
    spread = variance > bound
    scale = 1.0 / np.sqrt(np.where(spread, variance, 1.0))
    RW = RWm * scale[:, None, :]
    return RW, Wm.transpose(0, 2, 1) @ RW * scale[:, :, None], spread


def _als_step(R: np.ndarray, W: np.ndarray, model: _CompiledModel, bound: np.ndarray):
    """One ALS pass for every replicate: the new outer weights, and which
    checks of the pass each replicate passed (see `_record`): a
    nonconstant score per latent, then per latent a well-conditioned
    predecessor system and nonzero outer weights. Block a's mode-A update
    is (R Ŵ E')[a's rows, a] for the inner weights E."""
    RW, C, spread = _latent_moments(R, W, model, bound)
    E, solved = _inner_weights(C, model)
    u = (RW @ E.transpose(0, 2, 1))[:, np.arange(W.shape[1]), model.block]
    w, nonzero = _stack_canonical_weights(_padded(u, model))
    W_new = w.reshape(len(W), -1)[:, model.unpad]
    return W_new, np.concatenate([spread, np.stack([solved, nonzero], axis=2).reshape(len(W), -1)], axis=1)


def _inner_weights(C: np.ndarray, model: _CompiledModel):
    """The inner weights E (replicate x latent x latent; E[a, b] weighs
    latent b's score in latent a's proxy), and which replicates had a
    well-conditioned predecessor system for each latent. Centroid weights
    are the signs of the correlations with adjacent latents; path
    weighting regresses on the predecessors and takes correlations with
    successors."""
    solved = np.ones(C.shape[:2], dtype=bool)
    if model.centroid:
        return np.where(C < 0.0, -1.0, 1.0) * model.terms, solved
    E = C * model.terms
    E[:, model.heads, model.tails], _, solved[:, model.regressed] = _regressions(C, model)
    return E, solved


def _regressions(C: np.ndarray, model: _CompiledModel):
    """Every structural regression from the latent correlations C: the
    coefficients (in `model.structural` order), the R-squared of each
    endogenous latent, and whether its predecessors' correlation matrix
    has a condition number of at most 1e12 (else its coefficients are
    meaningless)."""
    coefficients = np.empty((len(C), len(model.structural)))
    r_squared = np.empty((len(C), len(model.regressed)))
    regular = np.empty(r_squared.shape, dtype=bool)
    for equations in model.equations:
        preds = equations.preds
        A = C[:, preds[:, :, None], preds[:, None, :]]
        b = C[:, preds, equations.latents[:, None]]
        # guard against numerically repeated predecessor scores; a nonzero
        # 1 x 1 matrix has condition number 1, without an SVD per replicate
        if preds.shape[1] == 1:
            ok = A[:, :, 0, 0] != 0.0
        else:
            cond = np.linalg.cond(A)
            ok = np.isfinite(cond) & (cond <= 1e12)
        A[~ok] = np.eye(preds.shape[1])
        beta = np.linalg.solve(A, b[..., None])[..., 0]
        coefficients[:, equations.coefficients] = beta
        r_squared[:, equations.rows] = (beta * b).sum(axis=2)
        regular[:, equations.rows] = ok
    return coefficients, r_squared, regular


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


class _DesignMatrix(NamedTuple):
    columns: tuple[str, ...]
    values: np.ndarray


class DesignMatrix(_DesignMatrix):
    """Named observation matrix; interaction columns are exact elementwise
    products of their parent columns."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
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
    for name in names:
        col = panel.column(name)  # (dmu, period)
        flat = col.reshape(-1)
        bad = ~(np.isfinite(flat) & (flat > 0.0))
        if np.any(bad):
            d, p = divmod(int(np.flatnonzero(bad)[0]), len(panel.periods))
            raise DomainError(
                f"variable {name!r} is not strictly positive at dmu={panel.dmus[d]} period={panel.periods[p]}; "
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
    return DesignMatrix(tuple(columns), np.column_stack(data))


class _OlsFit(NamedTuple):
    columns: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    residuals: np.ndarray


class OlsFit(_OlsFit):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        for array in self[1:]:
            array.setflags(write=False)


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
