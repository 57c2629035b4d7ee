"""K-means clustering of efficiency scores with one-way ANOVA validation.

One-column points (the pipeline's per-DMU mean scores) are clustered
exactly: in one dimension an optimal k-means partition is a set of
contiguous runs of the sorted values, which one dynamic program finds for
every k up to k_max at once (Wang & Song, "Ckmeans.1d.dp", R Journal 3(2),
2011). Multivariate points run Lloyd iterations from k-means++ seeds, best
of several restarts, each restart seeded as seed + restart index so results
are reproducible and schedule independent. sweep_k tries candidate cluster
counts from k_max down to k_min and selects the most significant one
(maximal F among the counts whose ANOVA p-value clears the threshold, ties
to the smallest k).

The F statistic here is computed on the clustering variable itself, so it
is inflated by construction; reports carry that caveat verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import f_sf
from .errors import UsageError

MAX_LLOYD_ITERATIONS = 300

PERFECT_SEPARATION = "PERFECT_SEPARATION"
NO_SIGNIFICANT_K = "NO_SIGNIFICANT_K"
NEGLIGIBLE_SPREAD = "NEGLIGIBLE_SPREAD"

# Data whose total spread is at floating-point-noise scale carries no
# meaningful separation; clustering such data manufactures significance.
_SPREAD_RESOLUTION = 1e-8

CLUSTER_F_CAVEAT = (
    "F statistics are computed on the variable used to form the clusters; "
    "separation is maximized by construction, so F values rank candidate "
    "cluster counts rather than providing an unbiased significance test."
)


@dataclass(frozen=True)
class ClusterSolution:
    """K-means result: the exact optimum for one-column points, the best of
    restarts for multivariate points.

    Clusters are labeled in descending centroid order. Every cluster is
    non-empty, each point is assigned to its nearest centroid (ties to the
    lowest cluster index), and each centroid equals the mean of its members.
    restarts_used is 0 for an exact one-column solution, which uses no
    restarts; seed is the one passed and affects only multivariate points.
    """

    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    sse_within: float
    restarts_used: int
    seed: int

    def __post_init__(self):
        self.assignments.setflags(write=False)
        self.centroids.setflags(write=False)

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == cluster)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(int((self.assignments == c).sum()) for c in range(self.k))


@dataclass(frozen=True)
class AnovaResult:
    """One-way ANOVA of the clustering variable across clusters."""

    df_between: int
    df_within: int
    f_value: float
    p_value: float
    ss_between: float
    ss_within: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class KSweepReport:
    """ANOVA-screened sweep over candidate cluster counts, k_max down to k_min."""

    entries: tuple[tuple[int, ClusterSolution, AnovaResult], ...]
    selected_k: int | None
    selection_rule: str
    significance: float
    flags: tuple[str, ...] = ()

    def entry(self, k: int) -> tuple[int, ClusterSolution, AnovaResult]:
        for e in self.entries:
            if e[0] == k:
                return e
        raise UsageError(f"k={k} not in sweep")

    @property
    def selected(self) -> tuple[int, ClusterSolution, AnovaResult] | None:
        return None if self.selected_k is None else self.entry(self.selected_k)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise UsageError("points must be a non-empty 1-D or 2-D array")
    if not np.all(np.isfinite(pts)):
        raise UsageError("points must be finite")
    return pts


def kmeans(points, k: int, restarts: int = 32, seed: int = 0) -> ClusterSolution:
    """Cluster points (one row per DMU, 1-D or multivariate) into k groups.

    One-column points get the exact optimum from the dynamic program
    (_exact_1d); restarts and seed do not act on them. For multivariate
    points, Lloyd iterations stop when assignments are unchanged or after
    300 iterations; the winner across restarts is the lowest within-cluster
    sum of squares, earliest restart on ties. Deterministic for identical
    (points, k, restarts, seed).
    """
    pts = _as_points(points)
    if restarts < 1:
        raise UsageError("restarts must be >= 1")
    if k < 1:
        raise UsageError("k must be >= 1")
    if pts.shape[1] == 1:
        return _exact_1d(pts, k, k, seed)[0]
    n_distinct = np.unique(pts, axis=0).shape[0]
    if k > n_distinct:
        raise UsageError(f"k={k} exceeds the {n_distinct} distinct points")

    best: tuple[float, int, np.ndarray, np.ndarray] | None = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        centroids = _kmeans_pp_init(pts, k, rng)
        assign, cents, sse, _ = _lloyd(pts, centroids)
        if best is None or sse < best[0]:
            best = (sse, r, assign, cents)

    sse, _, assign, cents = best
    assign, cents, sse = _canonical_labels(pts, assign, cents)
    return ClusterSolution(
        k=k,
        assignments=assign,
        centroids=cents,
        sse_within=float(sse),
        restarts_used=restarts,
        seed=seed,
    )


def _exact_1d(pts: np.ndarray, k_max: int, k_min: int, seed: int) -> list[ClusterSolution]:
    """Optimal k-means solutions of one-column points for k = k_max down to
    k_min, from one dynamic program over the sorted distinct values.

    Layer l of the program holds, for each prefix of the distinct values,
    the least sum of squares over splits of that prefix into l + 1 runs and
    where the last of those runs starts; each k backtracks from layer
    k - 1. Runs break only between distinct values, so equal points always
    share a cluster. Segment costs are weighted Welford sums kept for every
    segment start and measured from that start's value, so near-duplicate
    values keep their tiny costs instead of cancelling. The reported
    centroids and sse_within are recomputed from the partition.
    """
    values, inverse, counts = np.unique(pts[:, 0], return_inverse=True, return_counts=True)
    m = values.size
    if k_max > m:
        raise UsageError(f"k={k_max} exceeds the {m} distinct points")
    cost = np.full((k_max, m), np.inf)  # cost[l, j]: best split of values[:j + 1] into l + 1 runs
    start = np.zeros((k_max, m), dtype=int)  # start[l, j]: first value of that split's last run
    layers = np.arange(k_max - 1)
    # Welford state of each segment values[i:j + 1], one entry per start i
    weight = np.zeros(m)
    mean = np.zeros(m)  # measured from values[i]
    sse = np.zeros(m)
    for j in range(m):
        offset = values[j] - values[:j + 1]
        delta = offset - mean[:j + 1]
        weight[:j + 1] += counts[j]
        mean[:j + 1] += delta * (counts[j] / weight[:j + 1])
        sse[:j + 1] += counts[j] * delta * (offset - mean[:j + 1])
        cost[0, j] = sse[0]
        if j > 0:
            # last run values[i:j + 1], i = 1..j, after the best split of values[:i]
            candidates = cost[:-1, :j] + sse[1:j + 1]
            best = candidates.argmin(axis=1)
            cost[1:, j] = candidates[layers, best]
            start[1:, j] = best + 1

    solutions = []
    for k in range(k_max, k_min - 1, -1):
        labels = np.empty(m, dtype=int)
        end = m
        for c in range(k):  # runs from the highest down, so labels follow descending centroids
            first = start[k - 1 - c, end - 1]
            labels[first:end] = c
            end = first
        assign = labels[inverse]
        centroids = np.vstack([pts[assign == c].mean(axis=0) for c in range(k)])
        solutions.append(ClusterSolution(
            k=k,
            assignments=assign,
            centroids=centroids,
            sse_within=_sse(pts, assign, centroids),
            restarts_used=0,
            seed=seed,
        ))
    return solutions


def _kmeans_pp_init(pts: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeding: subsequent centers drawn with probability
    proportional to squared distance from the chosen set."""
    n = pts.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            # duplicates of every chosen center; fall back to any unseen point
            remaining = np.setdiff1d(np.arange(n), chosen)
            nxt = int(remaining[0])
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return pts[chosen].copy()


def _assign(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)  # argmin takes the lowest index on ties


def _lloyd(pts: np.ndarray, centroids: np.ndarray, trace: list | None = None):
    """Lloyd iterations from given centers; returns (assignments, centroids,
    sse, iterations). Empty clusters are repaired by donating the point
    farthest from its centroid (from clusters that can spare one)."""
    k = centroids.shape[0]
    assign = np.full(pts.shape[0], -1, dtype=int)
    iterations = 0
    for _ in range(MAX_LLOYD_ITERATIONS):
        new_assign = _assign(pts, centroids)
        new_assign = _repair_empty(pts, new_assign, centroids, k)
        centroids = np.vstack([pts[new_assign == c].mean(axis=0) for c in range(k)])
        iterations += 1
        if trace is not None:
            trace.append(_sse(pts, new_assign, centroids))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign, centroids, _sse(pts, assign, centroids), iterations


def _repair_empty(pts, assign, centroids, k) -> np.ndarray:
    counts = np.bincount(assign, minlength=k)
    while np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        donors = np.flatnonzero(counts[assign] > 1)
        dist = ((pts[donors] - centroids[assign[donors]]) ** 2).sum(axis=1)
        moved = int(donors[dist.argmax()])
        counts[assign[moved]] -= 1
        assign = assign.copy()
        assign[moved] = empty
        counts[empty] += 1
    return assign


def _sse(pts, assign, centroids) -> float:
    return float(((pts - centroids[assign]) ** 2).sum())


def _canonical_labels(pts, assign, centroids):
    """Relabel clusters in descending centroid order and settle any exact
    assignment ties under the new labels."""
    for _ in range(5):
        order = sorted(range(centroids.shape[0]), key=lambda c: tuple(centroids[c]), reverse=True)
        remap = np.empty(len(order), dtype=int)
        for new, old in enumerate(order):
            remap[old] = new
        assign = remap[assign]
        centroids = centroids[order]
        settled = _assign(pts, centroids)
        settled = _repair_empty(pts, settled, centroids, centroids.shape[0])
        if np.array_equal(settled, assign):
            break
        assign, centroids, _, _ = _lloyd(pts, np.vstack(
            [pts[settled == c].mean(axis=0) for c in range(centroids.shape[0])]
        ))
    return assign, centroids, _sse(pts, assign, centroids)


def anova_f(points, solution: ClusterSolution) -> AnovaResult:
    """One-way ANOVA of the clustering variable(s) across the solution's
    clusters. p = P(F > f) with the F CDF evaluated through the regularized
    incomplete beta function. SSW of zero yields an infinite F sentinel
    with p = 0 and the PERFECT_SEPARATION flag.

    The sums of squares are formed on the points rescaled by the power of
    two that brings their largest magnitude into [0.5, 1). Scaling by a
    power of two is exact, so F is the same as from the raw points, but
    squared deviations of tiny points no longer underflow to 0 and those of
    huge points no longer overflow. Only points that are all equal have no
    variance."""
    pts = _as_points(points)
    n = pts.shape[0]
    k = solution.k
    if solution.assignments.shape[0] != n:
        raise UsageError("solution does not match the given points")
    if k < 2:
        raise UsageError("ANOVA requires k >= 2")
    if n <= k:
        raise UsageError("ANOVA requires more points than clusters")
    if np.all(pts == pts[0]):
        raise UsageError("points have no variance; ANOVA is undefined")

    _, exponent = np.frexp(np.abs(pts).max())
    pts = np.ldexp(pts, -exponent)
    grand = pts.mean(axis=0)
    ssb = 0.0
    ssw = 0.0
    for c in range(k):
        members = pts[solution.assignments == c]
        mean_c = members.mean(axis=0)
        ssb += members.shape[0] * float(((mean_c - grand) ** 2).sum())
        ssw += float(((members - mean_c) ** 2).sum())

    df_between = k - 1
    df_within = n - k
    total = ssb + ssw
    with np.errstate(over="ignore"):  # the raw points' sums of squares may exceed the float range
        ss_between, ss_within = (float(np.ldexp(ss, 2 * exponent)) for ss in (ssb, ssw))
    if ssw <= 1e-15 * total:
        return AnovaResult(df_between, df_within, math.inf, 0.0, ss_between, ss_within, (PERFECT_SEPARATION,))
    f_value = (ssb / df_between) / (ssw / df_within)
    p_value = f_sf(f_value, df_between, df_within)
    return AnovaResult(df_between, df_within, float(f_value), float(p_value), ss_between, ss_within)


def sweep_k(points, k_max: int, k_min: int, restarts: int = 32, seed: int = 0,
            significance: float = 0.05) -> KSweepReport:
    """Cluster the points for each k from k_max down to k_min, score each
    solution with anova_f and select the most significant cluster count.

    One-column points run one exact dynamic program for the whole sweep;
    restarts and seed act only on multivariate points, which run kmeans
    once per k.

    selected_k is the k with maximal F among those with p below the
    significance threshold, smallest k on ties; None (with the
    NO_SIGNIFICANT_K flag) when no candidate clears the threshold.
    """
    if not (k_max >= k_min >= 2):
        raise UsageError(f"need k_max >= k_min >= 2, got k_max={k_max}, k_min={k_min}")
    if restarts < 1:
        raise UsageError("restarts must be >= 1")
    pts = _as_points(points)
    if pts.shape[1] == 1:
        solutions = _exact_1d(pts, k_max, k_min, seed)
    else:
        solutions = [kmeans(pts, k, restarts=restarts, seed=seed) for k in range(k_max, k_min - 1, -1)]
    entries = [(s.k, s, anova_f(pts, s)) for s in solutions]

    spread = float((pts.max(axis=0) - pts.min(axis=0)).max())
    negligible = spread <= _SPREAD_RESOLUTION * max(1.0, float(np.abs(pts).max()))

    selected_k = None
    best_f = -math.inf
    if not negligible:
        for k, _, anova in entries:
            if anova.p_value < significance:
                # descending-k iteration, so equal F must explicitly prefer
                # the smaller k
                if anova.f_value > best_f or (anova.f_value == best_f and (selected_k is None or k < selected_k)):
                    best_f = anova.f_value
                    selected_k = k
    flags: tuple[str, ...] = ()
    if negligible:
        flags += (NEGLIGIBLE_SPREAD,)
    if selected_k is None:
        flags += (NO_SIGNIFICANT_K,)
    return KSweepReport(
        entries=tuple(entries),
        selected_k=selected_k,
        selection_rule=f"max_f_significant(alpha={significance:g})",
        significance=significance,
        flags=flags,
    )
