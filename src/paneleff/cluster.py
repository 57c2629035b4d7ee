"""K-means clustering of efficiency scores with one-way ANOVA validation.

The points are one number per DMU (the pipeline's per-DMU mean scores)
and are clustered exactly: in one dimension an optimal k-means partition
is a set of contiguous runs of the sorted values, which one dynamic
program finds for every k up to k_max at once (Wang & Song,
"Ckmeans.1d.dp", R Journal 3(2), 2011), so no random numbers are drawn.
sweep_k tries candidate cluster counts from k_max down to k_min and
selects the most significant one (maximal F among the counts whose ANOVA
p-value clears the threshold, ties to the smallest k).

The F statistic here is computed on the clustering variable itself, so it
is inflated by construction; reports carry that caveat verbatim.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .distributions import f_sf
from .errors import UsageError

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


class _ClusterSolution(NamedTuple):
    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    sse_within: float


class ClusterSolution(_ClusterSolution):
    """An optimal k-means partition of one column of points.

    Clusters are labeled in descending centroid order. Every cluster is
    non-empty, each point is assigned to its nearest centroid (ties to the
    lowest cluster index), and each centroid, a row of the (k, 1) array,
    equals the mean of its members.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self.assignments.setflags(write=False)
        self.centroids.setflags(write=False)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(int((self.assignments == c).sum()) for c in range(self.k))


class AnovaResult(NamedTuple):
    """One-way ANOVA of the clustering variable across clusters."""

    df_between: int
    df_within: int
    f_value: float
    p_value: float
    ss_between: float
    ss_within: float
    flags: tuple[str, ...] = ()


class KSweepReport(NamedTuple):
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
    if pts.ndim != 2 or pts.shape[1] != 1 or pts.shape[0] == 0:
        raise UsageError("points must be one non-empty column: a 1-D array or an (n, 1) array")
    if not np.all(np.isfinite(pts)):
        raise UsageError("points must be finite")
    return pts


def kmeans(points, k: int) -> ClusterSolution:
    """The optimal partition of one column of points (one per DMU) into k
    groups, from the dynamic program of _exact_1d. Deterministic."""
    pts = _as_points(points)
    if k < 1:
        raise UsageError("k must be >= 1")
    return _exact_1d(pts, k, k)[0]


def _exact_1d(pts: np.ndarray, k_max: int, k_min: int) -> list[ClusterSolution]:
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
        ))
    return solutions


def _sse(pts, assign, centroids) -> float:
    return float(((pts - centroids[assign]) ** 2).sum())


def anova_f(points, solution: ClusterSolution) -> AnovaResult:
    """One-way ANOVA of the clustering variable across the solution's
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


def sweep_k(points, k_max: int, k_min: int, significance: float = 0.05) -> KSweepReport:
    """Cluster one column of points for each k from k_max down to k_min,
    with one exact dynamic program for the whole sweep, score each
    solution with anova_f and select the most significant cluster count.

    selected_k is the k with maximal F among those with p below the
    significance threshold, smallest k on ties; None (with the
    NO_SIGNIFICANT_K flag) when no candidate clears the threshold.
    """
    if not (k_max >= k_min >= 2):
        raise UsageError(f"need k_max >= k_min >= 2, got k_max={k_max}, k_min={k_min}")
    pts = _as_points(points)
    entries = [(s.k, s, anova_f(pts, s)) for s in _exact_1d(pts, k_max, k_min)]

    spread = float(pts.max() - pts.min())
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
