import math

import numpy as np
import pytest

from oracles import best_contiguous_sse, best_partition_sse
from paneleff.cluster import (
    NEGLIGIBLE_SPREAD,
    NO_SIGNIFICANT_K,
    PERFECT_SEPARATION,
    ClusterSolution,
    anova_f,
    kmeans,
    sweep_k,
)
from paneleff.errors import UsageError


def test_two_cluster_hand_example():
    sol = kmeans([0.1, 0.2, 0.9, 1.0], 2)
    assert sol.sse_within == pytest.approx(0.01, abs=1e-12)
    # labels are ordered by descending centroid
    assert sol.centroids[:, 0] == pytest.approx([0.95, 0.15])
    assert sol.assignments.tolist() == [1, 1, 0, 0]


def test_k_equals_n_gives_zero_sse():
    sol = kmeans([1.0, 2.0, 3.0, 4.0], 4)
    assert sol.sse_within == 0.0
    assert sorted(sol.assignments.tolist()) == [0, 1, 2, 3]


def test_k_larger_than_distinct_points_rejected():
    with pytest.raises(UsageError):
        kmeans([1.0, 1.0, 2.0], 3)


def test_best_of_restarts_matches_exhaustive_partitions():
    rng = np.random.default_rng(9)
    for _ in range(25):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k + 2, 9))  # n points in total
        centers = np.arange(k) * 3.0  # separation 3 vs spread 1
        pts = np.array([rng.uniform(centers[i % k], centers[i % k] + 1.0) for i in range(n)])
        sol = kmeans(pts, k)
        assert sol.sse_within == pytest.approx(best_partition_sse(pts, k), abs=1e-10)


def test_solution_invariants():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(30, 1))
    sol = kmeans(pts, 4)
    assert all(size > 0 for size in sol.sizes)
    d2 = ((pts[:, None, :] - sol.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(d2.argmin(axis=1), sol.assignments)
    for c in range(sol.k):
        members = pts[sol.assignments == c]
        assert np.array_equal(sol.centroids[c], members.mean(axis=0))


def test_deterministic_given_seed():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=50)
    a = kmeans(pts, 3)
    b = kmeans(pts, 3)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.sse_within == b.sse_within


def test_points_of_two_columns_are_rejected():
    rng = np.random.default_rng(6)
    pts = np.vstack([rng.normal(0, 0.1, (10, 2)), rng.normal(5, 0.1, (10, 2))])
    with pytest.raises(UsageError, match="one non-empty column"):
        kmeans(pts, 2)
    with pytest.raises(UsageError, match="one non-empty column"):
        sweep_k(pts, 3, 2)
    assert kmeans(pts[:, :1], 2).centroids.shape == (2, 1)


def test_anova_hand_example():
    pts = np.array([1.0, 2.0, 3.0, 7.0, 8.0, 9.0])
    sol = kmeans(pts, 2)
    a = anova_f(pts, sol)
    assert a.df_between == 1 and a.df_within == 4
    assert a.ss_between == pytest.approx(54.0)
    assert a.ss_within == pytest.approx(4.0)
    assert a.f_value == pytest.approx(54.0)


def test_anova_degrees_of_freedom_exhaustive():
    rng = np.random.default_rng(8)
    for n in range(4, 31):
        for k in range(2, 6):
            if k >= n:
                continue
            pts = rng.normal(size=n)
            if np.unique(pts).size < k:
                continue
            sol = kmeans(pts, k)
            a = anova_f(pts, sol)
            assert a.df_between == k - 1
            assert a.df_within == n - k


def test_anova_table5_case_df():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=27)
    sol = kmeans(pts, 3)
    a = anova_f(pts, sol)
    assert (a.df_between, a.df_within) == (2, 24)


def test_anova_perfect_separation_sentinel():
    pts = np.array([0.0, 0.0, 1.0, 1.0])
    sol = kmeans(pts, 2)
    a = anova_f(pts, sol)
    assert math.isinf(a.f_value)
    assert a.p_value == 0.0
    assert PERFECT_SEPARATION in a.flags


def test_relabeling_clusters_leaves_statistics_unchanged():
    rng = np.random.default_rng(31)
    pts = np.concatenate([rng.normal(c, 0.3, 9) for c in (0.0, 4.0, 9.0)])
    sol = kmeans(pts, 3)
    base = anova_f(pts, sol)
    perm = np.array([2, 0, 1])
    inverse = np.argsort(perm)
    permuted = ClusterSolution(
        k=sol.k,
        assignments=perm[sol.assignments],
        centroids=sol.centroids[inverse],
        sse_within=sol.sse_within,
    )
    again = anova_f(pts, permuted)
    assert again.f_value == pytest.approx(base.f_value, abs=1e-9)
    assert again.p_value == pytest.approx(base.p_value, abs=1e-12)
    assert again.ss_within == pytest.approx(base.ss_within, rel=1e-12)
    assert again.ss_between == pytest.approx(base.ss_between, rel=1e-12)


def test_anova_accepts_varying_points_whose_squares_underflow():
    # the squared deviations of these points underflow to 0, yet they vary
    pts = [0.0, 0.0, 4.9e-240, 2.2e-313]
    report = sweep_k(pts, 3, 2)
    assert [k for k, _, _ in report.entries] == [3, 2]
    assert report.entries[0][2].flags == (PERFECT_SEPARATION,)
    assert report.entries[1][2].f_value == 1.0
    with pytest.raises(UsageError, match="no variance"):
        anova_f([2.2e-313] * 4, report.entries[1][1])


def test_shifting_points_leaves_assignments_and_f_unchanged():
    rng = np.random.default_rng(33)
    pts = np.concatenate([rng.normal(c, 0.2, 9) for c in (0.0, 3.0, 7.0)])
    a = kmeans(pts, 3)
    b = kmeans(pts + 100.0, 3)
    assert np.array_equal(a.assignments, b.assignments)
    fa = anova_f(pts, a).f_value
    fb = anova_f(pts + 100.0, b).f_value
    assert abs(fa - fb) <= 1e-9 * max(1.0, fa)


def test_p_value_monotone_in_f():
    from paneleff.distributions import f_sf

    values = [f_sf(f, 2, 24) for f in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sweep_selects_three_on_tightly_planted_tiers():
    rng = np.random.default_rng(20250808)
    pts = np.concatenate([
        np.array([1.0]),
        0.88 + rng.uniform(-1e-9, 1e-9, 16),
        0.58 + rng.uniform(-1e-9, 1e-9, 10),
    ])
    report = sweep_k(pts, 6, 3)
    assert report.selected_k == 3
    assert all(PERFECT_SEPARATION in anova.flags for _, _, anova in report.entries)
    assert report.entry(3)[2].df_between == 2


def test_sweep_selects_three_on_separated_gaussians():
    rng = np.random.default_rng(1)
    pts = np.concatenate([c + rng.normal(0, 1e-10, 9) for c in (0.3, 0.6, 0.9)])
    report = sweep_k(pts, 6, 3)
    assert report.selected_k == 3


def test_sweep_flags_negligible_spread():
    pts = 0.5 + np.random.default_rng(2).uniform(-5e-10, 5e-10, 27)
    report = sweep_k(pts, 6, 3)
    assert report.selected_k is None
    assert NO_SIGNIFICANT_K in report.flags
    assert NEGLIGIBLE_SPREAD in report.flags


def test_sweep_single_candidate():
    rng = np.random.default_rng(44)
    pts = np.concatenate([rng.normal(c, 0.05, 9) for c in (0.2, 0.5, 0.8)])
    report = sweep_k(pts, 3, 3)
    assert report.selected_k == 3
    assert len(report.entries) == 1


def test_sweep_rejects_bad_range():
    with pytest.raises(UsageError):
        sweep_k([1.0, 2.0, 3.0], 2, 3)


# Mean VRS output-oriented scores of the 40 DMUs of the benchmark's dea_wide
# panel at generator seed 0. Lloyd iterations from k-means++ seeds, best of 32
# restarts at seed 271998, ended 2.4e-4 (0.06%) above the optimum sum of
# squares at k=4.
DEA_WIDE_VRS_OUT_MEANS = [
    2.332003935304183, 1.4765806294684185, 1.7080587255195745, 1.2201296763255673,
    1.4621780893357794, 1.3746149379637438, 1.5988944467176607, 1.2842566909735176,
    1.859085211780388, 1.065101435712027, 1.1397621418401003, 1.0,
    1.3107379693503105, 2.482632294288468, 1.1913230740415555, 1.325362150510004,
    1.3720149293619555, 1.2821723787760693, 1.3737069044432126, 1.677709310321998,
    1.0, 2.2401456851529895, 1.1516200385402826, 1.5833875763566774,
    1.5425919744391197, 1.7742720699752768, 1.0937786760649908, 1.3081800173845224,
    1.2730130667510757, 1.2448731227728331, 1.3660679177125443, 1.3919768961923789,
    1.5727435174978943, 2.1018572483810587, 1.3629377517858061, 1.759810729725614,
    1.934865554531049, 1.2255236173913997, 1.4136892454987127, 1.870604221848182,
]


def test_sweep_reaches_the_optimum_where_restarts_miss():
    report = sweep_k(DEA_WIDE_VRS_OUT_MEANS, 9, 3)
    for k in (3, 4):
        optimum = best_contiguous_sse(DEA_WIDE_VRS_OUT_MEANS, k)
        assert report.entry(k)[1].sse_within == pytest.approx(optimum, rel=1e-12)


def test_exact_1d_matches_exhaustive_partitions_on_unseparated_points():
    rng = np.random.default_rng(57)
    for trial in range(16):
        n = int(rng.integers(4, 11))
        if trial % 2:
            pts = rng.integers(0, 5, n) / 4.0  # many duplicates
        else:
            pts = rng.normal(size=n)
        k_max = min(np.unique(pts).size, n - 1, 4 if n <= 8 else 3)  # anova_f needs n > k
        if k_max < 2:
            continue
        report = sweep_k(pts, k_max, 2)
        for k, sol, _ in report.entries:
            optimum = best_partition_sse(pts, k)
            assert sol.sse_within == pytest.approx(optimum, rel=1e-12, abs=1e-12)
            assert kmeans(pts, k).sse_within == sol.sse_within


def test_near_duplicate_tiers_keep_nonnegative_sse_and_equal_values_together():
    # tiers of values tier - j * 1e-9 with repeats, like the demo's efficient
    # and near-efficient DMUs: within-tier sums of squares near 1e-17
    j = np.array([0, 0, 1, 2, 2, 3, 5])
    for tiers in [(1.0,), (1.0, 0.9), (1.0, 0.88, 0.58)]:
        pts = np.concatenate([tier - j * 1e-9 for tier in tiers])
        report = sweep_k(pts, 5, 2)
        for k, sol, _ in report.entries:
            assert sol.sse_within >= 0.0
            for value in np.unique(pts):
                assert np.unique(sol.assignments[pts == value]).size == 1
            assert sol.sse_within == pytest.approx(best_contiguous_sse(pts, k), rel=1e-9, abs=0.0)


def test_one_column_sweep_runs_no_restarts(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("clustering must draw no random numbers")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    pts = np.concatenate([c + np.linspace(0.0, 0.05, 9) for c in (0.3, 0.6, 0.9)])
    report = sweep_k(pts, 6, 3)
    assert report.selected_k is not None
    assert kmeans(pts, 3).sizes == (9, 9, 9)
