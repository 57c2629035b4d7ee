"""Property-based tests of the PLS moment kernel: every replicate's
correlation matrix and constant-column flags against the explicit
resample."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from paneleff.pls import _counts, _Sample  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# values from a small pool, so that ties and constant resamples are common
pool = st.sampled_from([-3.0, -1.0, 0.0, 0.25, 1.0, 2.0, 7.5])


@st.composite
def samples_and_draws(draw):
    """A data matrix whose last column is constant except in one row, and
    the draws of a few resamples of its rows."""
    n = draw(st.integers(3, 12))
    p = draw(st.integers(1, 3))
    columns = [draw(st.lists(pool, min_size=n, max_size=n)) for _ in range(p)]
    odd = draw(st.integers(0, n - 1))
    columns.append([5.0 + (0.5 if i == odd else 0.0) for i in range(n)])
    replicates = draw(st.integers(1, 6))
    draws = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                          min_size=replicates, max_size=replicates))
    return np.array(columns).T, np.array(draws)


@PROPERTY_SETTINGS
@given(samples_and_draws())
def test_replicate_moments_equal_the_explicit_resample(case):
    X, draws = case
    counts = _counts(draws)
    assert counts.tolist() == [np.bincount(idx, minlength=X.shape[0]).tolist() for idx in draws]
    sample = _Sample(X)
    R, constant = sample.correlations(counts)
    # counts come in the narrowest unsigned dtype that holds them
    for dtype in (np.uint8, np.uint16):
        narrow_R, narrow_constant = sample.correlations(counts.astype(dtype))
        assert np.array_equal(narrow_R, R, equal_nan=True)
        assert np.array_equal(narrow_constant, constant)
    # past 2**53 the probes' sums are formed in int64; they flag the same columns
    sample.probes = sample.probes.astype(np.int64)
    for dtype in (np.int64, np.uint8, np.uint16):
        assert np.array_equal(sample.correlations(counts.astype(dtype))[1], constant)
    for k, idx in enumerate(draws):
        resample = X[idx]
        # the flag is exact: all drawn rows share one value
        assert constant[k].tolist() == (resample.min(axis=0) == resample.max(axis=0)).tolist()
        live = np.flatnonzero(~constant[k])
        if live.size:
            want = np.corrcoef(resample[:, live], rowvar=False).reshape(live.size, live.size)
            assert np.abs(R[k][np.ix_(live, live)] - want).max() <= 1e-12


def test_full_sample_moments_flag_exactly_the_constant_columns():
    # the mean of seven 0.1s does not round back to 0.1, so the rounded
    # variance of a constant column misses zero; the probes do not
    X = np.column_stack([np.full(7, 0.1), np.arange(7.0), np.full(7, 0.7), np.r_[np.full(6, 0.1), 0.2]])
    assert X[:, 0].std(ddof=1) > 0.0 and X[:, 2].std(ddof=1) > 0.0
    R, constant = _Sample(X).correlations(np.ones((1, 7), dtype=np.int64))
    assert constant.tolist() == [[True, False, True, False]]
    assert R[0, 1, 3] == pytest.approx(np.corrcoef(X[:, 1], X[:, 3])[0, 1], abs=1e-12)
