import math
import random

import numpy as np
import pytest

from oracles import ols_by_lstsq, scalar_bootstrap, scalar_fit, scalar_rows
from paneleff.distributions import t_two_tailed_p
from paneleff.errors import CollinearityError, DegenerateColumnError, DomainError, UsageError
from paneleff.panel_data import PanelDataset, VariableDef
from paneleff.pls import (
    MAX_BOOTSTRAP_SAMPLES,
    REPLICATE_BLOCK,
    LatentBlock,
    PathModelSpec,
    _CompiledModel,
    _counts,
    _draw_rows,
    _matrix_from_mapping,
    _redraw_stream,
    _sign_alignment,
    bootstrap_significance,
    build_cobb_douglas_design,
    fit_path_model,
    ols,
    resample_counts,
    standardize,
)
from paneleff.synthetic import make_demo_config, make_demo_panel


def two_block_spec(scheme="path_weighting"):
    return PathModelSpec(
        blocks=(LatentBlock("X", ("x",)), LatentBlock("Y", ("y",))),
        paths=(("X", "Y"),),
        inner_scheme=scheme,
    )


def random_single_indicator_spec(rng, scheme):
    n_latents = int(rng.integers(2, 5))
    names = [f"L{i}" for i in range(n_latents)]
    paths = []
    for j in range(1, n_latents):
        preds = [i for i in range(j) if rng.random() < 0.6] or [int(rng.integers(0, j))]
        paths.extend((names[i], names[j]) for i in preds)
    blocks = tuple(LatentBlock(n, (n.lower(),)) for n in names)
    return PathModelSpec(blocks, tuple(paths), inner_scheme=scheme)


def correlated_data(rng, spec, n=50, scale=True):
    names = spec.latent_names
    base = rng.normal(size=(n, len(names)))
    data = {}
    for i, name in enumerate(names):
        v = base[:, i] + (0.6 * base[:, :i].sum(axis=1) if i else 0.0)
        if scale:
            v = v * rng.uniform(0.5, 4.0) + rng.uniform(-3.0, 3.0)
        data[name.lower()] = v
    return data


# --- standardize -----------------------------------------------------------

def test_standardize_three_points():
    assert standardize([1.0, 2.0, 3.0]) == pytest.approx([-1.0, 0.0, 1.0])


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    x = standardize(rng.normal(2.0, 3.0, size=25))
    again = standardize(x)
    assert np.abs(again - x).max() < 1e-12


def test_standardize_constant_column_raises():
    with pytest.raises(DegenerateColumnError) as exc:
        standardize(np.column_stack([np.arange(5.0), np.full(5, 7.0)]), columns=("a", "b"))
    assert exc.value.column == "b"


# --- spec validation --------------------------------------------------------

def test_cyclic_spec_rejected():
    with pytest.raises(UsageError):
        PathModelSpec(
            blocks=(LatentBlock("A", ("a",)), LatentBlock("B", ("b",))),
            paths=(("A", "B"), ("B", "A")),
        )


def test_indicator_in_two_blocks_rejected():
    with pytest.raises(UsageError):
        PathModelSpec(
            blocks=(LatentBlock("A", ("a",)), LatentBlock("B", ("a",))),
            paths=(("A", "B"),),
        )


def test_isolated_latent_rejected():
    with pytest.raises(UsageError):
        PathModelSpec(
            blocks=(LatentBlock("A", ("a",)), LatentBlock("B", ("b",)), LatentBlock("C", ("c",))),
            paths=(("A", "B"),),
        )


# --- fitting ----------------------------------------------------------------

def test_perfect_linear_relation():
    rng = np.random.default_rng(1)
    x = rng.normal(size=40)
    est = fit_path_model({"x": x, "y": x.copy()}, two_block_spec())
    assert est.path_coefficients[("X", "Y")] == pytest.approx(1.0, abs=1e-9)
    assert est.r_squared["Y"] == pytest.approx(1.0, abs=1e-9)
    assert est.converged


def test_single_indicator_models_match_standardized_ols():
    rng = np.random.default_rng(7)
    for trial in range(40):
        scheme = "centroid" if trial % 2 else "path_weighting"
        spec = random_single_indicator_spec(rng, scheme)
        data = correlated_data(rng, spec)
        est = fit_path_model(data, spec)
        assert est.converged
        z = {n: standardize(data[n.lower()]) for n in spec.latent_names}
        for endo in est.r_squared:
            preds = spec.predecessors(endo)
            beta = ols_by_lstsq(np.column_stack([z[p] for p in preds]), z[endo])
            for p, b in zip(preds, beta):
                assert est.path_coefficients[(p, endo)] == pytest.approx(b, abs=1e-6)


def test_inner_schemes_agree_on_single_indicator_models():
    rng = np.random.default_rng(11)
    spec_pw = random_single_indicator_spec(rng, "path_weighting")
    spec_ce = PathModelSpec(spec_pw.blocks, spec_pw.paths, inner_scheme="centroid")
    data = correlated_data(rng, spec_pw)
    est_pw = fit_path_model(data, spec_pw)
    est_ce = fit_path_model(data, spec_ce)
    for key, value in est_pw.path_coefficients.items():
        assert est_ce.path_coefficients[key] == pytest.approx(value, abs=1e-9)


def test_scale_invariance():
    rng = np.random.default_rng(13)
    spec = two_block_spec()
    x = rng.normal(size=30)
    y = 0.7 * x + rng.normal(0, 0.5, size=30)
    base = fit_path_model({"x": x, "y": y}, spec)
    scaled = fit_path_model({"x": x * 1e4, "y": y}, spec)
    assert scaled.path_coefficients[("X", "Y")] == pytest.approx(
        base.path_coefficients[("X", "Y")], abs=1e-6
    )


def test_sign_convention_on_negated_indicator():
    # single-indicator block: the loading-sum rule keeps the loading
    # positive, so only |beta| is pinned down
    rng = np.random.default_rng(17)
    x = rng.normal(size=30)
    y = 0.8 * x + rng.normal(0, 0.3, size=30)
    spec = two_block_spec()
    base = fit_path_model({"x": x, "y": y}, spec)
    flipped = fit_path_model({"x": -x, "y": y}, spec)
    beta0 = base.path_coefficients[("X", "Y")]
    beta1 = flipped.path_coefficients[("X", "Y")]
    assert abs(beta1) == pytest.approx(abs(beta0), abs=1e-9)
    assert beta1 == pytest.approx(-beta0, abs=1e-9)


def test_sign_convention_flips_one_loading_in_multi_indicator_block():
    rng = np.random.default_rng(18)
    latent = rng.normal(size=50)
    data = {
        "x1": latent + rng.normal(0, 0.3, 50),
        "x2": latent + rng.normal(0, 0.3, 50),
        "y1": 0.7 * latent + rng.normal(0, 0.4, 50),
    }
    spec = PathModelSpec(
        blocks=(LatentBlock("X", ("x1", "x2")), LatentBlock("Y", ("y1",))),
        paths=(("X", "Y"),),
    )
    base = fit_path_model(data, spec)
    flipped_data = dict(data, x2=-data["x2"])
    flipped = fit_path_model(flipped_data, spec)
    assert flipped.outer_loadings["x2"] == pytest.approx(-base.outer_loadings["x2"], abs=1e-9)
    assert abs(flipped.path_coefficients[("X", "Y")]) == pytest.approx(
        abs(base.path_coefficients[("X", "Y")]), abs=1e-9
    )


def test_latent_scores_standardized_and_beta_bounded():
    rng = np.random.default_rng(19)
    spec = two_block_spec()
    x = rng.normal(size=40)
    y = -0.9 * x + rng.normal(0, 0.2, size=40)
    est = fit_path_model({"x": x, "y": y}, spec)
    assert abs(est.path_coefficients[("X", "Y")]) <= 1.0 + 1e-6


def test_multi_indicator_block_fits():
    rng = np.random.default_rng(23)
    latent = rng.normal(size=60)
    data = {
        "x1": latent + rng.normal(0, 0.3, 60),
        "x2": latent + rng.normal(0, 0.3, 60),
        "y1": 0.8 * latent + rng.normal(0, 0.4, 60),
    }
    spec = PathModelSpec(
        blocks=(LatentBlock("X", ("x1", "x2")), LatentBlock("Y", ("y1",))),
        paths=(("X", "Y"),),
    )
    est = fit_path_model(data, spec)
    assert est.converged
    assert est.outer_loadings["x1"] > 0.8
    assert est.outer_loadings["x2"] > 0.8
    assert est.path_coefficients[("X", "Y")] > 0.5


def test_nonconvergence_reported_not_raised():
    rng = np.random.default_rng(29)
    latent = rng.normal(size=40)
    data = {
        "x1": latent + rng.normal(0, 0.5, 40),
        "x2": -latent + rng.normal(0, 0.5, 40),
        "x3": rng.normal(size=40),
        "y1": latent + rng.normal(0, 0.5, 40),
    }
    spec = PathModelSpec(
        blocks=(LatentBlock("X", ("x1", "x2", "x3")), LatentBlock("Y", ("y1",))),
        paths=(("X", "Y"),),
    )
    import paneleff.pls as pls_module

    original = pls_module.MAX_ITERATIONS
    pls_module.MAX_ITERATIONS = 1
    try:
        est = fit_path_model(data, spec)
    finally:
        pls_module.MAX_ITERATIONS = original
    assert not est.converged
    assert est.iterations == 1


def test_too_few_observations_rejected():
    spec = two_block_spec()
    with pytest.raises(UsageError):
        fit_path_model({"x": np.array([1.0, 2.0]), "y": np.array([1.0, 2.0])}, spec)


# --- the full-sample fit against the scalar ALS loop -----------------------

def assert_fit_equals_scalar_fit(data, spec, rel=1e-12):
    model = _CompiledModel(spec)
    want = scalar_fit(standardize(_matrix_from_mapping(data, model.columns), columns=model.columns), model)
    est = fit_path_model(data, spec)
    for got, expected in ((est.path_coefficients, want.path_coefficients), (est.r_squared, want.r_squared),
                          (est.outer_loadings, want.outer_loadings)):
        assert list(got) == list(expected)
        for key in expected:
            assert got[key] == pytest.approx(expected[key], rel=rel, abs=1e-300)
    assert (est.converged, est.iterations, est.inner_scheme) == (want.converged, want.iterations, want.inner_scheme)
    return est


@pytest.mark.parametrize("scheme", ["path_weighting", "centroid"])
def test_full_sample_fit_equals_scalar_fit_on_multi_indicator_models(scheme):
    rng = np.random.default_rng(97 if scheme == "centroid" else 101)
    for _ in range(10):
        spec, data = random_multi_indicator_spec_and_data(rng, scheme, n=int(rng.integers(30, 301)))
        assert assert_fit_equals_scalar_fit(data, spec).converged


def test_full_sample_fit_equals_scalar_fit_on_demo_models():
    data, specs, _ = demo_models()
    for spec in specs:
        assert_fit_equals_scalar_fit(data, spec)


def test_unconverged_full_sample_fit_equals_scalar_fit(monkeypatch):
    import paneleff.pls as pls_module

    monkeypatch.setattr(pls_module, "MAX_ITERATIONS", 1)
    rng = np.random.default_rng(103)
    for scheme in ("path_weighting", "centroid"):
        spec, data = random_multi_indicator_spec_and_data(rng, scheme, n=80)
        assert assert_fit_equals_scalar_fit(data, spec).iterations == 1


def test_constant_indicator_raises_degenerate_column_error():
    # two constant indicators: the error names the first in column order
    rng = np.random.default_rng(107)
    data = {"x1": rng.normal(size=20), "x2": np.full(20, 3.0), "y": np.full(20, -1.0)}
    spec = PathModelSpec(
        blocks=(LatentBlock("X", ("x1", "x2")), LatentBlock("Y", ("y",))),
        paths=(("X", "Y"),),
    )
    with pytest.raises(DegenerateColumnError, match="'x2' has zero variance") as exc:
        fit_path_model(data, spec)
    assert exc.value.column == "x2"


@pytest.mark.parametrize("scheme, message", [
    ("path_weighting", "predecessors of 'Y' are collinear"),
    ("centroid", r"structural regression on \['X1', 'X2'\] is singular"),
])
def test_duplicate_predecessors_raise_collinearity_error(scheme, message):
    rng = np.random.default_rng(109)
    x = rng.normal(size=30)
    data = {"x1": x, "x2": x.copy(), "y": x + rng.normal(size=30)}
    spec = PathModelSpec(
        blocks=(LatentBlock("X1", ("x1",)), LatentBlock("X2", ("x2",)), LatentBlock("Y", ("y",))),
        paths=(("X1", "Y"), ("X2", "Y")),
        inner_scheme=scheme,
    )
    with pytest.raises(CollinearityError, match=message) as exc:
        fit_path_model(data, spec)
    if scheme == "centroid":
        assert exc.value.columns == ("X1", "X2")
    model = _CompiledModel(spec)
    with pytest.raises(CollinearityError) as scalar:
        scalar_fit(standardize(_matrix_from_mapping(data, model.columns)), model)
    assert (str(scalar.value), scalar.value.columns) == (str(exc.value), exc.value.columns)


# --- bootstrap ---------------------------------------------------------------

def test_bootstrap_checks_the_observation_count():
    data = {"x": np.array([1.0, 2.0, 4.0]), "y": np.array([1.0, 3.0, 2.0])}
    with pytest.raises(UsageError, match="need at least 4 observations"):
        fit_path_model(data, two_block_spec())


def test_bootstrap_near_perfect_relation_is_significant():
    rng = np.random.default_rng(31)
    x = rng.normal(size=30)
    y = x + rng.normal(0, 1e-6, size=30)
    boot = bootstrap_significance(fit_path_model({"x": x, "y": y}, two_block_spec()), samples=200, seed=3)
    assert boot.p_value[("X", "Y")] < 0.001


def test_bootstrap_deterministic_given_seed():
    rng = np.random.default_rng(37)
    x = rng.normal(size=25)
    y = 0.5 * x + rng.normal(0, 1.0, size=25)
    a = bootstrap_significance(fit_path_model({"x": x, "y": y}, two_block_spec()), samples=150, seed=9)
    b = bootstrap_significance(fit_path_model({"x": x, "y": y}, two_block_spec()), samples=150, seed=9)
    assert a.p_value == b.p_value
    assert a.std_error == b.std_error


def test_bootstrap_p_values_in_unit_interval_and_se_positive():
    rng = np.random.default_rng(41)
    x = rng.normal(size=30)
    y = 0.4 * x + rng.normal(size=30)
    boot = bootstrap_significance(fit_path_model({"x": x, "y": y}, two_block_spec()), samples=120, seed=1)
    p = boot.p_value[("X", "Y")]
    assert 0.0 <= p <= 1.0
    assert boot.std_error[("X", "Y")] > 0.0


def test_bootstrap_minimum_sample_count_enforced():
    rng = np.random.default_rng(43)
    x = rng.normal(size=20)
    est = fit_path_model({"x": x, "y": x}, two_block_spec())
    with pytest.raises(UsageError):
        bootstrap_significance(est, samples=50, seed=0)


def test_bootstrap_summary_covers_every_path_of_the_fit():
    rng = np.random.default_rng(47)
    x = rng.normal(size=30)
    y = 0.9 * x + rng.normal(0, 0.2, 30)
    est = fit_path_model({"x": x, "y": y}, two_block_spec())
    boot = bootstrap_significance(est, samples=120, seed=2)
    assert boot.samples == 120
    assert set(boot.p_value) == set(est.path_coefficients)


def test_bootstrap_rejects_a_negative_seed():
    x = np.random.default_rng(48).normal(size=20)
    est = fit_path_model({"x": x, "y": x ** 3}, two_block_spec())
    with pytest.raises(UsageError, match="seed must be non-negative"):
        resample_counts(20, 100, -1)
    with pytest.raises(UsageError, match="seed must be non-negative"):
        bootstrap_significance(est, samples=100, seed=-1)
    # given first draws, only a redraw would seed a stream: still refused
    with pytest.raises(UsageError, match="seed must be non-negative"):
        bootstrap_significance(est, samples=100, seed=-1, counts=resample_counts(20, 100, 0))


def test_bootstrap_rejects_more_samples_than_the_bound():
    x = np.random.default_rng(48).normal(size=20)
    est = fit_path_model({"x": x, "y": x ** 3}, two_block_spec())
    for samples in (MAX_BOOTSTRAP_SAMPLES + 1, 10 ** 12):
        with pytest.raises(UsageError, match=f"at most {MAX_BOOTSTRAP_SAMPLES} samples, got {samples}"):
            resample_counts(20, samples, 0)
        with pytest.raises(UsageError, match=f"at most {MAX_BOOTSTRAP_SAMPLES} samples"):
            bootstrap_significance(est, samples=samples)


def test_bootstrap_needs_estimates_from_fit_path_model():
    x = np.random.default_rng(49).normal(size=20)
    full = fit_path_model({"x": x, "y": x ** 3}, two_block_spec())
    bare = full._replace(fitted=None)
    assert bare == full  # `fitted` is left out of equality
    with pytest.raises(UsageError, match="estimates returned by fit_path_model"):
        bootstrap_significance(bare, samples=100)


# --- stacked bootstrap against the one-replicate-at-a-time loop -------------

def random_multi_indicator_spec_and_data(rng, scheme, n):
    n_latents = int(rng.integers(2, 5))
    names = [f"L{i}" for i in range(n_latents)]
    paths = []
    for j in range(1, n_latents):
        preds = [i for i in range(j) if rng.random() < 0.6] or [int(rng.integers(0, j))]
        paths.extend((names[i], names[j]) for i in preds)
    latent = rng.normal(size=(n, n_latents))
    for j in range(1, n_latents):
        latent[:, j] += 0.5 * latent[:, :j].sum(axis=1)
    blocks, data = [], {}
    for j, name in enumerate(names):
        indicators = tuple(f"{name.lower()}_{k}" for k in range(int(rng.integers(1, 4))))
        for ind in indicators:
            data[ind] = rng.uniform(0.5, 3.0) * (latent[:, j] + rng.normal(0.0, 0.7, n)) + rng.uniform(-5, 5)
        blocks.append(LatentBlock(name, indicators))
    return PathModelSpec(tuple(blocks), tuple(paths), inner_scheme=scheme), data


def assert_matches_scalar_loop(data, spec, samples, seed, rel=1e-12):
    boot = bootstrap_significance(fit_path_model(data, spec), samples=samples, seed=seed)
    std_error, t_statistic, p_value, redraws, unconverged = scalar_bootstrap(data, spec, samples=samples, seed=seed)
    assert boot.redraws == redraws
    assert boot.unconverged == unconverged
    for got, want in ((boot.std_error, std_error), (boot.t_statistic, t_statistic)):
        assert list(got) == list(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=rel, abs=1e-300)
    # far in the tail, d ln p / d ln t grows like t**2 and amplifies the
    # last bits of t: each p-value must be the p of some t within rel of t
    assert list(boot.p_value) == list(p_value)
    df = len(next(iter(data.values()))) - 1
    for key, t in t_statistic.items():
        low, high = sorted(t_two_tailed_p(t * (1.0 + s * rel), df) for s in (-1.0, 1.0))
        assert low <= boot.p_value[key] <= high
    return boot


@pytest.mark.parametrize("scheme", ["path_weighting", "centroid"])
def test_stacked_bootstrap_matches_scalar_loop_on_multi_indicator_models(scheme):
    rng = np.random.default_rng(53 if scheme == "centroid" else 59)
    for trial in range(4):
        spec, data = random_multi_indicator_spec_and_data(rng, scheme, n=int(rng.integers(30, 90)))
        assert_matches_scalar_loop(data, spec, samples=120, seed=trial)


def interleaved_spec_and_data(rng, scheme, n):
    """Blocks listed out of topological order (E -> C -> D -> {A, B}, plus
    E -> D), of 1-3 indicators, where the same-sized blocks A, B and C, E
    are not adjacent and D's predecessors C, E (indices 0 and 4) and
    successors A, B (indices 1 and 3) interleave in index order."""
    sizes = {"C": 2, "A": 1, "D": 3, "B": 1, "E": 2}
    E = rng.normal(size=n)
    C = 0.6 * E + rng.normal(size=n)
    D = 0.5 * C + 0.3 * E + rng.normal(size=n)
    latent = {"E": E, "C": C, "D": D, "A": 0.7 * D + rng.normal(size=n), "B": -0.5 * D + rng.normal(size=n)}
    blocks, data = [], {}
    for name, size in sizes.items():
        indicators = tuple(f"{name.lower()}_{k}" for k in range(size))
        for k, ind in enumerate(indicators):
            sign = -1.0 if (name, k) == ("D", 1) else 1.0
            data[ind] = sign * rng.uniform(0.5, 3.0) * (latent[name] + rng.normal(0.0, 0.7, n)) + rng.uniform(-5, 5)
        blocks.append(LatentBlock(name, indicators))
    paths = (("E", "C"), ("C", "D"), ("E", "D"), ("D", "A"), ("D", "B"))
    return PathModelSpec(tuple(blocks), paths, inner_scheme=scheme), data


@pytest.mark.parametrize("scheme", ["path_weighting", "centroid"])
def test_out_of_order_blocks_with_interleaved_neighbours_match_scalar_loop(scheme):
    rng = np.random.default_rng(113 if scheme == "centroid" else 127)
    for trial in range(3):
        spec, data = interleaved_spec_and_data(rng, scheme, n=int(rng.integers(40, 120)))
        model = _CompiledModel(spec)
        assert model.pred[model.index["D"]] == [0, 4] and model.succ[model.index["D"]] == [1, 3]
        assert assert_fit_equals_scalar_fit(data, spec).converged
        assert_matches_scalar_loop(data, spec, samples=120, seed=trial)


def test_sign_alignment_sums_each_block_in_indicator_order():
    # the lone replicate's dot product, sum(full * replicate) in indicator
    # order, is (-1 - 2**-53) + 1 == 0 here, so the block keeps its sign;
    # summed as -1 + (-2**-53 + 1) it would be negative
    spec = PathModelSpec(
        blocks=(LatentBlock("X", ("x1", "x2", "x3")), LatentBlock("Y", ("y",))),
        paths=(("X", "Y"),),
    )
    full = np.ones(4)
    loadings = np.array([[-1.0, -2.0 ** -53, 1.0, -0.5], [-1.0, -2.0 ** -53, 0.5, 0.5]])
    want = [[1.0 if sum(full[:3] * row[:3]) >= 0.0 else -1.0, 1.0 if row[3] >= 0.0 else -1.0] for row in loadings]
    assert want == [[1.0, -1.0], [-1.0, 1.0]]
    assert _sign_alignment(full, loadings, _CompiledModel(spec)).tolist() == want


def demo_models():
    """The demo panel's pooled observations, the specs of the demo
    configuration's path models and its bootstrap seed."""
    document = make_demo_config()
    panel = make_demo_panel()
    data = {v.name: panel.values[:, :, i].reshape(-1) for i, v in enumerate(panel.variables)}
    specs = [
        PathModelSpec(
            tuple(LatentBlock(b["latent"], tuple(b["indicators"])) for b in model["blocks"]),
            tuple(tuple(p) for p in model["paths"]),
        )
        for model in document["pls"]["models"]
    ]
    return data, specs, document["pls"]["bootstrap"]["seed"]


def test_stacked_bootstrap_equals_scalar_loop_on_demo_models():
    data, specs, seed = demo_models()
    for spec in specs:
        assert_matches_scalar_loop(data, spec, samples=100, seed=seed)


def test_stacked_bootstrap_redraws_discrete_resamples_like_scalar_loop():
    rng = np.random.default_rng(61)
    x = np.array([1.0, 1.0] + [0.0] * 10)
    y = x + rng.normal(size=12)
    boot = assert_matches_scalar_loop({"x": x, "y": y}, two_block_spec(), samples=200, seed=5)
    assert boot.redraws > 0


def test_bootstrap_from_given_counts_equals_drawing_them_and_redraws_alike():
    rng = np.random.default_rng(61)
    x = np.array([1.0, 1.0] + [0.0] * 10)
    data = {"x": x, "y": x + rng.normal(size=12)}
    counts = resample_counts(12, 200, 5)
    assert counts.dtype == np.uint8 and not counts.flags.writeable
    given = bootstrap_significance(fit_path_model(data, two_block_spec()), samples=200, seed=5, counts=counts)
    assert given.redraws > 0
    assert given == bootstrap_significance(fit_path_model(data, two_block_spec()), samples=200, seed=5)


@pytest.mark.parametrize("n, samples, seed", [(1, 101, 3), (2, 101, 3), (3, 130, 3), (12, 101, 4), (270, 500, 2),
                                              (720, 3 * REPLICATE_BLOCK + 5, 0)])
def test_first_draws_are_rows_of_one_generator(n, samples, seed):
    counts = resample_counts(n, samples, seed)
    assert samples % REPLICATE_BLOCK
    rng = random.Random(seed)
    assert np.array_equal(counts, _counts(np.array([scalar_rows(rng, n, n) for _ in range(samples)])))
    # a replicate's first draw does not depend on how many are drawn
    assert np.array_equal(counts, resample_counts(n, samples + 37, seed)[:samples])


class CountingRandom(random.Random):
    """random.Random that counts the 32-bit words drawn from it."""

    words = 0

    def getrandbits(self, k):
        self.words += -(-k // 32)
        return super().getrandbits(k)


@pytest.mark.parametrize("n", [1, 2, 3, 270, 720, 2 ** 31 + 1])
def test_bulk_draws_equal_the_word_at_a_time_draws(n):
    for seed in (0, 9):
        bulk, scalar = CountingRandom(seed), CountingRandom(seed)
        rows = _draw_rows(bulk, n, 3000)
        assert rows.tolist() == scalar_rows(scalar, n, 3000)
        assert rows.min() >= 0 and rows.max() < n
        # both read the same words and no more: 2**32 mod n of the 2**32
        # words are rejected, about half of them for n = 2**31 + 1
        assert bulk.words == scalar.words and bulk.getrandbits(32) == scalar.getrandbits(32)
        if n == 2 ** 31 + 1:
            assert 0.45 < 3000 / scalar.words < 0.55
        # the first rows do not depend on how many are drawn
        assert np.array_equal(_draw_rows(random.Random(seed), n, 1000), rows[:1000])


def test_redraw_streams_are_not_the_first_draw_stream():
    # each replicate redraws from a stream keyed by the seed and its index:
    # none replays the first draws' stream or another replicate's
    first = np.array(scalar_rows(random.Random(5), 12, 100 * 12)).reshape(100, 12)
    redraw = _draw_rows(_redraw_stream(5, 0), 12, 100 * 12).reshape(100, 12)
    assert not (redraw[:, None, :] == first[None, :, :]).all(axis=2).any()
    words = [[_redraw_stream(seed, i).getrandbits(64) for i in range(50)] for seed in (0, 5)]
    assert len({*words[0], *words[1], random.Random(0).getrandbits(64), random.Random(5).getrandbits(64)}) == 102


@pytest.mark.parametrize("shape", [(199, 12), (200, 11), (200,)])
def test_bootstrap_rejects_counts_of_the_wrong_shape(shape):
    x = np.random.default_rng(62).normal(size=12)
    est = fit_path_model({"x": x, "y": -x ** 2}, two_block_spec())
    with pytest.raises(UsageError, match="bootstrap counts have shape"):
        bootstrap_significance(est, samples=200, seed=5, counts=np.ones(shape, dtype=np.uint8))


def test_stacked_bootstrap_redraws_collinear_resamples_like_scalar_loop():
    # x2 differs from x1 in one row only: resamples that miss it make the
    # predecessors of Y identical, and those replicates are redrawn
    rng = np.random.default_rng(89)
    x1 = rng.normal(size=12)
    x2 = x1.copy()
    x2[0] += 1.0
    data = {"x1": x1, "x2": x2, "y": x1 + rng.normal(size=12)}
    spec = PathModelSpec(
        blocks=(LatentBlock("X1", ("x1",)), LatentBlock("X2", ("x2",)), LatentBlock("Y", ("y",))),
        paths=(("X1", "Y"), ("X2", "Y")),
    )
    boot = assert_matches_scalar_loop(data, spec, samples=150, seed=3)
    assert boot.redraws > 0


def test_stacked_bootstrap_aligns_replicate_orientation_like_scalar_loop():
    # loadings of opposite sign and equal size: resamples orient X either way
    rng = np.random.default_rng(83)
    latent = rng.normal(size=60)
    data = {
        "x1": latent + rng.normal(0.0, 0.5, 60),
        "x2": -latent + rng.normal(0.0, 0.5, 60),
        "y": 0.6 * latent + rng.normal(0.0, 0.8, 60),
    }
    spec = PathModelSpec(
        blocks=(LatentBlock("X", ("x1", "x2")), LatentBlock("Y", ("y",))),
        paths=(("X", "Y"),),
    )
    assert_matches_scalar_loop(data, spec, samples=150, seed=2)


@pytest.mark.parametrize("block", [1, 7, 24, REPLICATE_BLOCK])
def test_stacked_bootstrap_sample_count_not_a_multiple_of_the_stack(monkeypatch, block):
    import paneleff.pls as pls_module

    rng = np.random.default_rng(67)
    x = rng.normal(size=60)
    y = 0.3 * x + rng.normal(size=60)
    monkeypatch.setattr(pls_module, "REPLICATE_BLOCK", block)
    assert_matches_scalar_loop({"x": x, "y": y}, two_block_spec(), samples=101, seed=4)


def test_unconverged_replicates_are_kept_as_fitted(monkeypatch):
    import paneleff.pls as pls_module

    rng = np.random.default_rng(71)
    spec, data = random_multi_indicator_spec_and_data(rng, "path_weighting", n=50)
    monkeypatch.setattr(pls_module, "MAX_ITERATIONS", 2)
    boot = assert_matches_scalar_loop(data, spec, samples=100, seed=8)
    assert boot.unconverged > 0


def test_bootstrap_redraw_cap_still_raises():
    # eight one-hot indicators: almost no resample of 12 rows draws every hot row
    data = {f"x{k}": np.eye(12)[k] for k in range(8)}
    data["y"] = np.random.default_rng(73).normal(size=12)
    spec = PathModelSpec(
        blocks=(LatentBlock("X", tuple(f"x{k}" for k in range(8))), LatentBlock("Y", ("y",))),
        paths=(("X", "Y"),),
    )
    est = fit_path_model(data, spec)
    with pytest.raises(DegenerateColumnError, match="more than 1000 degenerate resamples"):
        bootstrap_significance(est, samples=100, seed=0)


def test_bootstrap_reuses_a_given_full_sample_fit(monkeypatch):
    import paneleff.pls as pls_module

    rng = np.random.default_rng(79)
    x = rng.normal(size=40)
    y = 0.5 * x + rng.normal(size=40)
    data = {"x": x, "y": y}
    full = fit_path_model(data, two_block_spec())
    model, sample = full.fitted
    assert (model.spec, sample.n) == (two_block_spec(), 40)
    prepared = []

    class CountingSample(pls_module._Sample):
        def __init__(self, X_raw):
            prepared.append(X_raw.shape)
            super().__init__(X_raw)

    monkeypatch.setattr(pls_module, "_Sample", CountingSample)
    given = bootstrap_significance(full, samples=100, seed=6)
    assert prepared == []
    assert given == bootstrap_significance(fit_path_model(data, two_block_spec()), samples=100, seed=6)
    assert prepared == [(40, 2)]


# --- design builder and OLS ---------------------------------------------------

def indicator_panel(columns: dict, periods=("1998",)):
    names = list(columns)
    n = len(next(iter(columns.values())))
    values = np.zeros((n, len(periods), len(names)))
    for j, name in enumerate(names):
        values[:, :, j] = np.asarray(columns[name], float).reshape(n, len(periods))
    schema = tuple(VariableDef(n, "indicator") for n in names)
    return PanelDataset(tuple(f"D{i}" for i in range(n)), tuple(periods), schema, values)


def test_cobb_douglas_hand_example():
    panel = indicator_panel({"ict": [math.e, math.e ** 2], "h": [math.e, math.e]})
    design = build_cobb_douglas_design(panel, "ict", ["h"])
    assert design.columns == ("ln_ict", "ln_h", "ln_ict*ln_h")
    assert design.values[:, 0] == pytest.approx([1.0, 2.0])
    assert design.values[:, 1] == pytest.approx([1.0, 1.0])
    assert design.values[:, 2] == pytest.approx([1.0, 2.0])


def test_cobb_douglas_column_count():
    rng = np.random.default_rng(51)
    cols = {name: rng.uniform(1, 9, 6) for name in ("ict", "h1", "h2", "h3", "h4")}
    panel = indicator_panel(cols)
    assert len(build_cobb_douglas_design(panel, "ict", ["h1"]).columns) == 3
    design = build_cobb_douglas_design(panel, "ict", ["h1", "h2", "h3", "h4"])
    assert len(design.columns) == 9


def test_cobb_douglas_interactions_are_exact_products():
    rng = np.random.default_rng(53)
    cols = {name: rng.uniform(0.5, 20, 8) for name in ("ict", "a", "b")}
    panel = indicator_panel(cols)
    design = build_cobb_douglas_design(panel, "ict", ["a", "b"])
    assert np.array_equal(design.column("ln_ict*ln_a"), design.column("ln_ict") * design.column("ln_a"))
    assert np.array_equal(design.column("ln_ict*ln_b"), design.column("ln_ict") * design.column("ln_b"))


def test_cobb_douglas_nonpositive_value_is_domain_error():
    panel = indicator_panel({"ict": [[1.0, 2.0], [-2.0, 3.0], [4.0, 5.0]], "h": [[1.0, 1.0]] * 3},
                            periods=("1998", "1999"))
    with pytest.raises(DomainError) as exc:
        build_cobb_douglas_design(panel, "ict", ["h"])
    assert "'ict' is not strictly positive at dmu=D1 period=1998" in str(exc.value)


def test_ols_exact_fit():
    x = np.arange(10.0)[:, None]
    fit = ols(x, 2.0 * np.arange(10.0))
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)


def test_ols_with_intercept():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    fit = ols(X, 1.0 + 3.0 * np.arange(10.0))
    assert fit.coefficients == pytest.approx([1.0, 3.0], abs=1e-10)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(59)
    X = rng.normal(size=(20, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=20)
    fit = ols(X, y)
    assert np.abs(X.T @ fit.residuals).max() < 1e-8


def test_ols_matches_lstsq():
    rng = np.random.default_rng(61)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    fit = ols(X, y)
    assert fit.coefficients == pytest.approx(ols_by_lstsq(X, y), abs=1e-9)


def test_ols_collinearity_names_dependent_columns():
    rng = np.random.default_rng(67)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    X = np.column_stack([a, b, a + b])
    with pytest.raises(CollinearityError) as exc:
        ols(X, rng.normal(size=12))
    assert "x2" in exc.value.columns


def test_ols_requires_more_rows_than_columns():
    with pytest.raises(UsageError):
        ols(np.ones((3, 3)), np.ones(3))
