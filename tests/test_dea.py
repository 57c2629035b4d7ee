from types import SimpleNamespace

import numpy as np
import pytest

from oracles import dea_ratio_oracle, lp_outcome, same_lp_outcome, scalar_solve_lp
from paneleff import dea
from paneleff.config import parse_config
from paneleff.dea import DeaSpec, _envelopment_lps, run_panel_dea, score_period, solve_bcc, solve_ccr
from paneleff.errors import DeaConsistencyError, LpSolverError, UsageError, ValidationFailedError
from paneleff.linprog import LpProblem
from paneleff.panel_data import CrossSection, PanelDataset, VariableDef, slice_period
from paneleff.synthetic import make_demo_config, make_demo_panel


def cross_section(inputs, outputs, period="t"):
    X = np.asarray(inputs, float)
    Y = np.asarray(outputs, float)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    return CrossSection(period, tuple(f"d{i}" for i in range(X.shape[0])), X, Y)


def random_cs(rng, n=10, m=3, s=2):
    return cross_section(rng.uniform(1, 10, (n, m)), rng.uniform(1, 10, (n, s)))


def test_single_dmu_is_efficient_and_its_own_peer():
    cs = cross_section([2.0], [3.0])
    r = solve_ccr(cs, "d0")
    assert r.score == 1.0
    assert r.peers == (0,)
    assert r.lambdas[0] == pytest.approx(1.0)


def test_two_dmu_ratio_example():
    cs = cross_section([2.0, 4.0], [4.0, 4.0])
    assert solve_ccr(cs, "d0").score == 1.0
    assert solve_ccr(cs, "d1").score == pytest.approx(0.5, abs=1e-9)


def test_duplicating_an_efficient_dmu_changes_no_score():
    rng = np.random.default_rng(21)
    cs = random_cs(rng, n=8)
    base = [solve_ccr(cs, d).score for d in cs.dmus]
    best = int(np.argmax(base))
    X2 = np.vstack([cs.inputs, cs.inputs[best]])
    Y2 = np.vstack([cs.outputs, cs.outputs[best]])
    cs2 = cross_section(X2, Y2)
    for i, dmu in enumerate(cs.dmus):
        assert solve_ccr(cs2, dmu).score == pytest.approx(base[i], abs=1e-9)


def test_bcc_boundary_points_example():
    cs = cross_section([1.0, 2.0, 4.0], [1.0, 3.0, 4.0])
    for dmu in cs.dmus:
        r = solve_bcc(cs, dmu)
        assert r.score == 1.0
        assert r.lambdas.sum() == pytest.approx(1.0, abs=1e-9)


def test_bcc_dominates_ccr():
    rng = np.random.default_rng(77)
    for _ in range(20):
        cs = random_cs(rng, n=8, m=2, s=2)
        for dmu in cs.dmus:
            assert solve_bcc(cs, dmu).score >= solve_ccr(cs, dmu).score - 1e-9


def test_bcc_single_dmu_efficient():
    cs = cross_section([5.0], [1.0])
    assert solve_bcc(cs, "d0").score == 1.0


def test_ratio_oracle_on_random_single_ratio_instances():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        x = rng.uniform(0.5, 20, n)
        y = rng.uniform(0.5, 20, n)
        cs = cross_section(x, y)
        expected = dea_ratio_oracle(x, y)
        for i, dmu in enumerate(cs.dmus):
            assert solve_ccr(cs, dmu).score == pytest.approx(expected[i], abs=1e-9)


def test_at_least_one_efficient_dmu_per_cross_section():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cs = random_cs(rng)
        scores = [solve_ccr(cs, d).score for d in cs.dmus]
        assert max(scores) == 1.0


def test_units_invariance_ccr_and_bcc():
    rng = np.random.default_rng(13)
    cs = random_cs(rng, n=8, m=2, s=2)
    base_ccr = [solve_ccr(cs, d).score for d in cs.dmus]
    base_bcc = [solve_bcc(cs, d).score for d in cs.dmus]
    for factor in (1e-3, 1e3):
        X2 = cs.inputs.copy()
        X2[:, 1] *= factor
        cs2 = cross_section(X2, cs.outputs)
        for i, dmu in enumerate(cs.dmus):
            assert solve_ccr(cs2, dmu).score == pytest.approx(base_ccr[i], abs=1e-6)
            assert solve_bcc(cs2, dmu).score == pytest.approx(base_bcc[i], abs=1e-6)


def test_dominated_dmu_insertion_changes_nothing():
    rng = np.random.default_rng(17)
    cs = random_cs(rng, n=7, m=2, s=2)
    base = [solve_ccr(cs, d).score for d in cs.dmus]
    dominated_x = cs.inputs[0] * 1.5
    dominated_y = cs.outputs[0] * 0.5
    cs2 = cross_section(np.vstack([cs.inputs, dominated_x]), np.vstack([cs.outputs, dominated_y]))
    for i, dmu in enumerate(cs.dmus):
        assert solve_ccr(cs2, dmu).score == pytest.approx(base[i], abs=1e-9)


def assert_weights_certify_the_score(cs, i, r, tol=1e-7):
    """The multiplier program's constraints and objective at (u, v, w)."""
    u, v = r.multiplier_u, r.multiplier_v
    assert (r.scale_offset is None) == (r.returns_to_scale == "CRS")
    w = 0.0 if r.scale_offset is None else r.scale_offset
    assert np.all(u >= -1e-9) and np.all(v >= -1e-9)
    X, Y = cs.inputs, cs.outputs
    if r.orientation == "input":
        # max u.y_o + w  s.t.  v.x_o = 1 ,  u.y_j - v.x_j + w <= 0
        assert v @ X[i] == pytest.approx(1.0, abs=tol)
        assert u @ Y[i] + w == pytest.approx(r.score, abs=1e-6)
        assert np.all(Y @ u - X @ v + w <= tol)
    else:
        # min v.x_o + w  s.t.  u.y_o = 1 ,  v.x_j - u.y_j + w >= 0
        assert u @ Y[i] == pytest.approx(1.0, abs=tol)
        assert v @ X[i] + w == pytest.approx(r.score, abs=1e-6)
        assert np.all(X @ v - Y @ u + w >= -tol)


@pytest.mark.parametrize("orientation", ["input", "output"])
@pytest.mark.parametrize("rts", ["CRS", "VRS"])
def test_multiplier_weights_reproduce_the_score(rts, orientation):
    rng = np.random.default_rng(23)
    cs = random_cs(rng, n=6, m=2, s=2)
    solve = solve_ccr if rts == "CRS" else solve_bcc
    for i, dmu in enumerate(cs.dmus):
        assert_weights_certify_the_score(cs, i, solve(cs, dmu, orientation))


def test_strongly_efficient_dmu_is_its_own_sole_peer():
    rng = np.random.default_rng(29)
    cs = random_cs(rng, n=8)
    for i, dmu in enumerate(cs.dmus):
        r = solve_ccr(cs, dmu)
        if r.score == 1.0 and not r.weakly_efficient:
            assert r.peers == (i,)
            assert r.lambdas[i] == pytest.approx(1.0)


def test_output_orientation_is_reciprocal_under_crs():
    rng = np.random.default_rng(31)
    cs = random_cs(rng, n=6, m=2, s=2)
    for dmu in cs.dmus:
        theta = solve_ccr(cs, dmu, orientation="input").score
        phi = solve_ccr(cs, dmu, orientation="output").score
        assert phi >= 1.0
        assert phi == pytest.approx(1.0 / theta, rel=1e-6)


def test_output_orientation_vrs_bounded_by_crs():
    # the VRS envelopment's feasible set is a subset of the CRS one
    rng = np.random.default_rng(53)
    cs = random_cs(rng, n=8, m=2, s=2)
    for dmu in cs.dmus:
        phi_vrs = solve_bcc(cs, dmu, orientation="output").score
        phi_crs = solve_ccr(cs, dmu, orientation="output").score
        assert 1.0 <= phi_vrs <= phi_crs + 1e-9


def make_panel(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    values = np.stack([x, y], axis=2)
    dmus = tuple(f"D{i}" for i in range(values.shape[0]))
    periods = tuple(str(1998 + p) for p in range(values.shape[1]))
    schema = (VariableDef("x", "dea_input"), VariableDef("y", "dea_output"))
    return PanelDataset(dmus, periods, schema, values)


def test_run_panel_dea_shapes_and_means():
    rng = np.random.default_rng(37)
    panel = make_panel(rng.uniform(1, 9, (27, 10)), rng.uniform(1, 9, (27, 10)))
    result = run_panel_dea(panel, DeaSpec(("x",), ("y",)))
    assert result.scores.shape == (27, 10)
    assert result.means.shape == (27,)
    assert np.all(result.scores > 0) and np.all(result.scores <= 1)
    for d in range(27):
        assert result.means[d] == result.scores[d].sum() / 10


def test_planted_dominant_dmu_has_mean_exactly_one():
    rng = np.random.default_rng(41)
    x = rng.uniform(1, 9, (10, 10))
    ratio = rng.uniform(0.2, 0.9, (10, 10))
    ratio[3] = 1.0  # best ratio in every period
    y = x * ratio
    panel = make_panel(x, y)
    result = run_panel_dea(panel, DeaSpec(("x",), ("y",)))
    assert result.means[3] == 1.0
    assert np.all(result.means[np.arange(10) != 3] < 1.0)


def test_constant_data_gives_identical_per_period_scores():
    rng = np.random.default_rng(43)
    x = np.repeat(rng.uniform(1, 9, (8, 1)), 10, axis=1)
    y = np.repeat(rng.uniform(1, 9, (8, 1)), 10, axis=1)
    panel = make_panel(x, y)
    result = run_panel_dea(panel, DeaSpec(("x",), ("y",)))
    for d in range(8):
        assert np.all(result.scores[d] == result.scores[d, 0])


def test_run_panel_dea_requires_valid_data():
    x = np.ones((3, 2))
    x[1, 1] = -1.0
    panel = make_panel(x, np.ones((3, 2)))
    with pytest.raises(ValidationFailedError):
        run_panel_dea(panel, DeaSpec(("x",), ("y",)))


def test_unknown_dmu_rejected():
    cs = cross_section([1.0], [1.0])
    with pytest.raises(UsageError):
        solve_ccr(cs, "nope")


def test_spec_validation():
    with pytest.raises(UsageError):
        DeaSpec((), ("y",))
    with pytest.raises(UsageError):
        DeaSpec(("x",), ("x",))
    with pytest.raises(UsageError):
        DeaSpec(("x",), ("y",), returns_to_scale="DRS")


def wide_panel(seed, n=40, periods=4):
    """The 40-DMU, 3-input, 2-output panel of periods 2001-2004 that the
    dea_wide benchmark generates from seed: inputs scale with a DMU size
    U(10, 1000), outputs are the size times an efficiency draw U(0.4, 1),
    each jittered by U(0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    size = rng.uniform(10.0, 1000.0, n)
    values = np.empty((n, periods, 5))
    for p in range(periods):
        values[:, p, :3] = size[:, None] * rng.uniform(0.5, 1.5, (n, 3))
        values[:, p, 3:] = rng.uniform(0.4, 1.0, (n, 1)) * size[:, None] * rng.uniform(0.5, 1.5, (n, 2))
    schema = tuple(VariableDef(f"x{i + 1}", "dea_input") for i in range(3)) + tuple(
        VariableDef(f"y{r + 1}", "dea_output") for r in range(2))
    return PanelDataset(tuple(f"D{d + 1:02d}" for d in range(n)),
                        tuple(str(2001 + p) for p in range(periods)), schema, values)


# the analyses the dea_wide benchmark configures
WIDE_SPECS = (DeaSpec(("x1", "x2", "x3"), ("y1", "y2"), "CRS", "input"),
              DeaSpec(("x1", "x2", "x3"), ("y1", "y2"), "VRS", "output"))


def wide_panel_period_2002(seed=108):
    panel = wide_panel(seed, periods=2)
    return PanelDataset(panel.dmus, ("2002",), panel.variables, panel.values[:, 1:])


def test_vrs_output_scores_on_a_wide_panel_that_once_failed():
    # an efficient DMU (D06) whose separate multiplier program the solver
    # once called unbounded, failing the whole pipeline run
    panel = wide_panel_period_2002()
    spec = DeaSpec(("x1", "x2", "x3"), ("y1", "y2"), "VRS", "output")
    result = run_panel_dea(panel, spec)
    assert np.all(result.scores >= 1.0)
    cs = slice_period(panel, "2002", spec)
    r = solve_bcc(cs, "D06", "output")
    assert r.score == result.scores[5, 0]
    assert_weights_certify_the_score(cs, 5, r)


def test_score_period_equals_full_solves_on_the_demo_panel():
    panel = make_demo_panel()
    config = parse_config(make_demo_config())
    for analysis in config.dea_analyses:
        spec = analysis.spec
        solve = solve_ccr if spec.returns_to_scale == "CRS" else solve_bcc
        for period in panel.periods:
            cs = slice_period(panel, period, spec)
            scores = score_period(cs, spec)
            assert scores.tolist() == [solve(cs, d, spec.orientation).score for d in cs.dmus]


def assert_stack_equals_the_scalar_reference(cs, spec):
    c, sense, A, relations, b = _envelopment_lps(cs.inputs, cs.outputs, np.arange(len(cs.dmus)),
                                                 spec.returns_to_scale, spec.orientation)
    for A_k, b_k, got in zip(A, b, dea.solve_stack(c, sense, A, relations, b)):
        p = LpProblem(c, sense, zip(A_k, relations, b_k))
        assert same_lp_outcome(got, lp_outcome(scalar_solve_lp, p))


def test_period_stacks_equal_the_scalar_reference_on_the_demo_panel():
    panel = make_demo_panel()
    for analysis in parse_config(make_demo_config()).dea_analyses:
        spec = analysis.spec
        for period in panel.periods:
            assert_stack_equals_the_scalar_reference(slice_period(panel, period, spec), spec)


@pytest.mark.parametrize("seed", [0, 83, 108, 186])
def test_period_stacks_equal_the_scalar_reference_on_wide_panels(seed):
    # seeds 83, 108 and 186 once failed the pipeline with a false "unbounded"
    panel = wide_panel(seed)
    for spec in WIDE_SPECS:
        for period in panel.periods:
            assert_stack_equals_the_scalar_reference(slice_period(panel, period, spec), spec)


def test_score_period_raises_for_the_first_failing_dmu(monkeypatch):
    # a zero output leaves phi unbounded under output orientation
    Y = np.array([2.0, 3.0, 0.0, 4.0, 0.0])
    cs = cross_section([1.0, 2.0, 3.0, 4.0, 5.0], Y)
    spec = DeaSpec(("x",), ("y",), "CRS", "output")
    with pytest.raises(DeaConsistencyError, match="'d2'.*unbounded"):
        score_period(cs, spec)

    # a breakdown of a later DMU's program does not mask d2's failure, one
    # of an earlier DMU is raised as it is
    solve_stack = dea.solve_stack
    for position, expected in ((3, DeaConsistencyError), (1, LpSolverError)):
        def breaking(*stack, position=position):
            outcomes = solve_stack(*stack)
            outcomes[position] = LpSolverError("injected breakdown")
            return outcomes
        monkeypatch.setattr(dea, "solve_stack", breaking)
        with pytest.raises(expected):
            score_period(cs, spec)


def counting_stacks(monkeypatch) -> list:
    """Replace dea.solve_stack by one that records each stack's A."""
    stacks = []
    solve_stack = dea.solve_stack

    def counting(c, sense, A, relations, b):
        stacks.append(A)
        return solve_stack(c, sense, A, relations, b)

    monkeypatch.setattr(dea, "solve_stack", counting)
    return stacks


def test_demo_and_wide_periods_are_one_stack_each(monkeypatch):
    stacks = counting_stacks(monkeypatch)
    demo = make_demo_panel()
    for analysis in parse_config(make_demo_config()).dea_analyses:
        run_panel_dea(demo, analysis.spec)
    wide = wide_panel(0)
    for spec in WIDE_SPECS:
        run_panel_dea(wide, spec)
    assert [len(A) for A in stacks] == [27] * 2 * len(demo.periods) + [40] * 2 * len(wide.periods)


@pytest.mark.parametrize("seed", [0, 108])
def test_chunked_stacks_give_the_scores_of_one_stack(monkeypatch, seed):
    panel = wide_panel(seed)
    for spec in WIDE_SPECS:
        whole = run_panel_dea(panel, spec).scores
        stacks = counting_stacks(monkeypatch)
        monkeypatch.setattr(dea, "STACK_BYTES", 10_000)
        assert np.array_equal(run_panel_dea(panel, spec).scores, whole)
        assert len(stacks) >= 5 * len(panel.periods)
        assert all(A.nbytes <= 10_000 for A in stacks)
        monkeypatch.undo()


def test_a_period_of_a_thousand_dmus_is_solved_in_bounded_stacks(monkeypatch):
    # one stack of every DMU's program once took +450 MB at n = 1,000
    n = 1000
    seen, sizes = [], []

    def optimal(c, sense, A, relations, b):
        sizes.append(A.nbytes)
        seen.extend((-A[:, 0, 0]).tolist())  # the radial column holds -x_o
        return [SimpleNamespace(status="optimal", objective_value=1.0)] * len(A)

    monkeypatch.setattr(dea, "solve_stack", optimal)
    rng = np.random.default_rng(5)
    cs = cross_section(np.column_stack([np.arange(1.0, n + 1), rng.uniform(1, 10, (n, 2))]),
                       rng.uniform(1, 10, (n, 2)))
    assert score_period(cs, DeaSpec(("a", "b", "c"), ("y", "z"))).tolist() == [1.0] * n
    assert len(sizes) > 1 and max(sizes) <= dea.STACK_BYTES
    assert seen == list(range(1, n + 1))


def test_chunked_stacks_stop_at_the_first_failing_dmu(monkeypatch):
    # a zero output leaves phi unbounded under output orientation; with a
    # stack per program, d2 is raised and d3's and d4's are never solved
    cs = cross_section([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 0.0, 4.0, 0.0])
    stacks = counting_stacks(monkeypatch)
    monkeypatch.setattr(dea, "STACK_BYTES", 1)
    with pytest.raises(DeaConsistencyError, match="'d2'.*unbounded"):
        score_period(cs, DeaSpec(("x",), ("y",), "CRS", "output"))
    assert len(stacks) == 3


def test_a_solver_breakdown_names_its_period_and_dmu(monkeypatch):
    # an LpSolverError once reached the pipeline naming neither
    solve_stack = dea.solve_stack

    def breaking(*stack):
        outcomes = solve_stack(*stack)
        outcomes[2] = LpSolverError("injected breakdown", {"iterations": 7})
        return outcomes

    monkeypatch.setattr(dea, "solve_stack", breaking)
    panel = make_demo_panel()
    with pytest.raises(LpSolverError) as exc:
        run_panel_dea(panel, DeaSpec(("ict_spend",), ("ict_services",)))
    assert str(exc.value) == (f"period={panel.periods[0]}: envelopment program for dmu "
                              f"{panel.dmus[2]!r}: injected breakdown")
    assert exc.value.diagnostics == {"iterations": 7}


def test_slack_stage_runs_only_when_its_results_are_read(monkeypatch):
    solved = []
    solve_lp = dea.solve_lp
    monkeypatch.setattr(dea, "solve_lp", lambda problem: solved.append(problem) or solve_lp(problem))
    cs = cross_section([2.0, 4.0, 3.0], [4.0, 4.0, 1.0])
    r = solve_ccr(cs, "d1")
    assert r.score == pytest.approx(0.5) and solved == []
    assert r.peers == (0,)
    assert r.input_slacks.tolist() == [0.0] and not r.weakly_efficient
    assert len(solved) == 1
