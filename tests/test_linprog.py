import numpy as np
import pytest

from oracles import lp_enumeration_oracle, random_lp
from paneleff.errors import UsageError
from paneleff.linprog import LpProblem, LpSolution, format_lp, solve_lp


def max_problem(c, A, b):
    return LpProblem(c, "max", [(A[i], "<=", b[i]) for i in range(len(b))])


def test_single_variable_upper_bound():
    s = solve_lp(LpProblem([1.0], "max", [([1.0], "<=", 1.0)]))
    assert s.status == "optimal"
    assert s.objective_value == pytest.approx(1.0, abs=1e-12)
    assert s.primal == pytest.approx([1.0])


def test_infeasible_negative_bound():
    s = solve_lp(LpProblem([1.0], "max", [([1.0], "<=", -1.0)]))
    assert s.status == "infeasible"
    assert s.primal is None


def test_unbounded_without_constraints():
    assert solve_lp(LpProblem([1.0], "max", [])).status == "unbounded"


def test_unbounded_direction():
    # y unconstrained from above
    p = LpProblem([0.0, 1.0], "max", [([1.0, 0.0], "<=", 2.0)])
    assert solve_lp(p).status == "unbounded"


def test_equality_and_free_variable():
    p = LpProblem(
        [1.0, 1.0],
        "min",
        [([1.0, 1.0], "=", 2.0), ([1.0, -1.0], ">=", -4.0)],
        lower_bounds=[0.0, -np.inf],
    )
    s = solve_lp(p)
    assert s.status == "optimal"
    assert s.objective_value == pytest.approx(2.0, abs=1e-9)


def test_free_variable_can_go_negative():
    # min y s.t. y >= -3, y free
    p = LpProblem([1.0], "min", [([1.0], ">=", -3.0)], lower_bounds=[-np.inf])
    s = solve_lp(p)
    assert s.status == "optimal"
    assert s.primal[0] == pytest.approx(-3.0, abs=1e-9)


def test_dimension_mismatch_rejected():
    with pytest.raises(UsageError):
        LpProblem([1.0, 2.0], "max", [([1.0], "<=", 1.0)])


def test_bad_relation_rejected():
    with pytest.raises(UsageError):
        LpProblem([1.0], "max", [([1.0], "<", 1.0)])


def test_finite_nonzero_lower_bound_rejected():
    with pytest.raises(UsageError):
        LpProblem([1.0], "max", [([1.0], "<=", 1.0)], lower_bounds=[2.0])


def test_oracle_agreement_on_random_lps():
    rng = np.random.default_rng(1234)
    for _ in range(120):
        c, A, b = random_lp(rng)
        status, value = lp_enumeration_oracle(c, A, b)
        s = solve_lp(max_problem(c, A, b))
        assert s.status == status
        if status == "optimal":
            assert s.objective_value == pytest.approx(value, abs=1e-8)


def test_strong_duality_and_complementary_slackness():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 40:
        c, A, b = random_lp(rng)
        s = solve_lp(max_problem(c, A, b))
        if s.status != "optimal":
            continue
        checked += 1
        scale = max(1.0, abs(s.objective_value))
        assert abs(s.objective_value - b @ s.dual) <= 1e-6 * scale
        # dual feasibility of max c.x, A x <= b, x >= 0: y >= 0, A'y >= c
        assert np.all(s.dual >= -1e-9)
        assert np.all(A.T @ s.dual - c >= -1e-7 * scale)
        for i in range(len(b)):
            slack = b[i] - A[i] @ s.primal
            assert abs(slack * s.dual[i]) <= 1e-6 * scale


def test_free_variable_split_matches_explicit_columns():
    # a free x_j is solved as x_j+ - x_j- in adjacent columns; writing those
    # columns out by hand must give the same pivots and the same bits
    rng = np.random.default_rng(47)
    for _ in range(60):
        c, A, b = random_lp(rng)
        rels = rng.choice(["<=", "=", ">="], size=len(b))
        sense = str(rng.choice(["min", "max"]))
        free = rng.random(len(c)) < 0.4
        split = np.repeat(np.arange(len(c)), np.where(free, 2, 1))
        sign = np.where(np.r_[False, split[1:] == split[:-1]], -1.0, 1.0)
        p1 = LpProblem(c, sense, [(A[i], rels[i], b[i]) for i in range(len(b))],
                       lower_bounds=np.where(free, -np.inf, 0.0))
        p2 = LpProblem(c[split] * sign, sense,
                       [(A[i][split] * sign, rels[i], b[i]) for i in range(len(b))])
        s1, s2 = solve_lp(p1), solve_lp(p2)
        assert (s1.status, s1.iterations) == (s2.status, s2.iterations)
        if s1.status == "optimal":
            x2 = np.zeros(len(c))
            np.add.at(x2, split, sign * s2.primal)
            assert np.array_equal(s1.primal, x2)
            assert np.array_equal(s1.dual, s2.dual)


def test_row_permutation_invariance():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 25:
        c, A, b = random_lp(rng)
        cons = [(A[i], "<=", b[i]) for i in range(len(b))]
        s1 = solve_lp(LpProblem(c, "max", cons))
        if s1.status != "optimal":
            continue
        checked += 1
        perm = rng.permutation(len(cons))
        s2 = solve_lp(LpProblem(c, "max", [cons[i] for i in perm]))
        assert s2.status == "optimal"
        assert abs(s1.objective_value - s2.objective_value) <= 1e-9


def test_deterministic_resolve():
    rng = np.random.default_rng(5)
    c, A, b = random_lp(rng)
    p = max_problem(c, A, b)
    s1, s2 = solve_lp(p), solve_lp(p)
    assert s1.status == s2.status
    if s1.status == "optimal":
        assert np.array_equal(s1.primal, s2.primal)
        assert np.array_equal(s1.dual, s2.dual)
        assert s1.objective_value == s2.objective_value


def test_degenerate_problem_terminates():
    # many redundant rows through the origin force degenerate pivots
    n = 6
    cons = [([1.0] * n, "<=", 0.0)] * 8 + [([1.0] * n, "<=", 5.0)]
    p = LpProblem([1.0] * n, "max", cons)
    s = solve_lp(p)
    assert s.status == "optimal"
    assert s.objective_value == pytest.approx(0.0, abs=1e-9)


def test_solution_is_frozen_dataclass():
    s = solve_lp(LpProblem([1.0], "max", [([1.0], "<=", 1.0)]))
    assert isinstance(s, LpSolution)
    with pytest.raises(AttributeError):
        s.status = "hacked"


def test_format_lp_dump():
    p = LpProblem(
        [3.0, 2.0],
        "max",
        [([1.0, 1.0], "<=", 4.0), ([1.0, 3.0], ">=", 6.0)],
        lower_bounds=[0.0, -np.inf],
    )
    text = format_lp(p)
    assert "maximize" in text
    assert "c0:" in text and "<= 4" in text
    assert ">= 6" in text
    assert "x1 free" in text
