import numpy as np
import pytest

from oracles import lp_enumeration_oracle, lp_outcome, random_lp, same_lp_outcome, scalar_solve_lp
from paneleff.errors import UsageError
from paneleff.linprog import LpProblem, LpSolution, solve_lp, solve_stack


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


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("c", [[2.0], [-2.0], [0.0], [1.0, 0.0, 3.0], [1.0, -1e-3, 3.0], [-1.0, 0.0, -3.0]])
def test_programs_without_constraints_equal_the_scalar_reference(sense, c):
    # no rows: unbounded when some c_j improves, otherwise optimal at x = 0
    # with an empty dual, in the stack and the reference alike
    p = LpProblem(c, sense, [])
    expected = lp_outcome(scalar_solve_lp, p)
    got = lp_outcome(solve_lp, p)
    assert same_lp_outcome(got, expected)
    improving = np.any(np.array(c) < 0.0) if sense == "min" else np.any(np.array(c) > 0.0)
    assert got.status == ("unbounded" if improving else "optimal")
    if got.status == "optimal":
        assert got.objective_value == 0.0 and np.array_equal(got.primal, np.zeros(len(c)))
        assert got.dual.shape == (0,)
    outcomes = solve_stack(c, sense, np.zeros((3, 0, len(c))), [], np.zeros((3, 0)))
    assert all(same_lp_outcome(o, expected) for o in outcomes)


def test_unbounded_direction():
    # y unconstrained from above
    p = LpProblem([0.0, 1.0], "max", [([1.0, 0.0], "<=", 2.0)])
    assert solve_lp(p).status == "unbounded"


def test_equality_and_free_variable():
    # min x + y s.t. x + y = 2, x - y >= -4, y free, written as y+ - y-
    p = LpProblem(
        [1.0, 1.0, -1.0],
        "min",
        [([1.0, 1.0, -1.0], "=", 2.0), ([1.0, -1.0, 1.0], ">=", -4.0)],
    )
    s = solve_lp(p)
    assert s.status == "optimal"
    assert s.objective_value == pytest.approx(2.0, abs=1e-9)


def test_free_variable_can_go_negative():
    # min y s.t. y >= -3, y free, written as y+ - y-
    p = LpProblem([1.0, -1.0], "min", [([1.0, -1.0], ">=", -3.0)])
    s = solve_lp(p)
    assert s.status == "optimal"
    assert s.primal[0] - s.primal[1] == pytest.approx(-3.0, abs=1e-9)


def test_dimension_mismatch_rejected():
    with pytest.raises(UsageError):
        LpProblem([1.0, 2.0], "max", [([1.0], "<=", 1.0)])


def test_bad_relation_rejected():
    with pytest.raises(UsageError):
        LpProblem([1.0], "max", [([1.0], "<", 1.0)])


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


def test_solution_is_frozen():
    s = solve_lp(LpProblem([1.0], "max", [([1.0], "<=", 1.0)]))
    assert isinstance(s, LpSolution)
    with pytest.raises(AttributeError):
        s.status = "hacked"


def random_family(rng, count, size=6):
    """Random programs of at most size variables and size rows, with mixed relations, either sense and rhs of either sign;
    every third is degenerate, with zero right-hand sides and its last row a copy of its first."""
    problems = []
    for i in range(count):
        c, A, b = random_lp(rng, max_vars=size, max_cons=size)
        rels = rng.choice(["<=", "=", ">="], size=len(b))
        if i % 3 == 0:
            b = np.where(rng.random(len(b)) < 0.5, 0.0, b)
            A[-1], b[-1], rels[-1] = A[0], b[0], rels[0]
        problems.append(LpProblem(c, str(rng.choice(["min", "max"])),
                                  [(A[i], rels[i], b[i]) for i in range(len(b))]))
    return problems


def test_solve_lp_equals_the_scalar_reference():
    rng = np.random.default_rng(2024)
    statuses = set()
    for p in random_family(rng, 600):
        expected = lp_outcome(scalar_solve_lp, p)
        assert same_lp_outcome(lp_outcome(solve_lp, p), expected)
        statuses.add(getattr(expected, "status", "error"))
    assert statuses >= {"optimal", "infeasible", "unbounded"}


def test_mixed_relations_agree_with_the_enumeration_oracle():
    # the oracle shares no simplex code: it maximizes over A x <= b, so a
    # >= row is negated, an = row written as two <= rows and min c.x read
    # as -max -c.x
    sides = {"<=": [1.0], ">=": [-1.0], "=": [1.0, -1.0]}
    statuses = set()
    for p in random_family(np.random.default_rng(31), 500, size=4):
        i, side = (np.array(v) for v in zip(*[(i, side) for i, rel in enumerate(p.relations) for side in sides[rel]]))
        sign = 1.0 if p.sense == "max" else -1.0
        status, value = lp_enumeration_oracle(sign * p.objective, side[:, None] * p.A[i], side * p.b[i])
        s = solve_lp(p)
        assert s.status == status
        if status == "optimal":
            assert s.objective_value == pytest.approx(sign * value, abs=1e-8)
        statuses.add(status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def random_stacks(rng, count, size=20, span=5.0):
    """count random solve_stack argument tuples of size members each, drawn
    as random_family draws a program: mixed relations and either sense,
    shared by the stack. Each stack has one rhs sign pattern
    and a quarter of its members flip one row's sign, so the stack splits;
    every third member is degenerate, with zero right-hand sides and, in
    half the stacks, its last row a copy of its first."""
    stacks = []
    for _ in range(count):
        n, m = (int(v) for v in rng.integers(1, 7, size=2))
        c = rng.uniform(-span, span, n)
        rels = rng.choice(["<=", "=", ">="], size=m)
        repeat_first_row = m > 1 and rng.random() < 0.5
        if repeat_first_row:
            rels[-1] = rels[0]
        A = rng.uniform(-span, span, (size, m, n))
        b = np.abs(rng.uniform(-span, span, (size, m))) * rng.choice([-1.0, 1.0], size=m)
        for k in range(size):
            if rng.random() < 0.25:
                b[k, rng.integers(m)] *= -1.0
            if k % 3 == 0:
                b[k] = np.where(rng.random(m) < 0.5, 0.0, b[k])
                if repeat_first_row:
                    A[k, -1], b[k, -1] = A[k, 0], b[k, 0]
        stacks.append((c, str(rng.choice(["min", "max"])), A, rels, b))
    return stacks


def assert_stack_equals_the_scalar_reference(c, sense, A, relations, b) -> list:
    """solve_stack's outcomes, each checked against the scalar reference on
    an LpProblem built from its member's rows."""
    outcomes = solve_stack(c, sense, A, relations, b)
    assert len(outcomes) == len(A)
    for A_k, b_k, got in zip(A, b, outcomes):
        p = LpProblem(c, sense, zip(A_k, relations, b_k))
        assert same_lp_outcome(got, lp_outcome(scalar_solve_lp, p))
    return outcomes


def test_random_stacks_equal_the_scalar_reference():
    statuses = set()
    split = 0
    for c, sense, A, relations, b in random_stacks(np.random.default_rng(77), 40):
        outcomes = assert_stack_equals_the_scalar_reference(c, sense, A, relations, b)
        statuses |= {getattr(o, "status", "error") for o in outcomes}
        split += len(np.unique(b < 0.0, axis=0)) > 1
    assert statuses >= {"optimal", "infeasible", "unbounded"}
    assert split >= 30


def test_members_that_drop_different_rows_equal_the_scalar_reference():
    # same layout; in half the members the equality rows repeat, so phase 1
    # leaves an artificial on a redundant row that has to be dropped
    rng = np.random.default_rng(5)
    A = rng.uniform(0.5, 2.0, (40, 3, 4))
    b = rng.uniform(1.0, 2.0, (40, 3))
    A[::2, 1], b[::2, 1] = A[::2, 0], b[::2, 0]
    outcomes = assert_stack_equals_the_scalar_reference(rng.uniform(-1, 1, 4), "max", A, ["=", "=", "<="], b)
    assert {o.dual[1] == 0.0 for o in outcomes[::2] if o.status == "optimal"} == {True}


def test_solve_stack_builds_one_stack_whatever_the_rhs_signs(monkeypatch):
    # a stack whose members start different rows on artificials is one
    # stack of one tableau width, n + slacks + 1, and each member's outcome
    # is still solve_lp's on it alone
    from paneleff import linprog
    built = []

    class CountingStack(linprog._Stack):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    for c, sense, A, relations, b in random_stacks(np.random.default_rng(77), 10):
        assert len(np.unique(b < 0.0, axis=0)) > 1
        built.clear()
        monkeypatch.setattr(linprog, "_Stack", CountingStack)
        outcomes = solve_stack(c, sense, A, relations, b)
        monkeypatch.undo()
        assert len(built) == 1
        assert built[0].T.shape[2] == A.shape[2] + np.isin(relations, ["<=", ">="]).sum() + 1
        for A_k, b_k, got in zip(A, b, outcomes):
            assert same_lp_outcome(got, lp_outcome(solve_lp, LpProblem(c, sense, zip(A_k, relations, b_k))))


def test_phase1_breakdown_names_the_pivot_tolerance():
    # x1's entries, 6e-10 in each equality row, sum to a phase-1 reduced
    # cost of -1.2e-9, past the pivot tolerance, while neither entry is
    # above it: x1 prices as improving and has no pivot
    from paneleff.errors import LpSolverError

    p = LpProblem([1.0, 0.0], "min", [([1.0, 6e-10], "=", 1.0), ([-1.0, 6e-10], "=", 0.0)])
    with pytest.raises(LpSolverError, match="^phase 1 broke down: an improving column has no entry above the pivot "
                                            "tolerance 1e-09$"):
        solve_lp(p)
    assert same_lp_outcome(lp_outcome(solve_lp, p), lp_outcome(scalar_solve_lp, p))


def test_solve_stack_takes_and_validates_arrays():
    A = np.array([[[1.0, 2.0]], [[3.0, 1.0]]])
    assert [s.objective_value for s in solve_stack([1.0, 1.0], "max", A, ["<="], [[4.0], [6.0]])] == [4.0, 6.0]
    assert solve_stack([1.0, 1.0], "max", np.zeros((0, 1, 2)), ["<="], np.zeros((0, 1))) == []
    with pytest.raises(UsageError):
        solve_stack([1.0, 1.0], "max", A, ["<"], [[4.0], [6.0]])
    with pytest.raises(UsageError):
        solve_stack([1.0, 1.0], "max", A, ["<="], [[4.0], [np.nan]])
    with pytest.raises(UsageError):
        solve_stack([1.0, 1.0], "max", A, ["<=", "<="], [[4.0], [6.0]])


@pytest.mark.parametrize("trigger, max_iter", [(1, 20000), (3, 20000), (50, 2)])
def test_bland_fallback_and_iteration_limit_equal_the_scalar_reference(monkeypatch, trigger, max_iter):
    # a low trigger sends most programs through Bland's rule, a low limit
    # through the iteration-limit error, in the stack and the reference alike
    import oracles
    from paneleff import linprog
    for module in (linprog, oracles):
        monkeypatch.setattr(module, "_BLAND_TRIGGER", trigger)
        monkeypatch.setattr(module, "_MAX_ITER", max_iter)
    outcomes = []
    for stack in random_stacks(np.random.default_rng(trigger), 20):
        outcomes += assert_stack_equals_the_scalar_reference(*stack)
    errors = [o for o in outcomes if not isinstance(o, LpSolution)]
    assert bool(errors) == (max_iter == 2)


@pytest.mark.parametrize("case", ["row", "column"])
def test_certificates_scale_each_row_and_column_by_its_own_terms(case):
    # A claimed optimum that is off by 1e-4 in a row (column) of magnitude
    # 1, next to a row (column) of magnitude 1e6. Scaled by maxima over the
    # whole program, as the certificates once were, its tolerance was
    # 1e-7 * 1e6 and it passed; scaled by its own terms it fails.
    import oracles
    from paneleff import linprog
    from paneleff.errors import LpSolverError

    if case == "row":
        # min x1 s.t. x0 <= 1e6, x1 >= 1: x1 = 1 - 1e-4 is infeasible
        problem = LpProblem([0.0, 1.0], "min", [([1.0, 0.0], "<=", 1e6), ([0.0, 1.0], ">=", 1.0)])
        x, dual = np.array([1e6, 1.0 - 1e-4]), np.array([0.0, 1.0 - 1e-4])
        message = "primal infeasibility .* in constraint 1"
    else:
        # min x0 + x1 s.t. 1e-6 x0 >= 1e-6, x1 >= 0: the dual 1 + 1e-4 on
        # row 1 prices x1 below its cost
        problem = LpProblem([1.0, 1.0], "min", [([1e-6, 0.0], ">=", 1e-6), ([0.0, 1.0], ">=", 0.0)])
        x, dual = np.array([1.0, 0.0]), np.array([1e6, 1.0 + 1e-4])
        message = "dual infeasibility .* of variable 1"
    M, slack_coef, rhs = oracles._dense_rows(problem)
    c = problem.objective
    objective = float(c @ x)

    abs_M = np.abs(M)
    row_violation = np.abs(M @ x - rhs)
    old_row_scale = np.maximum(1.0, np.maximum(np.abs(rhs), abs_M.max(axis=1) * np.abs(x).max()))
    column_violation = np.maximum(0.0, -(c - M.T @ dual))
    old_column_scale = np.maximum(1.0, np.maximum(np.abs(c), abs_M.max(axis=0) * np.abs(dual).max()))
    assert (row_violation <= linprog.FEAS_TOL * old_row_scale).all()
    assert (column_violation <= linprog.FEAS_TOL * old_column_scale).all()
    assert max(row_violation.max(), column_violation.max()) == pytest.approx(1e-4, rel=1e-6)

    errors = linprog._check_certificates(problem.sense, c, M[None], slack_coef, rhs[None],
                                         x[None], dual[None], np.array([objective]), np.array([0]))
    assert list(errors) == [0]
    with pytest.raises(LpSolverError, match=message):
        raise errors[0]
    with pytest.raises(LpSolverError, match=message):
        oracles._check_certificates(problem, M, slack_coef, rhs, x, dual, objective, 0)


def test_finish_rejects_a_basic_value_below_the_feasibility_tolerance():
    # x0 - x1 = -1 on the basis {x0} gives x0 = -1; finish once clipped it
    # to 0 before the certificate ran, which then reported the row as
    # infeasible in place of the negative value
    from paneleff import linprog
    from paneleff.errors import LpSolverError

    stack = linprog._Stack(np.array([1.0, 0.0]), "min", np.array([[[1.0, -1.0]]]), np.array(["="]),
                           np.array([[-1.0]]))
    stack.finish(np.array([0]), np.array([[0]]))
    with pytest.raises(LpSolverError, match="negative value for a nonnegative variable"):
        raise stack.outcomes[0]
