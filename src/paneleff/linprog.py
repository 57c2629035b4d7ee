"""Self-contained dense linear-programming solver.

Two-phase primal simplex on the dense standard form, run in lockstep over a
stack of programs. `solve_stack(objective, sense, A, relations, b)` solves
programs that share objective, sense and relations, with a constraint
matrix A[k] and rhs b[k] each, as one stack per call; `solve_lp` solves one
LpProblem as a stack of one. Every tableau of a stack takes one pivot per
step, the same few numpy operations whatever the stack's size, and a
program leaves the stack when it reaches optimality or unboundedness, or
breaks down. An artificial variable is a basis marker, not a tableau
column, and never enters (Dantzig, Linear Programming and Extensions, 1963,
ch. 5), so every tableau has the same width whatever its rhs signs. A row
whose artificial phase 1 cannot pivot out is redundant: the artificial
stays basic at zero, the row is cleared and its dual is 0, and a "singular
final basis" error may list its marker, total_cols + row.

Each program keeps its own pricing state. Pricing starts with Dantzig's rule
and falls back to Bland's rule once 50 consecutive degenerate pivots are
observed, and each phase stops at 20000 pivots. The radial efficiency
programs this package produces are tiny (tens of columns) but notoriously
degenerate. Every operation on a tableau is elementwise, so a program's
pivots, and its solution bit for bit, do not depend on the stack it is
solved in. Every variable is nonnegative; a free variable is written as
two columns, x = x+ - x-, with the second column the negated first.

Tolerances are fixed rather than configurable so that downstream efficiency
scores stay bit-stable: pivot tolerance 1e-9, feasibility tolerance 1e-7,
both on rows scaled once to a largest coefficient of 1, whose slacks are
unit columns, so a row multiplied by a power of two changes no pivot.

Every optimum is certified before it is returned: the primal point is
feasible, the duals are dual-feasible (each sign matches its relation and
the sense, and every reduced cost has the sign optimality needs), and the
two objectives agree within 1e-6. Together these prove both solutions
optimal, so a caller may use the duals as the dual program's solution
without solving it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import LpSolverError, UsageError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
DUALITY_TOL = 1e-6
_DEGENERATE_STEP = 1e-9
_BLAND_TRIGGER = 50
_MAX_ITER = 20000

RELATIONS = ("<=", "=", ">=")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class _LpProblem(NamedTuple):
    objective: np.ndarray
    sense: str
    A: np.ndarray
    relations: np.ndarray
    b: np.ndarray


class LpProblem(_LpProblem):
    """A dense linear program: optimize objective . x subject to
    A x (relations) b and x >= 0.

    objective  coefficient vector c, shape (n,)
    sense      "max" or "min"
    A          constraint matrix, shape (m, n)
    relations  one of "<=", "=", ">=" per constraint, shape (m,)
    b          right-hand sides, shape (m,)

    A free variable x is written as two columns, x+ and x-, whose objective
    and constraint coefficients are x's and their negation; x = x+ - x-.
    The constructor takes the constraints as (coefficients, relation, rhs)
    rows; solve_stack takes many programs' constraints as arrays.
    """

    __slots__ = ()

    def __new__(cls, objective, sense, constraints):
        rows = tuple(constraints)
        if rows:
            A, relations, b = zip(*rows)
        else:
            A, relations, b = np.zeros((0, np.size(objective))), (), ()
        c, A, relations, b = _validated(objective, sense, [A], relations, [b])
        return super().__new__(cls, c, sense, A[0], relations, b[0])


def _validated(objective, sense, A, relations, b):
    """Check a stack of programs that share objective, sense and relations;
    return read-only copies of c, A (K, m, n), relations and b (K, m)."""
    c = np.array(objective, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise UsageError("objective must be a non-empty 1-D coefficient vector")
    if not np.all(np.isfinite(c)):
        raise UsageError("objective coefficients must be finite")
    if sense not in ("max", "min"):
        raise UsageError(f"sense must be 'max' or 'min', got {sense!r}")
    try:
        A = np.array(A, dtype=float)
        b = np.array(b, dtype=float)
    except (TypeError, ValueError):
        raise UsageError(f"each constraint needs {c.size} coefficients and a numeric rhs") from None
    rel = np.asarray(relations)
    m = rel.shape[0] if rel.ndim == 1 else -1
    if A.ndim != 3 or A.shape[1:] != (m, c.size) or b.shape != A.shape[:2]:
        raise UsageError(
            f"constraints must be an (m, {c.size}) matrix with m relations and m right-hand sides")
    if not set(rel.tolist()) <= set(RELATIONS):
        i = next(i for i, r in enumerate(rel.tolist()) if r not in RELATIONS)
        raise UsageError(f"constraint {i} relation must be one of {RELATIONS}, got {rel[i]!r}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        finite = (np.isfinite(A).all(axis=2) & np.isfinite(b)).all(axis=0)
        raise UsageError(f"constraint {int(np.argmin(finite))} has non-finite coefficients or rhs")
    rel = rel.astype("<U2")
    for array in (c, A, rel, b):
        array.setflags(write=False)
    return c, A, rel, b


class LpSolution(NamedTuple):
    """Solved state of an LpProblem.

    For status "optimal", primal holds the variable values, dual one
    multiplier per constraint (signed so that b . dual equals the objective
    value), and the certificates satisfy primal and dual feasibility within
    1e-7 and a strong-duality gap within 1e-6, all relative tests.
    """

    status: str
    objective_value: float
    primal: np.ndarray | None
    dual: np.ndarray | None
    iterations: int


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a linear program with the two-phase primal simplex method:
    `solve_stack` on a stack of one.

    Returns an LpSolution whose status is "optimal", "infeasible", or
    "unbounded". Output is deterministic for identical input. Raises
    LpSolverError with iteration diagnostics on numerical breakdown.
    """
    p = problem
    (outcome,) = _Stack(p.objective, p.sense, p.A[None], p.relations, p.b[None]).solve()
    if isinstance(outcome, LpSolverError):
        raise outcome
    return outcome


def solve_stack(objective, sense, A, relations, b) -> list:
    """Solve the programs that share objective, sense and relations and
    take their constraints from A[k] (m, n) and b[k] (m,), for each k of
    A (K, m, n) and b (K, m); return their outcomes in order. An outcome is
    the program's LpSolution, or the LpSolverError that solve_lp raises for
    it.

    The members are solved as one lockstep stack, whatever their rhs signs;
    the result of each equals solve_lp on it alone, bit for bit.
    """
    c, A, relations, b = _validated(objective, sense, A, relations, b)
    return _Stack(c, sense, A, relations, b).solve()


class _Stack:
    """The standard form of a stack of programs that share objective,
    sense and relations, and the outcome of each as the phases settle it.
    A row's artificial is the marker total_cols + row in its basis; each
    tableau has n + slacks + 1 columns."""

    def __init__(self, c, sense, M, relations, rhs):
        K, m, n = M.shape
        self.c, self.sense, self.M, self.rhs = c, sense, M, rhs

        # Rows with a negative rhs are negated, then every row of M is
        # scaled once to a largest coefficient of 1 (an all-zero row by 1),
        # and the slacks are unit columns of the scaled rows. The last m
        # columns of A are the unit columns of the markers, which finish
        # reads and the tableau leaves out.
        self.row_sign = row_sign = np.where(rhs < 0.0, -1.0, 1.0)
        row_max = np.abs(M).max(axis=2, initial=0.0)
        self.row_scale = row_scale = np.where(row_max > 0.0, row_max, 1.0)
        self.slack_coef = slack_coef = (relations == "<=") - (relations == ">=").astype(float)
        has_slack = slack_coef != 0.0
        self.total_cols = total_cols = n + int(has_slack.sum())
        self.A = A = np.zeros((K, m, total_cols + m))
        A[:, :, :n] = M * row_sign[:, :, None] / row_scale[:, :, None]
        self.b = b = rhs * row_sign / row_scale
        slack_of_row = np.full(m, -1, dtype=int)
        slack_of_row[has_slack] = np.arange(n, total_cols)
        A[:, has_slack, slack_of_row[has_slack]] = (slack_coef * row_sign)[:, has_slack]
        A[:, np.arange(m), total_cols + np.arange(m)] = 1.0

        self.c_full = np.zeros(total_cols + m)
        self.c_full[:n] = -c if sense == "max" else c
        # A row starts on its own slack when that slack's coefficient is
        # positive, which the relations and rhs signs decide; every other
        # row starts on its marker.
        self.basis = np.where(slack_coef * row_sign > 0.0, slack_of_row, total_cols + np.arange(m))

        self.T = T = np.zeros((K, m + 1, total_cols + 1))
        T[:, :m, :-1] = A[:, :, :total_cols]
        T[:, :m, -1] = b
        self.iterations = np.zeros(K, dtype=int)
        self.outcomes: list = [None] * K

    def solve(self) -> list:
        self.phase2(self.phase1())
        return self.outcomes

    def phase1(self) -> np.ndarray:
        """Minimize the sum of artificials, record the infeasible members
        and drive the artificials left in the feasible members' bases out;
        return the positions of the feasible members."""
        T, basis, total_cols = self.T, self.basis, self.total_cols
        artificial = basis >= total_cols
        if not artificial.any():
            return np.arange(len(T))
        # the cost row is minus the sum of each member's artificial rows
        for i in artificial.any(axis=0).nonzero()[0]:
            T[:, -1] = np.where(artificial[:, i, None], T[:, -1] - T[:, i], T[:, -1])
        status, self.iterations, errors = _run(T, basis, self.iterations)
        # the artificials left in the basis, summed row by row in order
        phase1_obj = np.add.accumulate(np.where(basis >= total_cols, T[:, :-1, -1], 0.0), axis=1)[:, -1]
        live = []
        for k, (state, value, its) in enumerate(zip(status.tolist(), phase1_obj.tolist(),
                                                    self.iterations.tolist())):
            if k in errors:
                self.outcomes[k] = errors[k]
            elif state == _UNBOUNDED:  # a sum of artificials is bounded below, so this is a breakdown
                self.outcomes[k] = LpSolverError(
                    f"phase 1 broke down: an improving column has no entry above the pivot tolerance {PIVOT_TOL:g}",
                    diagnostics={"iterations": its})
            elif value > FEAS_TOL:
                self.outcomes[k] = LpSolution(INFEASIBLE, float("nan"), None, None, its)
            else:
                live.append(k)

        # A row whose artificial cannot be pivoted out is redundant: the
        # artificial stays basic at zero and the row is cleared, so no pivot
        # picks it. A pivot changes only its own row's basic variable, so
        # the rows to visit are known up front.
        live = np.array(live, dtype=int)
        for i in (basis[live] >= total_cols).any(axis=0).nonzero()[0]:
            stuck = live[basis[live, i] >= total_cols]
            nonzero = np.abs(T[stuck, i, :total_cols]) > PIVOT_TOL
            movable = nonzero.any(axis=1)
            T[stuck[~movable], i] = 0.0
            moved = stuck[movable]
            if moved.size:
                cols = nonzero[movable].argmax(axis=1)
                sub = T[moved]
                _pivot(sub, np.arange(moved.size), np.full(moved.size, i), cols)
                T[moved] = sub
                basis[moved, i] = cols
                self.iterations[moved] += 1
        return live

    def phase2(self, ks) -> None:
        """Optimize the real objective over the members ks and record their outcomes."""
        T, basis = self.T[ks], self.basis[ks]

        # Restore the real objective and eliminate basic columns. Basic
        # columns are unit columns, so each row's basic cost is still the
        # objective's when its turn comes, and a row whose basic cost is
        # zero in every member, a marker's among them, changes nothing.
        T[:, -1, :-1] = self.c_full[:self.total_cols]
        T[:, -1, -1] = 0.0
        c_basic = self.c_full[basis]
        for r in (c_basic != 0.0).any(axis=0).nonzero()[0]:
            cj = c_basic[:, r]
            T[:, -1] = np.where((cj != 0.0)[:, None], T[:, -1] - cj[:, None] * T[:, r], T[:, -1])

        status, iterations, errors = _run(T, basis, self.iterations[ks])
        self.iterations[ks] += iterations
        optimal = []
        for j, (k, state) in enumerate(zip(ks.tolist(), status.tolist())):
            if j in errors:
                self.outcomes[k] = errors[j]
            elif state == _UNBOUNDED:
                self.outcomes[k] = LpSolution(UNBOUNDED, float("nan"), None, None, int(self.iterations[k]))
            else:
                optimal.append(j)
        if optimal:
            self.finish(ks[optimal], basis[optimal])

    def finish(self, ks, basis) -> None:
        """Re-solve the final bases of the optimal members ks against the
        stored (scaled) data to clear accumulated tableau drift, unwind
        scaling, signs and sense, certify each optimum and record it. A
        marker left in a basis, on a redundant row, is its unit column, and
        that row's dual is 0."""
        G = ks.size
        B = self.A[ks[:, None, None], np.arange(basis.shape[1])[:, None], basis[:, None, :]]
        # one call solves B x = b and B'y = c_B for every member
        systems = np.concatenate([B, B.transpose(0, 2, 1)])
        rhs = np.concatenate([self.b[ks], self.c_full[basis]])[:, :, None]
        singular = np.zeros(2 * G, dtype=bool)
        try:
            solved = np.linalg.solve(systems, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            # find the singular bases one at a time
            solved = np.zeros(rhs.shape[:2])
            for j in range(2 * G):
                try:
                    solved[j] = np.linalg.solve(systems[j], rhs[j, :, 0])
                except np.linalg.LinAlgError:
                    singular[j] = True
        singular = singular[:G] | singular[G:]
        x_basic, y_rows = solved[:G], solved[G:]

        x_std = np.zeros((G, self.c_full.size))
        x_std[np.arange(G)[:, None], basis] = x_basic
        x_std[(x_std >= -FEAS_TOL) & (x_std <= 0.0)] = 0.0  # zero roundoff; the certificate rejects larger negatives

        x = x_std[:, :self.c.size]

        sense_factor = 1.0 if self.sense == "min" else -1.0
        dual = sense_factor * self.row_sign[ks] * y_rows / self.row_scale[ks]
        dual[basis >= self.total_cols] = 0.0

        objective = [float(self.c @ x_k) for x_k in x]
        errors = _check_certificates(self.sense, self.c, self.M[ks], self.slack_coef, self.rhs[ks],
                                     x, dual, np.array(objective), self.iterations[ks])
        for j, k in enumerate(ks.tolist()):
            its = int(self.iterations[k])
            if singular[j]:
                self.outcomes[k] = LpSolverError(
                    "singular final basis", diagnostics={"iterations": its, "basis": basis[j].tolist()})
            elif j in errors:
                self.outcomes[k] = errors[j]
            else:
                self.outcomes[k] = LpSolution(OPTIMAL, objective[j], x[j], dual[j], its)


# member states of a lockstep run
_FAILED, _OPTIMAL, _UNBOUNDED = range(3)


def _run(T, basis, before):
    """Pivot every tableau of the stack T (K, rows, cols), whose last row
    is the cost row and last column the rhs, until it is optimal or
    unbounded, or has taken _MAX_ITER pivots. T and basis (K, rows - 1)
    are updated in place.

    Each member keeps its own Dantzig or Bland choice, ratio test and
    degenerate-run counter, and leaves the stack when it stops. Returns
    each member's final state, its pivot count and the LpSolverError of
    each member that hit the iteration limit, keyed by position; the
    error counts the member's pivots before this run (before[k]) too.
    """
    K = T.shape[0]
    status = np.zeros(K, dtype=int)  # _FAILED
    iterations = np.zeros(K, dtype=int)
    # the live stack: positions in T, compacted whenever members leave
    idx = live = np.arange(K)
    t, bas = T, basis
    degenerate_run = np.zeros(K, dtype=int)
    bland = np.zeros(K, dtype=bool)
    any_bland = False
    step = 0
    while True:
        cost = t[:, -1, :-1]
        candidates = cost < -PIVOT_TOL
        if not candidates.any():  # every live member is optimal
            status[idx] = _OPTIMAL
            iterations[idx] = step
            if t is not T:
                T[idx] = t
                basis[idx] = bas
            return status, iterations, {}
        priced = np.where(candidates, cost, np.inf)
        enter = priced.argmin(axis=1)
        if any_bland:
            enter = np.where(bland, candidates.argmax(axis=1), enter)
        column = t[live, :-1, enter]
        positive = column > PIVOT_TOL
        ratios = np.where(positive, t[:, :-1, -1] / np.where(positive, column, 1.0), np.inf)
        best = ratios.min(axis=1, initial=np.inf)
        # optimal: no candidate, so priced[enter] is inf; unbounded: no
        # positive entry in the column, so best is inf
        entering = priced[live, enter]
        stopped = np.maximum(entering, best) == np.inf
        if np.count_nonzero(stopped):
            gone = idx[stopped]
            status[gone] = np.where(entering[stopped] == np.inf, _OPTIMAL, _UNBOUNDED)
            iterations[gone] = step
            if t is not T:  # otherwise T was pivoted in place
                T[gone] = t[stopped]
                basis[gone] = bas[stopped]
            going = ~stopped
            if not np.count_nonzero(going):
                return status, iterations, {}
            idx, t, bas = idx[going], t[going], bas[going]
            degenerate_run, bland = degenerate_run[going], bland[going]
            enter, ratios, best = enter[going], ratios[going], best[going]
            live = np.arange(idx.size)
        if step == _MAX_ITER:
            break
        ties = ratios <= (best + 1e-12)[:, None]
        leave = ties.argmax(axis=1)
        if any_bland:
            # leave by the lowest basic-variable index among the ties
            lowest = np.where(ties, bas, np.iinfo(bas.dtype).max).argmin(axis=1)
            leave = np.where(bland, lowest, leave)
        degenerate_run += 1
        degenerate_run *= best < _DEGENERATE_STEP
        if step + 1 >= _BLAND_TRIGGER:  # no run can be that long before
            bland |= degenerate_run >= _BLAND_TRIGGER
            any_bland = bool(bland.any())
        _pivot(t, live, leave, enter)
        bas[live, leave] = enter
        step += 1

    errors = {}
    for j, k in enumerate(idx.tolist()):
        errors[k] = LpSolverError(
            "iteration limit reached",
            diagnostics={
                "iterations": int(before[k]) + step,
                "bland_mode": bool(bland[j]),
                "degenerate_run": int(degenerate_run[j]),
            },
        )
    iterations[idx] = step
    T[idx] = t
    basis[idx] = bas
    return status, iterations, errors


def _pivot(T, k, rows, cols) -> None:
    """Pivot each tableau T[k] of the stack on (rows[k], cols[k]); k is
    np.arange(len(T)).

    The pivot row is divided by the pivot and every other row loses its
    pivot-column entry times it. That leaves the pivot column at exactly
    1 and 0, because x / x == 1 and x - x * 1 == +0 in floating point.
    The pivot row itself is rewritten last, plus 0.0, which is the value
    row - 0 * row has, so the result equals pivoting with a factor of 0
    on the pivot row and writing the unit column explicitly, bit for bit.
    """
    pivot_row = T[k, rows] / T[k, rows, cols][:, None]
    T -= T[k, :, cols][:, :, None] * pivot_row[:, None, :]
    T[k, rows] = pivot_row + 0.0


def _check_certificates(sense, c, M, slack_coef, rhs, x, dual, objective, iterations) -> dict:
    """Verify primal feasibility, dual feasibility and strong duality for a
    stack of claimed optima of programs that share sense, objective c and
    relations (slack_coef).

    Together the three prove x optimal and dual an optimal dual solution.
    Each test is relative to the magnitudes of its own terms: row i's
    residual to max(1, |b_i|, sum_j |a_ij| |x_j|), column j's reduced cost
    to max(1, |c_j|, sum_i |a_ij| |dual_i|). Returns the LpSolverError of
    each member that fails, keyed by position, for the first test it fails.
    """
    abs_M = np.abs(M)
    residual = (M @ x[:, :, None])[:, :, 0] - rhs
    violation = np.where(slack_coef == 0.0, np.abs(residual), slack_coef * residual)
    scale = np.maximum(1.0, np.maximum(np.abs(rhs), (abs_M @ np.abs(x)[:, :, None])[:, :, 0]))
    infeasible_row = violation > FEAS_TOL * scale
    negative_x = x < -FEAS_TOL

    # Dual feasibility. With s = +1 for min and -1 for max: s * dual_i <= 0
    # on a <= row and >= 0 on a >= row; s * (c - M'dual) >= 0 on every
    # column. A row's sign is the reduced cost of its unit slack column, so
    # it shares the column test.
    s = 1.0 if sense == "min" else -1.0
    dual_max = np.abs(dual).max(axis=1, initial=0.0)
    wrong_sign = s * slack_coef * dual
    sign_row = wrong_sign > FEAS_TOL * np.maximum(1.0, dual_max)[:, None]
    reduced = s * (c - (dual[:, None, :] @ M)[:, 0, :])
    dual_violation = -reduced
    dual_scale = np.maximum(1.0, np.maximum(np.abs(c), (np.abs(dual)[:, None, :] @ abs_M)[:, 0, :]))
    infeasible_column = dual_violation > FEAS_TOL * dual_scale

    b_dot_y = (rhs[:, None, :] @ dual[:, :, None])[:, 0, 0]
    gap = np.abs(objective - b_dot_y)
    gapped = gap > DUALITY_TOL * np.maximum(1.0, np.abs(objective))

    errors = {}
    failed = np.concatenate([infeasible_row, negative_x, sign_row, infeasible_column, gapped[:, None]],
                            axis=1).any(axis=1)
    for j in failed.nonzero()[0]:
        its = int(iterations[j])
        if infeasible_row[j].any():
            i = int(np.argmax(infeasible_row[j]))
            errors[j] = LpSolverError(
                f"primal infeasibility {violation[j, i]:.3e} in constraint {i} at claimed optimum",
                diagnostics={"iterations": its, "constraint": i},
            )
        elif negative_x[j].any():
            errors[j] = LpSolverError("negative value for a nonnegative variable at claimed optimum",
                                      diagnostics={"iterations": its})
        elif sign_row[j].any():
            i = int(np.argmax(sign_row[j]))
            errors[j] = LpSolverError(
                f"dual sign violation {wrong_sign[j, i]:.3e} in constraint {i} at claimed optimum",
                diagnostics={"iterations": its, "constraint": i},
            )
        elif infeasible_column[j].any():
            v = int(np.argmax(infeasible_column[j]))
            errors[j] = LpSolverError(
                f"dual infeasibility {dual_violation[j, v]:.3e} in the reduced cost of variable {v} "
                "at claimed optimum",
                diagnostics={"iterations": its, "variable": v},
            )
        else:
            errors[j] = LpSolverError(
                f"strong duality gap {gap[j]:.3e} at claimed optimum",
                diagnostics={"iterations": its, "objective": float(objective[j]),
                             "dual_objective": float(b_dot_y[j])},
            )
    return errors
