"""Self-contained dense linear-programming solver.

Two-phase primal simplex on the dense standard form. The radial efficiency
programs this package produces are tiny (tens of columns) but notoriously
degenerate, so pricing starts with Dantzig's rule and falls back to Bland's
rule once 50 consecutive degenerate pivots are observed. Variable lower
bounds are restricted to 0 or -inf; free variables are split into positive
and negative parts.

Tolerances are fixed rather than configurable so that downstream efficiency
scores stay bit-stable: pivot tolerance 1e-9, feasibility tolerance 1e-7,
both relative to an up-front row equilibration of the constraint matrix.

Every optimum is certified before it is returned: the primal point is
feasible, the duals are dual-feasible (each sign matches its relation and
the sense, and every reduced cost has the sign optimality needs, zero on
free variables), and the two objectives agree within 1e-6. Together these
prove both solutions optimal, so a caller may use the duals as the dual
program's solution without solving it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class LpProblem:
    """A dense linear program.

    objective    coefficient vector c
    sense        "max" or "min"
    constraints  tuple of (coefficients, relation, rhs) rows, relation in {"<=", "=", ">="}
    lower_bounds per-variable lower bound, each either 0.0 or -inf (free)
    """

    objective: np.ndarray
    sense: str
    constraints: tuple
    lower_bounds: np.ndarray

    def __init__(self, objective, sense, constraints, lower_bounds=None):
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise UsageError("objective must be a non-empty 1-D coefficient vector")
        if not np.all(np.isfinite(c)):
            raise UsageError("objective coefficients must be finite")
        if sense not in ("max", "min"):
            raise UsageError(f"sense must be 'max' or 'min', got {sense!r}")
        rows = []
        for i, (coeffs, relation, rhs) in enumerate(constraints):
            a = np.asarray(coeffs, dtype=float)
            if a.shape != c.shape:
                raise UsageError(
                    f"constraint {i} has {a.size} coefficients, expected {c.size}"
                )
            if relation not in RELATIONS:
                raise UsageError(f"constraint {i} relation must be one of {RELATIONS}, got {relation!r}")
            rhs = float(rhs)
            if not (np.all(np.isfinite(a)) and np.isfinite(rhs)):
                raise UsageError(f"constraint {i} has non-finite coefficients or rhs")
            rows.append((a, relation, rhs))
        if lower_bounds is None:
            lb = np.zeros(c.size)
        else:
            lb = np.asarray(lower_bounds, dtype=float)
            if lb.shape != c.shape:
                raise UsageError("lower_bounds length must match the objective")
            bad = ~((lb == 0.0) | np.isneginf(lb))
            if np.any(bad):
                raise UsageError("variable lower bounds must be 0 or -inf")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "sense", sense)
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "lower_bounds", lb)
        c.setflags(write=False)
        lb.setflags(write=False)

    @property
    def n_variables(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class LpSolution:
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


def format_lp(problem: LpProblem) -> str:
    """Render a problem in LP-literate text form, for troubleshooting."""
    lines = ["maximize" if problem.sense == "max" else "minimize"]
    lines.append("  " + _linear_expr(problem.objective))
    lines.append("subject to")
    for i, (a, rel, rhs) in enumerate(problem.constraints):
        lines.append(f"  c{i}: {_linear_expr(a)} {rel} {rhs:g}")
    lines.append("bounds")
    for j, lb in enumerate(problem.lower_bounds):
        lines.append(f"  x{j} free" if np.isneginf(lb) else f"  x{j} >= 0")
    return "\n".join(lines)


def _linear_expr(coeffs) -> str:
    terms = [f"{v:+g} x{j}" for j, v in enumerate(coeffs) if v != 0.0]
    return " ".join(terms) if terms else "0"


class _Tableau:
    """Dense simplex tableau with Dantzig pricing and a Bland fallback."""

    def __init__(self, T: np.ndarray, basis: list[int], allowed: np.ndarray):
        self.T = T
        self.basis = basis
        self.allowed = allowed  # columns eligible to enter
        self.iterations = 0
        self.degenerate_run = 0
        self.bland = False

    def run(self) -> str:
        T = self.T
        while True:
            if self.iterations > _MAX_ITER:
                raise LpSolverError(
                    "iteration limit reached",
                    diagnostics={
                        "iterations": self.iterations,
                        "bland_mode": self.bland,
                        "degenerate_run": self.degenerate_run,
                    },
                )
            cost = T[-1, :-1]
            candidates = np.flatnonzero(self.allowed & (cost < -PIVOT_TOL))
            if candidates.size == 0:
                return OPTIMAL
            if self.bland:
                enter = int(candidates[0])
            else:
                enter = int(candidates[np.argmin(cost[candidates])])
            col = T[:-1, enter]
            rows = np.flatnonzero(col > PIVOT_TOL)
            if rows.size == 0:
                return UNBOUNDED
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            ties = rows[ratios <= best + 1e-12]
            if self.bland:
                # leave by the lowest basic-variable index among the ties
                leave = int(ties[np.argmin([self.basis[r] for r in ties])])
            else:
                leave = int(ties[0])
            if best < _DEGENERATE_STEP:
                self.degenerate_run += 1
                if self.degenerate_run >= _BLAND_TRIGGER:
                    self.bland = True
            else:
                self.degenerate_run = 0
            self._pivot(leave, enter)

    def _pivot(self, row: int, col: int) -> None:
        T = self.T
        piv = T[row, col]
        if abs(piv) <= PIVOT_TOL:
            raise LpSolverError(
                "pivot below tolerance",
                diagnostics={
                    "iterations": self.iterations,
                    "pivot": float(piv),
                    "bland_mode": self.bland,
                },
            )
        T[row] /= piv
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        T[:, col] = 0.0
        T[row, col] = 1.0
        self.basis[row] = col
        self.iterations += 1


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a linear program with the two-phase primal simplex method.

    Returns an LpSolution whose status is "optimal", "infeasible", or
    "unbounded". Output is deterministic for identical input. Raises
    LpSolverError with iteration diagnostics on numerical breakdown.
    """
    n = problem.n_variables
    m = problem.n_constraints
    minimize = problem.sense == "min"

    # Standard-form columns: free variables split into x+ - x-.
    free = np.isneginf(problem.lower_bounds)
    col_var = np.repeat(np.arange(n), np.where(free, 2, 1))
    col_sign = np.ones(col_var.size)
    col_sign[1:][col_var[1:] == col_var[:-1]] = -1.0
    n_cols = col_var.size

    c_std = problem.objective[col_var] * col_sign
    if not minimize:
        c_std = -c_std

    if m == 0:
        # Bounded iff no improving coordinate direction exists.
        if np.any(c_std < -PIVOT_TOL):
            return LpSolution(UNBOUNDED, float("nan"), None, None, 0)
        x = np.zeros(n)
        return LpSolution(OPTIMAL, float(problem.objective @ x), x, np.zeros(0), 0)

    M, slack_coef, rhs = _dense_rows(problem)
    has_slack = slack_coef != 0.0
    n_slacks = int(has_slack.sum())
    A = np.zeros((m, n_cols + n_slacks))
    A[:, :n_cols] = M[:, col_var] * col_sign
    slack_of_row = np.full(m, -1, dtype=int)
    slack_of_row[has_slack] = n_cols + np.arange(n_slacks)
    A[has_slack, slack_of_row[has_slack]] = slack_coef[has_slack]
    b = rhs.copy()

    row_sign = np.ones(m)
    negative = b < 0.0
    A[negative] *= -1.0
    b[negative] *= -1.0
    row_sign[negative] = -1.0

    row_scale = np.maximum(np.abs(A).max(axis=1), 1e-12)
    A /= row_scale[:, None]
    b /= row_scale

    total_cols = A.shape[1]
    # A row starts on its own slack when that slack's coefficient is
    # positive; every other row gets an artificial column.
    own_slack = has_slack & (A[np.arange(m), slack_of_row] > 0.0)
    artificial_rows = np.flatnonzero(~own_slack)
    n_art = artificial_rows.size
    basis_arr = slack_of_row.copy()
    basis_arr[artificial_rows] = total_cols + np.arange(n_art)

    T = np.zeros((m + 1, total_cols + n_art + 1))
    T[:m, :total_cols] = A
    T[:m, -1] = b
    T[artificial_rows, total_cols + np.arange(n_art)] = 1.0

    # Normalize rows whose initial basic column is a scaled slack.
    slack_rows = np.flatnonzero(own_slack)
    T[slack_rows] /= T[slack_rows, basis_arr[slack_rows]][:, None]

    basis: list[int] = basis_arr.tolist()
    allowed = np.ones(total_cols + n_art, dtype=bool)

    # Phase 1: minimize the sum of artificials.
    if n_art:
        T[-1, total_cols:-1] = 1.0
        for i in artificial_rows:
            T[-1] -= T[i]
        tab = _Tableau(T, basis, allowed)
        status = tab.run()
        if status != OPTIMAL:
            raise LpSolverError("phase 1 reported an unbounded auxiliary problem",
                                diagnostics={"iterations": tab.iterations})
        phase1_obj = sum(T[i, -1] for i in range(m) if basis[i] >= total_cols)
        if phase1_obj > FEAS_TOL:
            return LpSolution(INFEASIBLE, float("nan"), None, None, tab.iterations)
        iterations = tab.iterations
    else:
        iterations = 0

    # Drive remaining artificials out of the basis; rows that cannot be
    # pivoted are redundant and get dropped.
    keep_rows = np.ones(m, dtype=bool)
    cleanup = _Tableau(T, basis, allowed)
    for i in range(m):
        if basis[i] >= total_cols:
            pivot_cols = np.flatnonzero(np.abs(T[i, :total_cols]) > PIVOT_TOL)
            if pivot_cols.size:
                cleanup._pivot(i, int(pivot_cols[0]))
            else:
                keep_rows[i] = False
    iterations += cleanup.iterations

    row_index = np.flatnonzero(keep_rows)
    T2 = np.zeros((row_index.size + 1, total_cols + 1))
    T2[:-1, :total_cols] = T[row_index][:, :total_cols]
    T2[:-1, -1] = T[row_index, -1]
    basis2 = [basis[i] for i in row_index]

    # Phase 2: restore the real objective and eliminate basic columns.
    c_full = np.concatenate([c_std, np.zeros(n_slacks)])
    T2[-1, :total_cols] = c_full
    for r, j in enumerate(basis2):
        cj = T2[-1, j]
        if cj != 0.0:
            T2[-1] -= cj * T2[r]

    tab = _Tableau(T2, basis2, np.ones(total_cols, dtype=bool))
    status = tab.run()
    iterations += tab.iterations
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, float("nan"), None, None, iterations)

    # Re-solve the final basis against the stored (scaled) data to clear
    # accumulated tableau drift, then unwind scaling, signs, and sense.
    A_rows = A[row_index]
    b_rows = b[row_index]
    B = A_rows[:, basis2]
    try:
        x_basic = np.linalg.solve(B, b_rows)
        y_rows = np.linalg.solve(B.T, c_full[basis2])
    except np.linalg.LinAlgError as exc:
        raise LpSolverError(
            "singular final basis",
            diagnostics={"iterations": iterations, "basis": list(map(int, basis2))},
        ) from exc

    x_std = np.zeros(total_cols)
    x_std[basis2] = x_basic
    np.maximum(x_std, 0.0, out=x_std)  # clip roundoff negatives

    x = np.zeros(n)
    np.add.at(x, col_var, col_sign * x_std[:n_cols])

    dual = np.zeros(m)
    sense_factor = 1.0 if minimize else -1.0
    dual[row_index] = sense_factor * row_sign[row_index] * y_rows / row_scale[row_index]

    objective_value = float(problem.objective @ x)
    _check_certificates(problem, M, slack_coef, rhs, x, dual, objective_value, iterations)
    return LpSolution(OPTIMAL, objective_value, x, dual, iterations)


# slack coefficient of each relation in the standard form
_SLACK_COEF = {"<=": 1.0, "=": 0.0, ">=": -1.0}


def _dense_rows(problem: LpProblem):
    """The constraints as a dense (m, n) matrix, the slack coefficient of
    each row (+1 for <=, 0 for =, -1 for >=) and the right-hand sides."""
    rows = problem.constraints
    M = np.array([a for a, _, _ in rows])
    slack_coef = np.array([_SLACK_COEF[rel] for _, rel, _ in rows])
    rhs = np.array([r for _, _, r in rows])
    return M, slack_coef, rhs


def _check_certificates(problem, M, slack_coef, rhs, x, dual, objective_value, iterations) -> None:
    """Verify primal feasibility, dual feasibility and strong duality.

    Together the three prove x optimal and dual an optimal dual solution.
    Each test is relative: a row's residual to max(1, |rhs|, max|a| max|x|),
    a column's reduced cost to max(1, |c_j|, max|A_j| max|dual|).
    Breakdowns surface as errors.
    """
    abs_M = np.abs(M)
    residual = M @ x - rhs
    violation = np.where(slack_coef == 0.0, np.abs(residual), slack_coef * residual)
    scale = np.maximum(1.0, np.maximum(np.abs(rhs), abs_M.max(axis=1) * np.abs(x).max()))
    bad = np.flatnonzero(violation > FEAS_TOL * scale)
    if bad.size:
        i = int(bad[0])
        raise LpSolverError(
            f"primal infeasibility {violation[i]:.3e} in constraint {i} at claimed optimum",
            diagnostics={"iterations": iterations, "constraint": i},
        )
    finite = problem.lower_bounds == 0.0
    if np.any(x[finite] < -FEAS_TOL):
        raise LpSolverError("negative value for a nonnegative variable at claimed optimum",
                            diagnostics={"iterations": iterations})

    # Dual feasibility. With s = +1 for min and -1 for max: s * dual_i <= 0
    # on a <= row and >= 0 on a >= row; s * (c - M'dual) >= 0 on x >= 0
    # columns and = 0 on free ones. A row's sign is the reduced cost of its
    # unit slack column, so it shares the column test.
    s = 1.0 if problem.sense == "min" else -1.0
    dual_max = float(np.abs(dual).max(initial=0.0))
    wrong_sign = s * slack_coef * dual
    bad = np.flatnonzero(wrong_sign > FEAS_TOL * max(1.0, dual_max))
    if bad.size:
        i = int(bad[0])
        raise LpSolverError(
            f"dual sign violation {wrong_sign[i]:.3e} in constraint {i} at claimed optimum",
            diagnostics={"iterations": iterations, "constraint": i},
        )
    reduced = s * (problem.objective - M.T @ dual)
    violation = np.where(finite, -reduced, np.abs(reduced))
    scale = np.maximum(1.0, np.maximum(np.abs(problem.objective), abs_M.max(axis=0) * dual_max))
    bad = np.flatnonzero(violation > FEAS_TOL * scale)
    if bad.size:
        j = int(bad[0])
        raise LpSolverError(
            f"dual infeasibility {violation[j]:.3e} in the reduced cost of variable {j} at claimed optimum",
            diagnostics={"iterations": iterations, "variable": j},
        )

    b_dot_y = float(rhs @ dual)
    gap = abs(objective_value - b_dot_y)
    if gap > DUALITY_TOL * max(1.0, abs(objective_value)):
        raise LpSolverError(
            f"strong duality gap {gap:.3e} at claimed optimum",
            diagnostics={"iterations": iterations, "objective": objective_value, "dual_objective": b_dot_y},
        )
