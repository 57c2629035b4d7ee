"""Radial DEA efficiency models over per-period cross-sections.

Each score is one envelopment program. Within a period every DMU's program
has the same objective, relations and rhs signs; only the radial column and
the rhs differ, so `_envelopment_lps` builds a period's constraint matrices
and rhs as arrays by broadcasting and `linprog.solve_stack` pivots them in
lockstep, in stacks of at most STACK_BYTES of A: memory stays bounded
however many DMUs a period has, and a period of a few dozen DMUs is one
stack. The solver certifies each optimum (primal feasibility, dual
feasibility and strong duality), and the certified duals are the multiplier
program's solution: the virtual input and output weights and, under VRS,
the free scale offset. The score is therefore units-invariant by
construction and its weights come at no extra solve.
solve_ccr/solve_bcc solve one DMU's program as a stack of one. Their result
runs a second-stage slack-maximizing envelopment solve when its peers or
slacks are first read; it flags weak efficiency and finds the peers. These
diagnostics are library-only: no CLI command reads them, and printing them
would take a new flag. No non-Archimedean epsilon is used, because any
absolute epsilon would break units invariance. Panel scoring (score_period,
run_panel_dea) reads only the scores. Each failure is raised here and
named from the cross-section: "period=P: envelopment program for dmu D" or
"period=P: slack stage for dmu D", a solver breakdown with its diagnostics.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import ORIENTATIONS, DeaSpec
from .errors import DeaConsistencyError, LpSolverError, UsageError, ValidationFailedError
from .linprog import LpProblem, LpSolution, solve_lp, solve_stack
from .panel_data import CrossSection, PanelDataset, slice_period, validate_for_dea

SCORE_SNAP_TOL = 1e-7     # scores this close to 1 are reported as exactly 1
STACK_BYTES = 1 << 20     # bound on the envelopment A of one solve_stack call
_SLACK_TOL = 1e-7
_SCORE_FLOOR = 1e-12


class _EfficiencyResult(NamedTuple):
    dmu: str
    score: float
    orientation: str
    returns_to_scale: str
    multiplier_u: np.ndarray
    multiplier_v: np.ndarray
    scale_offset: float | None
    cross_section: CrossSection


class EfficiencyResult(_EfficiencyResult):
    """One DMU's solved efficiency in one cross-section.

    score is theta in (0, 1] for input orientation and phi >= 1 for output
    orientation. multiplier_u / multiplier_v are the virtual output and
    input weights and scale_offset is the free multiplier the VRS model
    adds; all three are the certified duals of the envelopment program.
    lambdas, input_slacks and output_slacks come from the second-stage
    slack-maximizing envelopment solve, which runs on the first access to
    one of them (or to peers or weakly_efficient), so that a caller who
    reads only the score and weights solves one program, not two; the
    instance's __dict__ holds that solve's result and nothing else.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: an EfficiencyResult is read-only")

    @property
    def lambdas(self) -> np.ndarray:
        return self._slack_stage[0]

    @property
    def input_slacks(self) -> np.ndarray:
        return self._slack_stage[1]

    @property
    def output_slacks(self) -> np.ndarray:
        return self._slack_stage[2]

    @property
    def peers(self) -> tuple[int, ...]:
        return tuple(int(j) for j in np.flatnonzero(self.lambdas > 1e-9))

    @property
    def weakly_efficient(self) -> bool:
        """Score 1 but positive slack: efficient only in the radial sense."""
        max_slack = max(
            float(self.input_slacks.max(initial=0.0)),
            float(self.output_slacks.max(initial=0.0)),
        )
        return self.score == 1.0 and max_slack > _SLACK_TOL

    @cached_property
    def _slack_stage(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lambdas, input slacks and output slacks of the slack-maximizing
        envelopment solve at the radial score."""
        cs, dmu, score = self.cross_section, self.dmu, self.score
        o = cs.dmu_index(dmu)
        X, Y = cs.inputs, cs.outputs
        n, m = X.shape
        s = Y.shape[1]
        program = f"period={cs.period}: slack stage for dmu {dmu!r}"
        try:
            slack = solve_lp(_slack_stage_lp(X, Y, o, self.returns_to_scale, self.orientation, score))
        except LpSolverError as exc:
            raise LpSolverError(f"{program}: {exc}", exc.diagnostics) from exc
        if slack.status != "optimal":
            raise DeaConsistencyError(f"{program} reported {slack.status}")
        # A DMU that is radial-efficient with zero maximal slack is strongly
        # efficient; report it as its own sole peer even when duplicates
        # admit alternative optima.
        data_scale = max(1.0, float(X[o].max()), float(Y[o].max()))
        if score == 1.0 and slack.objective_value <= _SLACK_TOL * data_scale:
            lambdas = np.zeros(n)
            lambdas[o] = 1.0
            return lambdas, np.zeros(m), np.zeros(s)
        return slack.primal[:n].copy(), slack.primal[n:n + m].copy(), slack.primal[n + m:n + m + s].copy()


class _EfficiencyPanel(NamedTuple):
    dmus: tuple[str, ...]
    periods: tuple[str, ...]
    scores: np.ndarray
    means: np.ndarray
    spec: DeaSpec


class EfficiencyPanel(_EfficiencyPanel):
    """Scores for every (dmu, period) plus the per-DMU mean used downstream."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self.scores.setflags(write=False)
        self.means.setflags(write=False)


def solve_ccr(cs: CrossSection, dmu: str, orientation: str = "input") -> EfficiencyResult:
    """Constant-returns-to-scale radial efficiency for one DMU."""
    return _solve_dea(cs, dmu, "CRS", orientation)


def solve_bcc(cs: CrossSection, dmu: str, orientation: str = "input") -> EfficiencyResult:
    """Variable-returns-to-scale radial efficiency (adds the convexity
    constraint sum(lambda) = 1 to the envelopment program)."""
    return _solve_dea(cs, dmu, "VRS", orientation)


def _solve_dea(cs: CrossSection, dmu: str, rts: str, orientation: str) -> EfficiencyResult:
    if orientation not in ORIENTATIONS:
        raise UsageError(f"orientation must be one of {ORIENTATIONS}")
    o = cs.dmu_index(dmu)
    m = cs.inputs.shape[1]
    s = cs.outputs.shape[1]
    ((score, env),) = _radial(cs, [o], rts, orientation)

    # The envelopment duals are the multiplier weights. Input orientation
    # (a min) has duals <= 0 on the input rows and >= 0 on the output rows,
    # output orientation (a max) the reverse; the convexity row's dual is
    # the VRS offset.
    sign = -1.0 if orientation == "input" else 1.0
    return EfficiencyResult(
        dmu=dmu,
        score=score,
        orientation=orientation,
        returns_to_scale=rts,
        multiplier_u=-sign * env.dual[m:m + s],
        multiplier_v=sign * env.dual[:m],
        scale_offset=float(env.dual[m + s]) if rts == "VRS" else None,
        cross_section=cs,
    )


def score_period(cs: CrossSection, spec: DeaSpec) -> np.ndarray:
    """Radial scores of every DMU of one cross-section, in cs.dmus order,
    from stacks of envelopment solves; each equals
    solve_ccr/solve_bcc(...).score. A failure is raised for the first DMU
    in order whose program fails."""
    solved = _radial(cs, np.arange(len(cs.dmus)), spec.returns_to_scale, spec.orientation)
    return np.array([score for score, _ in solved])


def _radial(cs: CrossSection, dmus, rts, orientation) -> Iterator[tuple[float, LpSolution]]:
    """Solve the envelopment programs of the DMUs at positions dmus of cs
    in order, in stacks whose A takes at most STACK_BYTES (one program at
    least); yield each one's snapped score and certified solution, whose
    duals are the multiplier weights. A stack is solved only once every
    program before it has been yielded, so a caller that keeps only the
    scores holds one stack's solutions at a time."""
    X, Y = cs.inputs, cs.outputs
    n, m = X.shape
    step = max(1, STACK_BYTES // (8 * (m + Y.shape[1] + (rts == "VRS")) * (n + 1)))
    outcomes = (env for i in range(0, len(dmus), step)
                for env in solve_stack(*_envelopment_lps(X, Y, dmus[i:i + step], rts, orientation)))
    for o, env in zip(dmus, outcomes):
        if isinstance(env, LpSolverError) or env.status != "optimal":
            program = f"period={cs.period}: envelopment program for dmu {cs.dmus[o]!r}"
            if isinstance(env, LpSolverError):
                raise LpSolverError(f"{program}: {env}", env.diagnostics) from env
            raise DeaConsistencyError(f"{program} reported {env.status}; input data must be strictly positive")
        score = env.objective_value
        if abs(score - 1.0) <= SCORE_SNAP_TOL:
            score = 1.0
        elif orientation == "input":
            score = min(max(score, _SCORE_FLOOR), 1.0)
        else:
            score = max(score, 1.0)
        yield float(score), env


def _envelopment_lps(X, Y, dmus, rts, orientation) -> tuple:
    """solve_stack's arguments for the envelopment programs of the DMUs at
    positions dmus, with A of shape (len(dmus), m + s [+ 1], n + 1): the
    lambda columns are the same for every DMU, the radial column and the
    rhs are its own data."""
    # columns: [radial factor, lambda_1 .. lambda_n]
    n, m = X.shape
    s = Y.shape[1]
    vrs = rts == "VRS"
    A = np.zeros((len(dmus), m + s + vrs, n + 1))
    b = np.zeros((len(dmus), m + s + vrs))
    A[:, :m, 1:] = X.T
    A[:, m:m + s, 1:] = Y.T
    if orientation == "input":
        # min theta  s.t.  X'lam <= theta x_o ,  Y'lam >= y_o
        A[:, :m, 0] = -X[dmus]
        b[:, m:m + s] = Y[dmus]
        sense = "min"
    else:
        # max phi  s.t.  X'lam <= x_o ,  Y'lam >= phi y_o
        b[:, :m] = X[dmus]
        A[:, m:m + s, 0] = -Y[dmus]
        sense = "max"
    if vrs:
        A[:, -1, 1:] = 1.0
        b[:, -1] = 1.0
    c = np.zeros(n + 1)
    c[0] = 1.0
    return c, sense, A, ["<="] * m + [">="] * s + ["="] * vrs, b


def _slack_stage_lp(X, Y, o, rts, orientation, score) -> LpProblem:
    # columns: [lambda (n), input slacks (m), output slacks (s)]
    n, m = X.shape
    s = Y.shape[1]
    c = np.zeros(n + m + s)
    c[n:] = 1.0
    A = np.zeros((m + s + (rts == "VRS"), n + m + s))
    A[:m, :n] = X.T
    A[m:m + s, :n] = Y.T
    A[np.arange(m + s), n + np.arange(m + s)] = np.repeat([1.0, -1.0], [m, s])
    A[m + s:, :n] = 1.0
    x_target = score * X[o] if orientation == "input" else X[o]
    y_target = Y[o] if orientation == "input" else score * Y[o]
    b = np.concatenate([x_target, y_target, [1.0] * (rts == "VRS")])
    return LpProblem(c, "max", zip(A, ["="] * len(b), b))


def require_valid(panel: PanelDataset, spec: DeaSpec) -> None:
    """Raise ValidationFailedError unless validate_for_dea passes the panel
    for spec; every panel is checked this way before any of its periods is
    solved."""
    report = validate_for_dea(panel, spec)
    if not report.ok:
        raise ValidationFailedError(
            f"dataset failed DEA validation: {report.summary()}", report=report
        )


def run_panel_dea(panel: PanelDataset, spec: DeaSpec) -> EfficiencyPanel:
    """Solve one independent DEA per period and aggregate mean scores.

    Each period is its own reference set. The score matrix is filled in
    (dmu, period) order regardless of how individual solves are scheduled,
    and means are plain arithmetic means over periods in period order.
    """
    require_valid(panel, spec)
    scores = np.zeros((len(panel.dmus), len(panel.periods)))
    for p, period in enumerate(panel.periods):
        scores[:, p] = score_period(slice_period(panel, period, spec), spec)
    means = scores.sum(axis=1) / len(panel.periods)
    return EfficiencyPanel(panel.dmus, panel.periods, scores, means, spec)
