"""Radial DEA efficiency models over per-period cross-sections.

Each score is one envelopment program. The solver certifies its optimum
(primal feasibility, dual feasibility and strong duality), and the
certified duals are the multiplier program's solution: the virtual input
and output weights and, under VRS, the free scale offset. The score is
therefore units-invariant by construction and its weights come at no
extra solve. solve_ccr/solve_bcc add a second-stage slack-maximizing
envelopment solve that flags weak efficiency and finds the peers; no
non-Archimedean epsilon is used, because any absolute epsilon would break
units invariance. Panel scoring (score_period, run_panel_dea) reads only
the score and skips that stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DeaConsistencyError, UsageError, ValidationFailedError
from .linprog import LpProblem, LpSolution, solve_lp
from .panel_data import CrossSection, PanelDataset, slice_period, validate_for_dea

RETURNS_TO_SCALE = ("CRS", "VRS")
ORIENTATIONS = ("input", "output")

SCORE_SNAP_TOL = 1e-7     # scores this close to 1 are reported as exactly 1
_SLACK_TOL = 1e-7
_SCORE_FLOOR = 1e-12


@dataclass(frozen=True)
class DeaSpec:
    """Configuration of one DEA analysis: variable lists, returns to scale,
    and orientation."""

    input_vars: tuple[str, ...]
    output_vars: tuple[str, ...]
    returns_to_scale: str = "CRS"
    orientation: str = "input"

    def __post_init__(self):
        object.__setattr__(self, "input_vars", tuple(self.input_vars))
        object.__setattr__(self, "output_vars", tuple(self.output_vars))
        if not self.input_vars or not self.output_vars:
            raise UsageError("input_vars and output_vars must be non-empty")
        if set(self.input_vars) & set(self.output_vars):
            raise UsageError("input_vars and output_vars must be disjoint")
        if self.returns_to_scale not in RETURNS_TO_SCALE:
            raise UsageError(f"returns_to_scale must be one of {RETURNS_TO_SCALE}")
        if self.orientation not in ORIENTATIONS:
            raise UsageError(f"orientation must be one of {ORIENTATIONS}")


@dataclass(frozen=True)
class EfficiencyResult:
    """One DMU's solved efficiency in one cross-section.

    score is theta in (0, 1] for input orientation and phi >= 1 for output
    orientation. multiplier_u / multiplier_v are the virtual output and
    input weights and scale_offset is the free multiplier the VRS model
    adds; all three are the certified duals of the envelopment program.
    lambdas, input_slacks and output_slacks come from the second-stage
    slack-maximizing envelopment solve.
    """

    dmu: str
    score: float
    orientation: str
    returns_to_scale: str
    multiplier_u: np.ndarray
    multiplier_v: np.ndarray
    scale_offset: float | None
    lambdas: np.ndarray
    input_slacks: np.ndarray
    output_slacks: np.ndarray

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


@dataclass(frozen=True)
class EfficiencyPanel:
    """Scores for every (dmu, period) plus the per-DMU mean used downstream."""

    dmus: tuple[str, ...]
    periods: tuple[str, ...]
    scores: np.ndarray
    means: np.ndarray
    spec: DeaSpec

    def __post_init__(self):
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
    X = cs.inputs  # (n, m)
    Y = cs.outputs  # (n, s)
    n, m = X.shape
    s = Y.shape[1]

    score, env = _radial(X, Y, o, rts, orientation, dmu)

    slack = solve_lp(_slack_stage_lp(X, Y, o, rts, orientation, score))
    if slack.status != "optimal":
        raise DeaConsistencyError(f"slack stage for dmu {dmu!r} reported {slack.status}")
    lambdas = slack.primal[:n].copy()
    input_slacks = slack.primal[n:n + m].copy()
    output_slacks = slack.primal[n + m:n + m + s].copy()

    # A DMU that is radial-efficient with zero maximal slack is strongly
    # efficient; report it as its own sole peer even when duplicates admit
    # alternative optima.
    data_scale = max(1.0, float(X[o].max()), float(Y[o].max()))
    if score == 1.0 and slack.objective_value <= _SLACK_TOL * data_scale:
        lambdas = np.zeros(n)
        lambdas[o] = 1.0
        input_slacks = np.zeros(m)
        output_slacks = np.zeros(s)

    # The envelopment duals are the multiplier weights. Input orientation
    # (a min) has duals <= 0 on the input rows and >= 0 on the output rows,
    # output orientation (a max) the reverse; the convexity row's dual is
    # the VRS offset.
    sign = -1.0 if orientation == "input" else 1.0
    v = sign * env.dual[:m]
    u = -sign * env.dual[m:m + s]
    offset = float(env.dual[m + s]) if rts == "VRS" else None

    return EfficiencyResult(
        dmu=dmu,
        score=score,
        orientation=orientation,
        returns_to_scale=rts,
        multiplier_u=u,
        multiplier_v=v,
        scale_offset=offset,
        lambdas=lambdas,
        input_slacks=input_slacks,
        output_slacks=output_slacks,
    )


def score_period(cs: CrossSection, spec: DeaSpec) -> np.ndarray:
    """Radial scores of every DMU of one cross-section, in cs.dmus order:
    one envelopment solve per DMU, equal to solve_ccr/solve_bcc(...).score."""
    return np.array([
        _radial(cs.inputs, cs.outputs, o, spec.returns_to_scale, spec.orientation, dmu)[0]
        for o, dmu in enumerate(cs.dmus)
    ])


def _radial(X, Y, o, rts, orientation, dmu) -> tuple[float, LpSolution]:
    """Solve DMU o's envelopment program; return its snapped score and the
    certified solution, whose duals are the multiplier weights."""
    env = solve_lp(_envelopment_lp(X, Y, o, rts, orientation))
    if env.status != "optimal":
        raise DeaConsistencyError(
            f"envelopment program for dmu {dmu!r} reported {env.status}; input data must be strictly positive"
        )
    score = env.objective_value
    if abs(score - 1.0) <= SCORE_SNAP_TOL:
        score = 1.0
    elif orientation == "input":
        score = min(max(score, _SCORE_FLOOR), 1.0)
    else:
        score = max(score, 1.0)
    return float(score), env


def _envelopment_lp(X, Y, o, rts, orientation) -> LpProblem:
    # columns: [radial factor, lambda_1 .. lambda_n]
    n, m = X.shape
    s = Y.shape[1]
    cons = []
    if orientation == "input":
        # min theta  s.t.  X'lam <= theta x_o ,  Y'lam >= y_o
        for i in range(m):
            cons.append((np.concatenate(([-X[o, i]], X[:, i])), "<=", 0.0))
        for r in range(s):
            cons.append((np.concatenate(([0.0], Y[:, r])), ">=", Y[o, r]))
        sense = "min"
    else:
        # max phi  s.t.  X'lam <= x_o ,  Y'lam >= phi y_o
        for i in range(m):
            cons.append((np.concatenate(([0.0], X[:, i])), "<=", X[o, i]))
        for r in range(s):
            cons.append((np.concatenate(([-Y[o, r]], Y[:, r])), ">=", 0.0))
        sense = "max"
    if rts == "VRS":
        cons.append((np.concatenate(([0.0], np.ones(n))), "=", 1.0))
    c = np.zeros(n + 1)
    c[0] = 1.0
    return LpProblem(c, sense, cons)


def _slack_stage_lp(X, Y, o, rts, orientation, score) -> LpProblem:
    # columns: [lambda (n), input slacks (m), output slacks (s)]
    n, m = X.shape
    s = Y.shape[1]
    width = n + m + s
    c = np.zeros(width)
    c[n:] = 1.0
    x_target = score * X[o] if orientation == "input" else X[o]
    y_target = Y[o] if orientation == "input" else score * Y[o]
    cons = []
    for i in range(m):
        row = np.zeros(width)
        row[:n] = X[:, i]
        row[n + i] = 1.0
        cons.append((row, "=", x_target[i]))
    for r in range(s):
        row = np.zeros(width)
        row[:n] = Y[:, r]
        row[n + m + r] = -1.0
        cons.append((row, "=", y_target[r]))
    if rts == "VRS":
        row = np.zeros(width)
        row[:n] = 1.0
        cons.append((row, "=", 1.0))
    return LpProblem(c, "max", cons)


def run_panel_dea(panel: PanelDataset, spec: DeaSpec) -> EfficiencyPanel:
    """Solve one independent DEA per period and aggregate mean scores.

    Each period is its own reference set. The score matrix is filled in
    (dmu, period) order regardless of how individual solves are scheduled,
    and means are plain arithmetic means over periods in period order.
    """
    report = validate_for_dea(panel, spec)
    if not report.ok:
        raise ValidationFailedError(
            f"dataset failed DEA validation: {report.summary()}", report=report
        )
    n_dmus = len(panel.dmus)
    n_periods = len(panel.periods)
    scores = np.zeros((n_dmus, n_periods))
    for p, period in enumerate(panel.periods):
        cs = slice_period(panel, period, spec)
        try:
            scores[:, p] = score_period(cs, spec)
        except DeaConsistencyError as exc:
            raise DeaConsistencyError(f"period={period}: {exc}") from exc
    means = scores.sum(axis=1) / n_periods
    return EfficiencyPanel(panel.dmus, panel.periods, scores, means, spec)
