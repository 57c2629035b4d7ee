"""Tail probabilities for the F and Student-t distributions.

Both CDFs reduce to the regularized incomplete beta function, which is
evaluated with the standard continued-fraction expansion (modified Lentz
iteration). Accuracy is well below the 1e-10 absolute tolerance the rest
of the package assumes.
"""

from __future__ import annotations

import math

from .errors import UsageError

_CF_TOL = 1e-14
_CF_MAX_ITER = 500
_TINY = 1e-300


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral at (a, b, x)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even step, then the odd step, of the fraction's m-th pair
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function.

    Uses the continued-fraction expansion directly when x is below the
    symmetry point (a + 1) / (a + b + 2) and the reflection
    I_x(a, b) = 1 - I_{1-x}(b, a) otherwise, where the fraction converges
    fastest.
    """
    if a <= 0.0 or b <= 0.0:
        raise UsageError(f"incomplete beta requires positive shape parameters, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def f_cdf(f: float, df_num: float, df_den: float) -> float:
    """P(F <= f) for an F distribution with (df_num, df_den) degrees of freedom."""
    if df_num <= 0 or df_den <= 0:
        raise UsageError(f"F distribution requires positive degrees of freedom, got ({df_num}, {df_den})")
    if f <= 0.0:
        return 0.0
    if math.isinf(f):
        return 1.0
    x = df_num * f / (df_num * f + df_den)
    return regularized_incomplete_beta(0.5 * df_num, 0.5 * df_den, x)


def f_sf(f: float, df_num: float, df_den: float) -> float:
    """P(F > f); the reflected incomplete beta avoids cancellation near 1."""
    if df_num <= 0 or df_den <= 0:
        raise UsageError(f"F distribution requires positive degrees of freedom, got ({df_num}, {df_den})")
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = df_den / (df_num * f + df_den)
    return regularized_incomplete_beta(0.5 * df_den, 0.5 * df_num, x)


def t_two_tailed_p(t: float, df: float) -> float:
    """Two-tailed p-value P(|T| >= |t|) under Student-t with df degrees of freedom."""
    if df <= 0:
        raise UsageError(f"Student-t distribution requires positive degrees of freedom, got {df}")
    if math.isnan(t):
        return 1.0
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t))
