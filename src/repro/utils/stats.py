"""Small-sample inference primitives (numpy-only, no scipy).

The replay layer needs Student-t intervals for paired per-day deltas
(a 5-day A/B test gives n=5 i.i.d. deltas — a normal interval would be
badly anti-conservative at that size), and the container deliberately
ships without scipy.  This module implements the minimal chain from
scratch: the regularized incomplete beta function via the standard
Lentz continued fraction, the Student-t CDF through it, the t quantile
as a safeguarded Newton solve on that CDF, and
:func:`mean_confidence_interval` on top.

Accuracy is plenty for inference: ``t_ppf`` matches tabulated critical
values to ~1e-8 (see the pinned tests), and every function is a pure
``float -> float`` with no global state.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MeanCI",
    "betainc",
    "mean_confidence_interval",
    "t_cdf",
    "t_ppf",
    "welch_ci_from_moments",
    "welch_confidence_interval",
]

_MAX_CF_ITER = 300
_CF_EPS = 3e-14
_TINY = 1e-300
_MAX_NEWTON_ITER = 200
# relative size below which t_ppf's Newton steps are t_cdf's rounding
_T_CDF_NOISE = 1e-9
_STANDARD_NORMAL = NormalDist()


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(f"betacf failed to converge for a={a}, b={b}, x={x}")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``.

    The continued fraction converges fast for ``x < (a+1)/(a+b+2)``;
    the complementary symmetry ``I_x(a,b) = 1 - I_{1-x}(b,a)`` covers
    the rest (Numerical Recipes §6.4).
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"a and b must be > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return float(x)
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"df must be > 0, got {df}")
    x = float(x)
    if x == 0.0:
        return 0.5
    tail = 0.5 * betainc(0.5 * df, 0.5, df / (df + x * x))
    return 1.0 - tail if x > 0 else tail


def _t_ppf_start(q: float, df: float) -> float:
    """Closed-form start for the upper t quantile (``q > 0.5``).

    Hill's (1970) Algorithm 396, exact for ``df`` 1 and 2; below
    ``df = 1`` the power-law tail ``1 - q ≈ c·x^(-df)`` instead, which
    lies at or right of the quantile.
    """
    p = 2.0 * (1.0 - q)  # two-sided tail probability
    if df == 1.0:
        return 1.0 / math.tan(0.5 * math.pi * p)
    if df == 2.0:
        return math.sqrt(2.0 / (p * (2.0 - p)) - 2.0)
    if df < 1.0:
        log_c = (
            math.lgamma(0.5 * (df + 1.0))
            - math.lgamma(0.5 * df)
            - 0.5 * math.log(df * math.pi)
            + 0.5 * (df - 1.0) * math.log(df)
        )
        return math.exp(min((log_c - math.log1p(-q)) / df, 700.0))
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * p) ** (2.0 / df)
    if (df < 2.1 and p > 0.5) or y > 0.05 + a:
        # asymptotic inverse expansion about the normal quantile
        x = _STANDARD_NORMAL.inv_cdf(0.5 * p)
        y = x * x
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = (
            (1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0) + 0.5 / (df + 4.0))
            * y
            - 1.0
        ) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def t_ppf(q: float, df: float) -> float:
    """Quantile (inverse CDF) of Student's t, solved on :func:`t_cdf`.

    Newton steps with the t density from a closed-form start (Hill's
    Algorithm 396), inside a bracket of the root that every evaluation
    narrows: a step that leaves the bracket is replaced by its
    midpoint.  The solve stops once a step falls below
    ``1e-12·max(1, x)``, or when steps stop shrinking below
    ``1e-9·x`` or overshoot a bracket that narrow: there the rounding
    of ``t_cdf`` outweighs the step (near ``df = 1e6`` it moves in
    steps of a few 1e-12).

    Exact symmetry ``t_ppf(1-q) = -t_ppf(q)`` is enforced, so two-sided
    intervals are perfectly symmetric.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if df <= 0:
        raise ValueError(f"df must be > 0, got {df}")
    if q == 0.5:
        return 0.0
    if q < 0.5:
        return -t_ppf(1.0 - q, df)
    log_norm = math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    power = -0.5 * (df + 1.0)
    x = _t_ppf_start(q, df)
    lo, hi, last = 0.0, math.inf, math.inf
    for _ in range(_MAX_NEWTON_ITER):
        f = t_cdf(x, df) - q
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        density = math.exp(log_norm + power * math.log1p(x * x / df))
        new = x - f / density if density > 0.0 else math.nan
        if lo < new < hi:
            step = abs(new - x)
            if step <= 1e-12 * max(1.0, x) or (step >= last and step <= _T_CDF_NOISE * x):
                return new
            last = step
            x = new
        elif hi - lo <= _T_CDF_NOISE * x:
            # the step overshoots a bracket t_cdf's rounding cannot narrow
            return 0.5 * (lo + hi)
        else:  # bisect the bracket (double x while it is open above)
            x = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
            last = math.inf
    return x


class MeanCI(NamedTuple):
    """A two-sided t-interval for a mean: ``mean ± half_width``."""

    mean: float
    lo: float
    hi: float
    half_width: float
    level: float
    n: int

    def excludes_zero(self) -> bool:
        """True when the interval is strictly on one side of zero."""
        return self.lo > 0.0 or self.hi < 0.0


def mean_confidence_interval(samples: Sequence[float], level: float = 0.95) -> MeanCI:
    """Two-sided Student-t interval for the mean of i.i.d. samples.

    ``mean ± t_{1-(1-level)/2, n-1} * sd / sqrt(n)``, the exact
    small-sample interval under normality and the standard asymptotic
    one otherwise.  Degenerate zero-variance samples give a
    zero-width interval at the mean.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    values = np.asarray(list(samples), dtype=float).ravel()
    n = values.shape[0]
    if n < 2:
        raise ValueError(f"need >= 2 samples for a t-interval, got {n}")
    if np.any(~np.isfinite(values)):
        raise ValueError("samples must be finite")
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    half = t_ppf(1.0 - 0.5 * (1.0 - level), n - 1) * sd / math.sqrt(n)
    return MeanCI(mean, mean - half, mean + half, half, float(level), n)


def welch_ci_from_moments(
    mean_a: float,
    var_a: float,
    n_a: int,
    mean_b: float,
    var_b: float,
    n_b: int,
    level: float = 0.95,
) -> MeanCI:
    """Welch t-interval for ``mean_a - mean_b`` from streaming moments.

    The two-sample path for *unpaired* data: a champion and a
    challenger serve disjoint keyed traffic slices, so their outcomes
    cannot be paired per user the way
    :meth:`~repro.ab.replay.PolicyReplay.delta_ci` pairs per-day CRN
    deltas.  Welch's unequal-variance interval with the
    Welch–Satterthwaite degrees of freedom is the standard answer, and
    taking sample moments (``var`` with ``ddof=1``) instead of raw
    arrays lets callers keep O(1) streaming ledgers.  ``n`` on the
    returned :class:`MeanCI` is the combined ``n_a + n_b``.

    Degenerate zero-variance arms give a zero-width interval at the
    mean difference (the Satterthwaite formula is 0/0 there).
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if n_a < 2 or n_b < 2:
        raise ValueError(f"need >= 2 samples per arm, got n_a={n_a}, n_b={n_b}")
    if not (var_a >= 0.0 and var_b >= 0.0):  # rejects NaN too
        raise ValueError(f"variances must be >= 0, got {var_a}, {var_b}")
    if not (math.isfinite(mean_a) and math.isfinite(mean_b)):
        raise ValueError(f"means must be finite, got {mean_a}, {mean_b}")
    delta = float(mean_a) - float(mean_b)
    sa, sb = var_a / n_a, var_b / n_b
    se2 = sa + sb
    if se2 <= 0.0:
        return MeanCI(delta, delta, delta, 0.0, float(level), n_a + n_b)
    df = se2 * se2 / (sa * sa / (n_a - 1) + sb * sb / (n_b - 1))
    half = t_ppf(1.0 - 0.5 * (1.0 - level), df) * math.sqrt(se2)
    return MeanCI(delta, delta - half, delta + half, half, float(level), n_a + n_b)


def welch_confidence_interval(
    a: Sequence[float], b: Sequence[float], level: float = 0.95
) -> MeanCI:
    """Welch t-interval for ``mean(a) - mean(b)`` of two independent samples.

    Array-facing wrapper over :func:`welch_ci_from_moments`; see there
    for when to prefer this over the paired interval.
    """
    xs = np.asarray(a, dtype=float).ravel()
    ys = np.asarray(b, dtype=float).ravel()
    if xs.shape[0] < 2 or ys.shape[0] < 2:
        raise ValueError(
            f"need >= 2 samples per arm, got {xs.shape[0]} and {ys.shape[0]}"
        )
    if np.any(~np.isfinite(xs)) or np.any(~np.isfinite(ys)):
        raise ValueError("samples must be finite")
    return welch_ci_from_moments(
        float(xs.mean()),
        float(xs.var(ddof=1)),
        int(xs.shape[0]),
        float(ys.mean()),
        float(ys.var(ddof=1)),
        int(ys.shape[0]),
        level=level,
    )
