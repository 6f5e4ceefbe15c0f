"""Tests for the numpy-only inference primitives (``repro.utils.stats``)."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import stats
from repro.utils.stats import (
    MeanCI,
    betainc,
    mean_confidence_interval,
    t_cdf,
    t_ppf,
    welch_ci_from_moments,
    welch_confidence_interval,
)


class TestBetainc:
    def test_endpoints(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0

    def test_uniform_special_case(self):
        # I_x(1, 1) is the uniform CDF
        for x in (0.1, 0.35, 0.8):
            assert betainc(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_symmetry(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        assert betainc(2.5, 4.0, 0.3) == pytest.approx(
            1.0 - betainc(4.0, 2.5, 0.7), abs=1e-12
        )

    def test_known_value(self):
        # I_{0.5}(2, 2) = 0.5 by symmetry of Beta(2, 2)
        assert betainc(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="a and b"):
            betainc(0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="x must"):
            betainc(1.0, 1.0, 1.5)


class TestTCdf:
    def test_symmetry_and_median(self):
        assert t_cdf(0.0, 5) == 0.5
        assert t_cdf(1.7, 5) == pytest.approx(1.0 - t_cdf(-1.7, 5), abs=1e-12)

    def test_df1_is_cauchy(self):
        # t with 1 df is standard Cauchy: CDF(1) = 3/4
        assert t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-10)

    def test_large_df_approaches_normal(self):
        # Phi(1.96) ~ 0.975002
        assert t_cdf(1.96, 10_000) == pytest.approx(0.975002, abs=5e-4)

    def test_invalid_df(self):
        with pytest.raises(ValueError, match="df"):
            t_cdf(1.0, 0)

    def test_keeps_its_precision_near_the_median_at_large_df(self):
        """Regression: ``df / (df + x²)`` rounded ``x²/df`` away, so at
        df = 1e6 ``t_cdf(1e-6)`` read exactly 0.5 and ``t_ppf(0.5000001)``
        returned 7.63e-6, 30x the normal limit."""
        normal = NormalDist()
        assert t_cdf(1e-6, 1e6) - 0.5 == pytest.approx(1e-6 * normal.pdf(0.0), rel=1e-6)
        assert 0.5 - t_cdf(-1e-6, 1e6) == pytest.approx(1e-6 * normal.pdf(0.0), rel=1e-6)
        assert t_ppf(0.5000001, 1e6) == pytest.approx(normal.inv_cdf(0.5000001), rel=1e-6)

    @pytest.mark.parametrize("df", [0.5, 1.0, 5.0, 200.0, 1e6])
    def test_median_and_tail_forms_meet_at_x_squared_equal_df(self, df):
        edge = math.sqrt(df)
        for x in (edge, -edge):
            below, above = t_cdf(x * (1 - 1e-10), df), t_cdf(x * (1 + 1e-10), df)
            assert abs(above - below) < 1e-9


class TestTPpf:
    @pytest.mark.parametrize(
        "df, expect",
        [
            (1, 12.7062047),  # the classic two-sided 95% critical values
            (2, 4.3026527),
            (4, 2.7764451),
            (10, 2.2281389),
            (30, 2.0422725),
            (100, 1.9839715),
        ],
    )
    def test_matches_tabulated_critical_values(self, df, expect):
        assert t_ppf(0.975, df) == pytest.approx(expect, abs=1e-5)

    def test_symmetry_and_median(self):
        assert t_ppf(0.5, 7) == 0.0
        assert t_ppf(0.025, 7) == pytest.approx(-t_ppf(0.975, 7), abs=1e-12)

    def test_roundtrip_with_cdf(self):
        for q in (0.6, 0.9, 0.99):
            assert t_cdf(t_ppf(q, 6), 6) == pytest.approx(q, abs=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="q must"):
            t_ppf(0.0, 5)
        with pytest.raises(ValueError, match="df"):
            t_ppf(0.9, -1)


def bisect_t_ppf(q: float, df: float) -> float:
    """The bisection ``t_ppf`` solved by before its Newton solve: the
    reference the Newton quantile is held to."""
    if q == 0.5:
        return 0.0
    if q < 0.5:
        return -bisect_t_ppf(1.0 - q, df)
    hi = 2.0
    while t_cdf(hi, df) < q:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


GRID_Q = (0.6, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999, 1.0 - 5e-6)
GRID_DF = (0.5, 0.75, 1, 1.5, 2, 2.5, 3, 5, 10, 30, 100, 1e3, 1e4, 1e5, 1e6)
GATE_Q = (0.9, 0.95, 0.975, 0.99, 0.995)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestTPpfNewton:
    """``t_ppf`` is a safeguarded Newton solve: within 1e-9 relative of
    the bisection it replaced, on a few ``t_cdf`` evaluations."""

    @pytest.mark.parametrize("df", GRID_DF)
    def test_grid_matches_bisection(self, df):
        for q in GRID_Q:
            expect = bisect_t_ppf(q, df)
            assert t_ppf(q, df) == pytest.approx(expect, rel=1e-9, abs=0.0), (q, df)
            assert t_ppf(1.0 - q, df) == -t_ppf(1.0 - (1.0 - q), df)  # exact symmetry

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.6, 1.0 - 5e-6), log_uniform(0.5, 1e6))
    def test_random_points_match_bisection(self, q, df):
        assert t_ppf(q, df) == pytest.approx(bisect_t_ppf(q, df), rel=1e-9, abs=0.0)

    @staticmethod
    def _evaluations(monkeypatch, q: float, df: float) -> int:
        calls = []
        real = stats.t_cdf

        def counting(x, df):
            calls.append(x)
            return real(x, df)

        monkeypatch.setattr(stats, "t_cdf", counting)
        stats.t_ppf(q, df)
        monkeypatch.setattr(stats, "t_cdf", real)
        return len(calls)

    @pytest.mark.parametrize("q", GATE_Q)
    def test_few_cdf_evaluations_on_a_grid(self, monkeypatch, q):
        for df in (1, 1.2, 2, 3, 4.5, 7, 10, 38, 200, 2400, 1e4, 1e5, 3e5, 1e6):
            assert self._evaluations(monkeypatch, q, df) <= 8, (q, df)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(GATE_Q), log_uniform(1.0, 1e6))
    def test_few_cdf_evaluations_on_random_df(self, q, df):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert self._evaluations(monkeypatch, q, df) <= 8

    @pytest.mark.parametrize("factor", [1e-6, 1e-2, 0.5, 2.0, 1e2, 1e6])
    @pytest.mark.parametrize("q, df", [(0.6, 0.5), (0.975, 0.7), (0.999, 1.5), (0.975, 38), (0.9, 1e6)])
    def test_bracket_carries_a_bad_start_to_the_root(self, monkeypatch, factor, q, df):
        """From a start a factor off the quantile, the bracket keeps
        every step on the root's side and the solve still lands on the
        bisection's answer."""
        expect = bisect_t_ppf(q, df)
        monkeypatch.setattr(stats, "_t_ppf_start", lambda q, df: factor * expect)
        assert stats.t_ppf(q, df) == pytest.approx(expect, rel=1e-9, abs=0.0)

    def test_start_is_exact_for_one_and_two_df(self):
        q = 0.975
        assert stats._t_ppf_start(q, 1) == pytest.approx(math.tan(math.pi * (q - 0.5)), rel=1e-14)
        assert stats._t_ppf_start(q, 2) == pytest.approx(
            (2 * q - 1) / math.sqrt(2 * q * (1 - q)), rel=1e-14
        )


class TestMeanConfidenceInterval:
    def test_pinned_textbook_interval(self):
        """n=5, mean 3, sd sqrt(2.5): 3 ± 2.7764 * sqrt(2.5/5)."""
        ci = mean_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0], level=0.95)
        assert isinstance(ci, MeanCI)
        assert ci.mean == pytest.approx(3.0)
        assert ci.half_width == pytest.approx(2.7764451 * np.sqrt(2.5 / 5.0), abs=1e-5)
        assert ci.lo == pytest.approx(ci.mean - ci.half_width)
        assert ci.hi == pytest.approx(ci.mean + ci.half_width)
        assert ci.n == 5 and ci.level == 0.95

    def test_zero_variance_degenerates_to_a_point(self):
        ci = mean_confidence_interval([2.0, 2.0, 2.0])
        assert (ci.lo, ci.mean, ci.hi) == (2.0, 2.0, 2.0)
        assert ci.excludes_zero()

    def test_higher_level_is_wider(self):
        samples = [0.3, 1.1, -0.4, 0.8, 0.2, 0.9]
        assert (
            mean_confidence_interval(samples, level=0.99).half_width
            > mean_confidence_interval(samples, level=0.95).half_width
            > mean_confidence_interval(samples, level=0.5).half_width
        )

    def test_excludes_zero(self):
        assert mean_confidence_interval([5.0, 5.1, 4.9]).excludes_zero()
        assert not mean_confidence_interval([-1.0, 1.0, 0.5, -0.5]).excludes_zero()

    def test_coverage_is_nominal(self):
        """Monte-Carlo: the 90% t-interval covers the true mean ~90%
        of the time for tiny normal samples (the reason to use t)."""
        rng = np.random.default_rng(0)
        covered = 0
        n_rep = 2000
        for _ in range(n_rep):
            ci = mean_confidence_interval(rng.normal(1.0, 2.0, size=5), level=0.9)
            covered += ci.lo <= 1.0 <= ci.hi
        assert covered / n_rep == pytest.approx(0.9, abs=0.02)

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="level"):
            mean_confidence_interval([1.0, 2.0], level=1.0)
        with pytest.raises(ValueError, match=">= 2"):
            mean_confidence_interval([1.0])
        with pytest.raises(ValueError, match="finite"):
            mean_confidence_interval([1.0, np.nan, 2.0])


class TestWelch:
    """Two-sample Welch interval (the unpaired significance primitive)."""

    def test_matches_hand_computed_example(self):
        # a classic unequal-variance two-sample layout; reference
        # numbers computed once from the Welch-Satterthwaite formulas
        a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1,
             21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4]
        b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0,
             24.8, 20.2, 21.9, 22.1, 22.9, 30.5]
        ci = welch_confidence_interval(a, b)
        assert ci.mean == pytest.approx(-2.78, abs=1e-12)
        # se = 1.026672, Welch-Satterthwaite df = 26.9527,
        # t_{0.975, 26.9527} = 2.051999 -> half = 2.106730
        assert ci.half_width == pytest.approx(2.106730, abs=1e-5)
        assert ci.lo == pytest.approx(-4.886730, abs=1e-5)
        assert ci.hi == pytest.approx(-0.673270, abs=1e-5)
        assert ci.n == 29
        assert ci.excludes_zero()

    def test_one_degenerate_arm_analytic(self):
        # var_b = 0: se^2 = var_a/n_a, df = n_a - 1 exactly
        ci = welch_confidence_interval([0.0, 2.0], [5.0, 5.0, 5.0, 5.0])
        assert ci.mean == pytest.approx(-4.0)
        # se = 1, df = 1 -> half = t_{0.975, 1} = 12.7062047
        assert ci.half_width == pytest.approx(12.7062047, abs=1e-5)

    def test_equal_arms_reduce_to_pooled_df(self):
        # equal n and equal variance: df = 2n - 2, the Student case
        gen = np.random.default_rng(3)
        a = gen.normal(size=20)
        b = a + 0.5  # identical sample variance by construction
        ci = welch_confidence_interval(a, b)
        se = float(np.sqrt(2.0 * a.var(ddof=1) / 20))
        assert ci.half_width == pytest.approx(t_ppf(0.975, 38) * se, rel=1e-9)

    def test_moments_path_matches_array_path(self):
        gen = np.random.default_rng(7)
        a, b = gen.normal(1.0, 2.0, 30), gen.normal(0.5, 0.3, 12)
        from_arrays = welch_confidence_interval(a, b, level=0.9)
        from_moments = welch_ci_from_moments(
            float(a.mean()), float(a.var(ddof=1)), 30,
            float(b.mean()), float(b.var(ddof=1)), 12,
            level=0.9,
        )
        assert from_arrays == pytest.approx(from_moments)

    def test_zero_variance_both_arms_is_zero_width(self):
        ci = welch_ci_from_moments(1.5, 0.0, 10, 1.0, 0.0, 10)
        assert ci == MeanCI(0.5, 0.5, 0.5, 0.0, 0.95, 20)

    def test_coverage_is_nominal_under_behrens_fisher(self):
        """Monte-Carlo: unequal variances and unequal n — the exact
        regime where the pooled-variance t-interval undercovers and
        Welch is the fix.  Coverage must sit at the nominal level."""
        gen = np.random.default_rng(0)
        covered = 0
        n_rep = 2000
        for _ in range(n_rep):
            a = gen.normal(1.0, 10.0, size=6)   # small arm, huge variance
            b = gen.normal(0.0, 1.0, size=40)   # big arm, small variance
            ci = welch_confidence_interval(a, b, level=0.9)
            covered += ci.lo <= 1.0 <= ci.hi
        assert covered / n_rep == pytest.approx(0.9, abs=0.02)

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="level"):
            welch_ci_from_moments(0.0, 1.0, 5, 0.0, 1.0, 5, level=0.0)
        with pytest.raises(ValueError, match=">= 2"):
            welch_ci_from_moments(0.0, 1.0, 1, 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="variances"):
            welch_ci_from_moments(0.0, -1.0, 5, 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="means"):
            welch_ci_from_moments(float("nan"), 1.0, 5, 0.0, 1.0, 5)
        with pytest.raises(ValueError, match=">= 2"):
            welch_confidence_interval([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            welch_confidence_interval([1.0, np.nan], [1.0, 2.0])
