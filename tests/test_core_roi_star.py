"""Tests for Algorithm 2 (binary search for roi*)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.drp import _pooled_uplift
from repro.core.roi_star import RoiStarEstimator, binary_search_roi_star


def rct_with_roi(roi_value, n=20000, seed=0, tau_c=0.5):
    """Construct outcomes whose pooled difference-in-means ROI is exact."""
    rng = np.random.default_rng(seed)
    t = np.array([1, 0] * (n // 2))
    y_c = 0.2 + tau_c * t + 0.01 * rng.normal(size=n)
    y_r = 0.1 + roi_value * tau_c * t + 0.01 * rng.normal(size=n)
    return t, y_r, y_c


class TestBinarySearch:
    @pytest.mark.parametrize("target", [0.2, 0.5, 0.8])
    def test_finds_known_roi(self, target):
        t, y_r, y_c = rct_with_roi(target)
        found = binary_search_roi_star(t, y_r, y_c, eps=1e-4)
        assert found == pytest.approx(target, abs=0.02)

    def test_clipping_when_roi_outside_unit(self):
        # tau_r > tau_c  ->  unclipped root would exceed 1
        rng = np.random.default_rng(1)
        n = 2000
        t = np.array([1, 0] * (n // 2))
        y_c = 0.1 + 0.2 * t + 0.01 * rng.normal(size=n)
        y_r = 0.1 + 0.5 * t + 0.01 * rng.normal(size=n)
        found = binary_search_roi_star(t, y_r, y_c, clip=1e-3)
        assert found <= 1.0 - 1e-3 + 1e-12

    def test_eps_validation(self):
        t, y_r, y_c = rct_with_roi(0.5, n=100)
        with pytest.raises(ValueError, match="eps"):
            binary_search_roi_star(t, y_r, y_c, eps=0.0)

    @given(st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=15, deadline=None)
    def test_recovers_any_roi_in_range(self, target):
        t, y_r, y_c = rct_with_roi(target, n=4000, seed=7)
        found = binary_search_roi_star(t, y_r, y_c, eps=1e-4)
        assert found == pytest.approx(target, abs=0.05)

    def test_terminates_quickly(self):
        """Bisection on (0,1) with eps=1e-3 needs ~10 iterations."""
        t, y_r, y_c = rct_with_roi(0.37, n=1000)
        found = binary_search_roi_star(t, y_r, y_c, eps=1e-3)
        assert found == pytest.approx(0.37, abs=0.05)


def uplift_by_mean(t, y_r, y_c):
    """The pooled difference-in-means uplifts, each arm's mean taken
    with ``ndarray.mean``, as Algorithm 2 was first written."""
    treated = np.asarray(t).ravel() == 1
    tau_r = float(y_r[treated].mean() - y_r[~treated].mean())
    tau_c = float(y_c[treated].mean() - y_c[~treated].mean())
    return tau_r, tau_c


def bisection_per_step(t, y_r, y_c, eps=1e-3, clip=1e-3):
    """Algorithm 2 as first written: every step re-evaluates the pooled
    derivative ``-tau_r + tau_c * roi`` on the sample."""

    def derivative(roi):
        tau_r, tau_c = uplift_by_mean(t, y_r, y_c)
        return -tau_r + tau_c * float(roi)

    lo, hi = 0.0, 1.0
    mid = 0.5 * (lo + hi)
    value = derivative(mid)
    while abs(hi - lo) > eps:
        if abs(value) < eps:
            break
        if value > 0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
        value = derivative(mid)
    return float(np.clip(mid, clip, 1.0 - clip))


class TestOnePassMatchesPerStepBisection:
    """``binary_search_roi_star`` computes the two pooled means once;
    it must return the very float the per-step bisection returns."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=3000),
        p_treat=st.floats(min_value=0.05, max_value=0.95),
        outcome=st.sampled_from(["bernoulli", "continuous", "constant_cost"]),
        eps=st.sampled_from([1e-6, 1e-4, 1e-3, 0.05, 0.4]),
        clip=st.sampled_from([0.0, 1e-3, 0.1, 0.3, 0.5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_float_on_random_samples(self, seed, n, p_treat, outcome, eps, clip):
        gen = np.random.default_rng(seed)
        t = (gen.random(n) < p_treat).astype(int)
        t[:2] = (1, 0)  # both arms present
        if outcome == "bernoulli":
            y_r = (gen.random(n) < 0.1 + 0.3 * t * gen.random()).astype(float)
            y_c = (gen.random(n) < 0.2 + 0.6 * t * gen.random()).astype(float)
        elif outcome == "continuous":
            y_r = gen.normal(0.1 + gen.normal() * t, 1.0)
            y_c = gen.normal(0.2 + gen.normal() * t, 1.0)
        else:  # tau_c == 0: a flat derivative, the sign of tau_r decides
            y_r = gen.normal(0.1 * t, 0.5)
            y_c = np.full(n, 0.3)
        expect = bisection_per_step(t, y_r, y_c, eps=eps, clip=clip)
        assert repr(binary_search_roi_star(t, y_r, y_c, eps=eps, clip=clip)) == repr(expect)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=5000),
        p_treat=st.floats(min_value=0.01, max_value=0.99),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    @settings(max_examples=150, deadline=None)
    def test_pooled_uplift_is_the_mean_difference(self, seed, n, p_treat, scale):
        """``_pooled_uplift`` sums and divides itself; its floats must
        be the ``ndarray.mean`` differences bit for bit."""
        gen = np.random.default_rng(seed)
        t = (gen.random(n) < p_treat).astype(float)
        t[:2] = (1.0, 0.0)
        y_r, y_c = gen.normal(0.0, scale, n), gen.exponential(scale, n)
        assert repr(_pooled_uplift(t, y_r, y_c)) == repr(uplift_by_mean(t, y_r, y_c))

    @pytest.mark.parametrize("target", [-0.5, 0.0, 1e-4, 0.999, 1.0, 1.7])
    @pytest.mark.parametrize("clip", [0.0, 1e-3])
    def test_clip_edges(self, target, clip):
        """Roots on and beyond both ends of (0, 1) land on the clip
        edges exactly as the per-step search clips them."""
        t, y_r, y_c = rct_with_roi(target, n=4000, seed=2)
        found = binary_search_roi_star(t, y_r, y_c, clip=clip)
        assert repr(found) == repr(bisection_per_step(t, y_r, y_c, clip=clip))
        assert clip <= found <= 1.0 - clip

    def test_one_armed_sample_still_raises(self):
        with pytest.raises(ValueError, match="Both treated and control"):
            binary_search_roi_star(np.ones(10), np.ones(10), np.ones(10))


class TestRoiStarEstimator:
    def test_global_mode_constant(self):
        t, y_r, y_c = rct_with_roi(0.4, n=2000)
        roi_hat = np.random.default_rng(0).random(2000)
        estimator = RoiStarEstimator(mode="global")
        stars = estimator.estimate(roi_hat, t, y_r, y_c)
        assert np.unique(stars).shape[0] == 1
        assert stars[0] == pytest.approx(0.4, abs=0.05)

    def test_binned_mode_tracks_heterogeneity(self):
        """Bins sorted by a perfect roi_hat should recover the local ROI."""
        rng = np.random.default_rng(3)
        n = 20000
        t = np.array([1, 0] * (n // 2))
        true_roi = np.linspace(0.2, 0.8, n)
        tau_c = 0.5
        y_c = 0.2 + tau_c * t + 0.01 * rng.normal(size=n)
        y_r = 0.1 + true_roi * tau_c * t + 0.01 * rng.normal(size=n)
        estimator = RoiStarEstimator(mode="binned", n_bins=10)
        stars = estimator.estimate(true_roi, t, y_r, y_c)
        # low-roi_hat samples should get low roi*, high get high
        low = stars[true_roi < 0.3].mean()
        high = stars[true_roi > 0.7].mean()
        assert high - low > 0.2

    def test_binned_falls_back_when_too_small(self):
        t, y_r, y_c = rct_with_roi(0.5, n=60)
        roi_hat = np.random.default_rng(0).random(60)
        estimator = RoiStarEstimator(mode="binned", n_bins=20, min_arm_per_bin=10)
        stars = estimator.estimate(roi_hat, t, y_r, y_c)
        assert np.unique(stars).shape[0] == 1  # global fallback everywhere

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            RoiStarEstimator(mode="magic")

    def test_invalid_bins(self):
        with pytest.raises(ValueError, match="n_bins"):
            RoiStarEstimator(n_bins=0)

    def test_output_in_unit_interval(self):
        t, y_r, y_c = rct_with_roi(0.5, n=1000)
        roi_hat = np.random.default_rng(0).random(1000)
        stars = RoiStarEstimator().estimate(roi_hat, t, y_r, y_c)
        assert np.all((stars > 0) & (stars < 1))
