"""Tests for repro.linear (ridge regression)."""

import numpy as np
import pytest

from repro.linear import RidgeRegression


class TestRidge:
    def test_recovers_linear_coefficients(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 3))
        w = np.array([1.5, -2.0, 0.5])
        y = x @ w + 3.0
        model = RidgeRegression(alpha=1e-8).fit(x, y)
        np.testing.assert_allclose(model.coef_, w, atol=1e-6)
        assert model.intercept_ == pytest.approx(3.0, abs=1e-6)

    def test_alpha_shrinks_coefficients(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 3))
        y = x @ np.array([2.0, 0.0, 0.0]) + rng.normal(size=100)
        small = RidgeRegression(alpha=1e-6).fit(x, y)
        large = RidgeRegression(alpha=1e4).fit(x, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

    def test_intercept_not_penalised(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 2))
        y = np.full(200, 10.0) + 0.01 * rng.normal(size=200)
        model = RidgeRegression(alpha=1e6).fit(x, y)
        assert model.intercept_ == pytest.approx(10.0, abs=0.1)

    def test_no_intercept(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = RidgeRegression(alpha=1e-10, fit_intercept=False).fit(x, y)
        assert model.intercept_ == 0.0
        assert model.coef_[0] == pytest.approx(2.0, abs=1e-6)

    def test_sample_weight(self):
        # two populations; weights select the first
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 5.0])
        w = np.array([1.0, 1.0, 1.0, 0.0])  # ignore the y=5 outlier
        model = RidgeRegression(alpha=1e-10).fit(x, y, sample_weight=w)
        pred = model.predict([[1.0]])
        assert pred[0] == pytest.approx(1.0, abs=1e-6)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="sample_weight"):
            RidgeRegression().fit([[1.0]], [1.0], sample_weight=[-1.0])

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RidgeRegression().predict([[1.0]])

    def test_feature_mismatch(self):
        model = RidgeRegression().fit(np.ones((10, 3)), np.ones(10))
        with pytest.raises(ValueError, match="features"):
            model.predict(np.ones((2, 2)))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            RidgeRegression(alpha=-1.0)


class TestRidgePartialFit:
    """Warm-start sufficient statistics: batched == one-shot exactly."""

    def test_batches_match_single_fit(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(300, 4)), rng.normal(size=300)
        cold = RidgeRegression(alpha=0.7).fit(x, y)
        warm = RidgeRegression(alpha=0.7)
        for lo in range(0, 300, 60):
            warm.partial_fit(x[lo:lo + 60], y[lo:lo + 60])
        np.testing.assert_allclose(warm.coef_, cold.coef_, atol=1e-10)
        assert warm.intercept_ == pytest.approx(cold.intercept_, abs=1e-10)

    def test_weighted_batches_match_weighted_fit(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(120, 3)), rng.normal(size=120)
        w = rng.random(120) + 0.1
        cold = RidgeRegression(alpha=0.3).fit(x, y, sample_weight=w)
        warm = RidgeRegression(alpha=0.3)
        warm.partial_fit(x[:50], y[:50], sample_weight=w[:50])
        warm.partial_fit(x[50:], y[50:], sample_weight=w[50:])
        np.testing.assert_allclose(warm.coef_, cold.coef_, atol=1e-10)

    def test_no_intercept_path(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(80, 2)), rng.normal(size=80)
        cold = RidgeRegression(alpha=0.5, fit_intercept=False).fit(x, y)
        warm = RidgeRegression(alpha=0.5, fit_intercept=False)
        warm.partial_fit(x[:40], y[:40]).partial_fit(x[40:], y[40:])
        np.testing.assert_allclose(warm.coef_, cold.coef_, atol=1e-10)
        assert warm.intercept_ == 0.0

    def test_full_fit_resets_accumulation(self):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(100, 3)), rng.normal(size=100)
        model = RidgeRegression(alpha=1.0)
        model.partial_fit(x[:50], y[:50])
        model.fit(x, y)  # discards the accumulated half
        model.partial_fit(x[:50], y[:50])  # fresh accumulation
        alone = RidgeRegression(alpha=1.0).partial_fit(x[:50], y[:50])
        np.testing.assert_allclose(model.coef_, alone.coef_, atol=1e-12)

    def test_feature_mismatch_rejected(self):
        model = RidgeRegression().partial_fit(np.ones((10, 3)), np.ones(10))
        with pytest.raises(ValueError, match="features"):
            model.partial_fit(np.ones((5, 2)), np.ones(5))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="sample_weight"):
            RidgeRegression().partial_fit([[1.0]], [1.0], sample_weight=[-1.0])
