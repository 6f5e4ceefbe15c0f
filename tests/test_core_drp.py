"""Tests for the DRP model and its Eq. 2 loss."""

import copy

import numpy as np
import pytest

from repro.core.drp import (
    DRPModel,
    drp_loss,
    drp_loss_gradient,
    drp_pooled_derivative,
)
from repro.nn.activations import sigmoid


class TestDrpLoss:
    def test_stable_at_extreme_scores(self):
        t = np.array([1, 0, 1, 0])
        y_r = np.array([1.0, 0.0, 1.0, 0.0])
        y_c = np.array([1.0, 1.0, 1.0, 1.0])
        for s_value in (-1e4, 1e4):
            value = drp_loss(np.full(4, s_value), t, y_r, y_c)
            assert np.isfinite(value)
            grad = drp_loss_gradient(np.full(4, s_value), t, y_r, y_c)
            assert np.all(np.isfinite(grad))

    def test_pooled_minimum_at_roi(self):
        """The pooled loss over a shared s is minimised at sigma(s) = tau_r/tau_c."""
        rng = np.random.default_rng(0)
        n = 20000
        t = rng.integers(0, 2, size=n)
        # tau_r = 0.3*0.5, tau_c = 0.5 -> roi = 0.3
        y_c = 0.2 + 0.5 * t + 0.05 * rng.normal(size=n)
        y_r = 0.1 + 0.15 * t + 0.05 * rng.normal(size=n)
        roi_grid = np.linspace(0.05, 0.95, 91)
        losses = [
            drp_loss(np.full(n, np.log(r / (1 - r))), t, y_r, y_c) for r in roi_grid
        ]
        best = roi_grid[int(np.argmin(losses))]
        assert best == pytest.approx(0.3, abs=0.03)

    def test_pooled_derivative_sign_change(self):
        rng = np.random.default_rng(1)
        n = 5000
        t = rng.integers(0, 2, size=n)
        y_c = 0.2 + 0.4 * t + 0.05 * rng.normal(size=n)
        y_r = 0.1 + 0.2 * t + 0.05 * rng.normal(size=n)  # roi = 0.5
        low = drp_pooled_derivative(0.1, t, y_r, y_c)
        high = drp_pooled_derivative(0.9, t, y_r, y_c)
        assert low < 0 < high

    def test_pooled_derivative_monotone(self):
        rng = np.random.default_rng(2)
        n = 2000
        t = rng.integers(0, 2, size=n)
        y_c = 0.1 + 0.5 * t + 0.05 * rng.normal(size=n)
        y_r = 0.05 + 0.25 * t + 0.05 * rng.normal(size=n)
        grid = np.linspace(0.01, 0.99, 50)
        values = [drp_pooled_derivative(r, t, y_r, y_c) for r in grid]
        assert np.all(np.diff(values) > 0)

    def test_single_arm_derivative_rejected(self):
        with pytest.raises(ValueError, match="treated and control"):
            drp_pooled_derivative(0.5, np.ones(10), np.ones(10), np.ones(10))


class TestDRPModel:
    def test_fit_predict_shapes(self, easy_rct):
        data = easy_rct
        model = DRPModel(hidden=16, epochs=10, n_restarts=1, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        roi = model.predict_roi(data.x[:50])
        assert roi.shape == (50,)
        assert np.all((roi > 0) & (roi < 1))

    def test_learns_roi_ranking(self, easy_rct):
        data = easy_rct
        model = DRPModel(hidden=32, epochs=60, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        pred = model.predict_roi(data.x)
        assert np.corrcoef(pred, data.roi)[0, 1] > 0.4

    def test_mc_dropout_outputs(self, easy_rct):
        data = easy_rct
        model = DRPModel(hidden=16, epochs=10, dropout=0.3, n_restarts=1, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        mean, std = model.predict_roi_mc(data.x[:40], n_samples=15)
        assert mean.shape == std.shape == (40,)
        assert np.all(std > 0)
        assert np.all((mean > 0) & (mean < 1))

    def test_score_and_roi_consistent(self, easy_rct):
        data = easy_rct
        model = DRPModel(hidden=16, epochs=5, n_restarts=2, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        s = model.predict_score(data.x[:10])
        np.testing.assert_allclose(model.predict_roi(data.x[:10]), sigmoid(s))

    def test_restart_ensemble_trains_all(self, easy_rct):
        data = easy_rct
        model = DRPModel(hidden=16, epochs=5, n_restarts=3, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        assert len(model.networks_) == 3
        assert len(model.histories_) == 3

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="DRPModel is not fitted"):
            DRPModel().predict_roi(np.ones((1, 4)))

    def test_single_arm_rejected(self):
        x = np.random.default_rng(0).normal(size=(60, 3))
        with pytest.raises(ValueError, match="treated and control samples are required to fit DRPModel"):
            DRPModel(epochs=2).fit(x, np.ones(60, dtype=int), np.ones(60), np.ones(60))

    def test_feature_mismatch(self, tiny_rct):
        data = tiny_rct
        model = DRPModel(hidden=16, epochs=3, n_restarts=1, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        with pytest.raises(ValueError, match="features"):
            model.predict_roi(np.ones((2, 9)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            DRPModel(hidden=2)
        with pytest.raises(ValueError):
            DRPModel(dropout=1.0)
        with pytest.raises(ValueError):
            DRPModel(val_fraction=0.7)
        with pytest.raises(ValueError):
            DRPModel(n_restarts=0)

    def test_mc_samples_validation(self, tiny_rct):
        data = tiny_rct
        model = DRPModel(hidden=16, epochs=2, n_restarts=1, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        with pytest.raises(ValueError, match="n_samples"):
            model.predict_roi_mc(data.x[:5], n_samples=1)

    @pytest.mark.parametrize("floor", [np.nan, np.inf, 0.0, -1.0])
    def test_std_floor_must_be_finite_and_positive(self, tiny_rct, floor):
        # a NaN floor used to make every r(x) NaN, and floors <= 0 passed
        # through to fail far away in the conformal score
        data = tiny_rct
        model = DRPModel(hidden=16, epochs=2, n_restarts=1, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        gen = model.network_.layers[2]._rng
        untouched = copy.deepcopy(gen)
        with pytest.raises(ValueError, match="std_floor"):
            model.predict_roi_mc(data.x[:5], std_floor=floor)
        assert gen.random() == untouched.random()  # a rejected call draws nothing

    def test_reproducible(self, tiny_rct):
        data = tiny_rct
        a = DRPModel(hidden=16, epochs=5, n_restarts=1, random_state=3)
        a.fit(data.x, data.t, data.y_r, data.y_c)
        b = DRPModel(hidden=16, epochs=5, n_restarts=1, random_state=3)
        b.fit(data.x, data.t, data.y_r, data.y_c)
        np.testing.assert_allclose(a.predict_roi(data.x), b.predict_roi(data.x))
