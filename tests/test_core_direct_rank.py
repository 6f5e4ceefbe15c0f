"""Tests for the Direct Rank (DR) baseline."""

import numpy as np
import pytest

from repro.core.direct_rank import DirectRank, dr_loss
from repro.nn import Adam, mlp
from repro.utils.rng import as_generator


def standalone_fit(model: DirectRank, x, t, y_r, y_c):
    """DR as its own trainer: one network fitted on every row for every
    epoch on the ratio loss, drawing from one generator."""
    rng = as_generator(model.random_state)
    network = mlp(x.shape[1], [model.hidden], output_dim=1, activation="elu", dropout=model.dropout, rng=rng)

    def batch_loss(pred, batch):
        value, grad = dr_loss(pred[:, 0], batch["t"], batch["y_r"], batch["y_c"], kappa=model.kappa)
        return value, grad.reshape(-1, 1)

    network.fit(
        x,
        {"t": t, "y_r": y_r, "y_c": y_c},
        loss=batch_loss,
        optimizer=Adam(model.learning_rate, weight_decay=model.weight_decay),
        epochs=model.epochs,
        batch_size=model.batch_size,
        rng=rng,
    )
    return network


class TestDrLoss:
    def test_finite_at_extremes(self):
        t = np.array([1, 0, 1, 0])
        y_r = np.array([1.0, 0.0, 1.0, 0.0])
        y_c = np.ones(4)
        for s_val in (-1e3, 0.0, 1e3):
            value, grad = dr_loss(np.full(4, s_val), t, y_r, y_c)
            assert np.isfinite(value)
            assert np.all(np.isfinite(grad))

    def test_loss_prefers_selecting_high_roi(self):
        """Soft-selecting the high-ROI individual yields a lower loss."""
        t = np.array([1, 0, 1, 0])
        y_r = np.array([1.0, 0.0, 0.1, 0.0])  # individual 0 drives reward
        y_c = np.array([0.5, 0.0, 0.9, 0.0])  # individual 2 is expensive
        select_good = np.array([5.0, 0.0, -5.0, 0.0])
        select_bad = np.array([-5.0, 0.0, 5.0, 0.0])
        value_good, _ = dr_loss(select_good, t, y_r, y_c)
        value_bad, _ = dr_loss(select_bad, t, y_r, y_c)
        assert value_good < value_bad

    def test_kappa_stabilises_denominator(self):
        t = np.array([1, 0])
        y_r = np.array([1.0, 1.0])
        y_c = np.array([0.0, 0.0])  # zero incremental cost
        value, grad = dr_loss(np.zeros(2), t, y_r, y_c, kappa=0.1)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))


class TestDirectRank:
    def test_fit_predict_shapes(self, easy_rct):
        data = easy_rct
        model = DirectRank(hidden=16, epochs=10, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        pred = model.predict_roi(data.x[:30])
        assert pred.shape == (30,)
        assert np.all((pred > 0) & (pred < 1))

    def test_learns_some_ranking_signal(self, easy_rct):
        data = easy_rct
        model = DirectRank(hidden=32, epochs=50, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        pred = model.predict_roi(data.x)
        # DR is non-convex and imperfect (the paper's point), but it should
        # pick up *some* positive signal on easy data
        assert np.corrcoef(pred, data.roi)[0, 1] > 0.1

    def test_mc_dropout(self, easy_rct):
        data = easy_rct
        model = DirectRank(hidden=16, epochs=5, dropout=0.3, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        mean, std = model.predict_roi_mc(data.x[:20], n_samples=10)
        assert mean.shape == std.shape == (20,)
        assert np.all(std > 0)

    def test_fit_is_the_standalone_ratio_loss_fit(self, easy_rct):
        """DR trains on DRPModel's trainer with only its loss and regime
        swapped in: the weights are a standalone fit's, to the bit."""
        data = easy_rct
        model = DirectRank(hidden=16, epochs=4, batch_size=128, kappa=0.2, random_state=3)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        network = standalone_fit(model, data.x, data.t, data.y_r, data.y_c)
        assert len(model.networks_) == 1
        assert repr([p.tolist() for p in model.network_.parameters()]) == repr(
            [p.tolist() for p in network.parameters()]
        )

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="DirectRank is not fitted"):
            DirectRank().predict_roi(np.ones((1, 3)))

    def test_invalid_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            DirectRank(kappa=0.0)

    def test_single_arm_rejected(self):
        x = np.random.default_rng(0).normal(size=(40, 3))
        with pytest.raises(ValueError, match="treated and control samples are required to fit DirectRank"):
            DirectRank(epochs=2).fit(x, np.zeros(40, dtype=int), np.ones(40), np.ones(40))
