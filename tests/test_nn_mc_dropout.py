"""Tests for repro.nn.mc_dropout: the moments of a stacked MC pass."""

from functools import partial

import numpy as np
import pytest

from repro.nn.activations import sigmoid
from repro.nn.mc_dropout import mc_dropout_moments
from repro.nn.network import mlp, stochastic_passes


@pytest.fixture
def dropout_net():
    return mlp(3, [32], dropout=0.3, rng=0)


def moments(net, x, n_samples=30, transform=None, std_floor=1e-6):
    """``mc_dropout_moments`` over ``stochastic_passes``, as the models call it."""

    def sample():
        passes = stochastic_passes([net], x, n_samples)
        return passes if transform is None else transform(passes)

    return mc_dropout_moments(sample, n_samples, std_floor)


class TestMcDropoutStatistics:
    def test_shapes(self, dropout_net):
        x = np.random.default_rng(0).normal(size=(7, 3))
        mean, std = moments(dropout_net, x, n_samples=10)
        assert mean.shape == (7,)
        assert std.shape == (7,)

    def test_std_positive_with_dropout(self, dropout_net):
        x = np.random.default_rng(0).normal(size=(5, 3))
        _, std = moments(dropout_net, x, n_samples=20)
        assert np.all(std > 0)
        assert np.any(std > 1e-5)  # genuinely varying, not just the floor

    def test_std_floor_without_dropout(self):
        net = mlp(3, [8], dropout=0.0, rng=0)
        _, std = moments(net, np.ones((4, 3)), n_samples=10, std_floor=1e-6)
        np.testing.assert_allclose(std, 1e-6)

    def test_mean_close_to_deterministic(self, dropout_net):
        x = np.random.default_rng(1).normal(size=(6, 3))
        mean, _ = moments(dropout_net, x, n_samples=400)
        deterministic = dropout_net.predict(x)[:, 0]
        # inverted dropout preserves expectation
        np.testing.assert_allclose(mean, deterministic, atol=0.3)

    def test_transform_applied_per_pass(self, dropout_net):
        x = np.random.default_rng(2).normal(size=(5, 3))
        mean, _ = moments(dropout_net, x, n_samples=10, transform=sigmoid)
        assert np.all((mean > 0) & (mean < 1))

    def test_n_samples_validation(self, dropout_net):
        with pytest.raises(ValueError, match="n_samples"):
            moments(dropout_net, np.ones((2, 3)), n_samples=1)

    def test_std_floor_validation(self, dropout_net):
        with pytest.raises(ValueError, match="std_floor"):
            moments(dropout_net, np.ones((2, 3)), std_floor=0.0)

    @pytest.mark.parametrize("floor", [-1.0, np.nan, np.inf])
    def test_std_floor_must_be_finite_and_positive(self, floor):
        # a NaN floor used to pass the check and make every std NaN
        draws = []
        with pytest.raises(ValueError, match="std_floor"):
            mc_dropout_moments(lambda: draws.append(1), 10, floor)
        assert draws == []  # a rejected call draws nothing

    def test_multi_output_shapes(self):
        net = mlp(3, [8], output_dim=2, dropout=0.2, rng=0)
        mean, std = moments(net, np.ones((4, 3)), n_samples=5)
        assert mean.shape == (4, 2)
        assert std.shape == (4, 2)


class TestMCDropoutPredictor:
    """A predictor built once from a network, a transform and ``T``, then called on rows."""

    def test_callable(self, dropout_net):
        predictor = partial(moments, dropout_net, transform=sigmoid, n_samples=10)
        mean, std = predictor(np.ones((3, 3)))
        assert mean.shape == std.shape == (3,)
        assert np.all((mean > 0) & (mean < 1))
        assert np.all(std > 0)
