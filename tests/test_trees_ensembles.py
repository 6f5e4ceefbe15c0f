"""Tests for repro.trees.forest."""

import numpy as np
import pytest

from repro.trees.forest import RandomForestRegressor

# every test here fits an ensemble; PR CI skips them (-m "not slow")
pytestmark = pytest.mark.slow


def smooth_problem(n=600, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, 3))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2 + noise * rng.normal(size=n)
    return x, y


class TestRandomForest:
    def test_improves_over_single_tree_out_of_sample(self):
        # high label noise is where bagging's variance reduction wins
        x, y = smooth_problem(noise=0.8)
        x_te, y_te = smooth_problem(seed=1, noise=0.8)
        from repro.trees.tree import DecisionTreeRegressor

        tree = DecisionTreeRegressor(max_depth=8, random_state=0).fit(x, y)
        forest = RandomForestRegressor(
            n_estimators=30, max_depth=8, max_features=None, random_state=0
        ).fit(x, y)
        mse_tree = float(np.mean((tree.predict(x_te) - y_te) ** 2))
        mse_forest = float(np.mean((forest.predict(x_te) - y_te) ** 2))
        assert mse_forest < mse_tree

    def test_predict_std_shape_and_sign(self):
        x, y = smooth_problem(n=200)
        forest = RandomForestRegressor(n_estimators=10, random_state=0).fit(x, y)
        std = forest.predict_std(x)
        assert std.shape == (200,)
        assert np.all(std >= 0)
        assert std.mean() > 0

    def test_reproducible(self):
        x, y = smooth_problem(n=200)
        a = RandomForestRegressor(n_estimators=5, random_state=7).fit(x, y).predict(x)
        b = RandomForestRegressor(n_estimators=5, random_state=7).fit(x, y).predict(x)
        np.testing.assert_allclose(a, b)

    def test_no_bootstrap_mode(self):
        x, y = smooth_problem(n=150)
        forest = RandomForestRegressor(n_estimators=3, bootstrap=False, random_state=0)
        forest.fit(x, y)
        assert forest.predict(x).shape == (150,)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RandomForestRegressor().predict(np.ones((1, 2)))

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)
