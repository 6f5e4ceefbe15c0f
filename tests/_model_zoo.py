"""Shared model zoo: every public model with build/train/predict recipes.

Single source of truth for cross-cutting contract tests
(``test_pickling.py``'s serialization pins, ``test_public_api.py``'s
:class:`~repro.causal.base.TrainableModel` protocol pins): each entry
knows how to *build* an unfitted instance, *train* any instance of its
class on the shared synthetic RCT, and *predict* with its natural
entry point — so a test can exercise fit → clone_unfit → refit →
pickle without model-specific knowledge.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.causal.forest_uplift import CausalForestUplift
from repro.causal.meta import SLearner, TLearner, XLearner
from repro.causal.neural import DragonNet, OffsetNet, SNet, TARNet
from repro.core.direct_rank import DirectRank
from repro.core.drp import DRPModel
from repro.core.rdrp import RobustDRP
from repro.linear import RidgeRegression
from repro.trees import CausalForest, CausalTree, DecisionTreeRegressor, RandomForestRegressor


def _rct(n: int = 220, d: int = 5, seed: int = 11):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    t = (rng.random(n) < 0.5).astype(int)
    tau_r = 0.8 * x[:, 0] + 0.3
    y_r = 0.5 * x[:, 1] + t * tau_r + 0.1 * rng.normal(size=n)
    y_c = np.abs(0.4 * x[:, 2] + t * 0.5 + 0.1 * rng.normal(size=n)) + 0.05
    y = y_r - y_c
    return x, t, y, y_r, y_c


X, T, Y, Y_R, Y_C = _rct()
X_EVAL = np.random.default_rng(99).normal(size=(64, X.shape[1]))


class Case(NamedTuple):
    """One zoo member: ``train(build())`` yields a fitted model."""

    name: str
    build: Callable[[], object]
    train: Callable[[object], object]
    predict: Callable[[object, np.ndarray], np.ndarray]


CASES = [
    Case(
        "ridge",
        lambda: RidgeRegression(alpha=0.5),
        lambda m: m.fit(X, Y),
        lambda m, x: m.predict(x),
    ),
    Case(
        "tree",
        lambda: DecisionTreeRegressor(max_depth=4),
        lambda m: m.fit(X, Y),
        lambda m, x: m.predict(x),
    ),
    Case(
        "forest",
        lambda: RandomForestRegressor(n_estimators=8, max_depth=4, random_state=0),
        lambda m: m.fit(X, Y),
        lambda m, x: m.predict(x),
    ),
    Case(
        "causal_tree",
        lambda: CausalTree(max_depth=4),
        lambda m: m.fit(X, Y, T),
        lambda m, x: m.predict(x),
    ),
    Case(
        "causal_forest",
        lambda: CausalForest(n_estimators=6, max_depth=3, random_state=0),
        lambda m: m.fit(X, Y, T),
        lambda m, x: m.predict(x),
    ),
    Case(
        "causal_forest_uplift",
        lambda: CausalForestUplift(n_estimators=6, max_depth=3, random_state=0),
        lambda m: m.fit(X, Y, T),
        lambda m, x: m.predict_uplift(x),
    ),
    Case(
        "s_learner",
        lambda: SLearner(random_state=0),
        lambda m: m.fit(X, Y, T),
        lambda m, x: m.predict_uplift(x),
    ),
    Case(
        "t_learner",
        lambda: TLearner(random_state=0),
        lambda m: m.fit(X, Y, T),
        lambda m, x: m.predict_uplift(x),
    ),
    Case(
        "x_learner",
        lambda: XLearner(random_state=0),
        lambda m: m.fit(X, Y, T),
        lambda m, x: m.predict_uplift(x),
    ),
    Case(
        "tarnet",
        lambda: TARNet(hidden=8, epochs=3, random_state=0),
        lambda m: m.fit(X, Y, T),
        lambda m, x: m.predict_uplift(x),
    ),
    Case(
        "dragonnet",
        lambda: DragonNet(hidden=8, epochs=3, random_state=0),
        lambda m: m.fit(X, Y, T),
        lambda m, x: m.predict_uplift(x),
    ),
    Case(
        "offsetnet",
        lambda: OffsetNet(hidden=8, epochs=3, random_state=0),
        lambda m: m.fit(X, Y, T),
        lambda m, x: m.predict_uplift(x),
    ),
    Case(
        "snet",
        lambda: SNet(hidden=8, epochs=3, random_state=0),
        lambda m: m.fit(X, Y, T),
        lambda m, x: m.predict_uplift(x),
    ),
    Case(
        "drp",
        lambda: DRPModel(
            hidden=10, epochs=3, n_restarts=1, patience=None, random_state=0
        ),
        lambda m: m.fit(X, T, Y_R, Y_C),
        lambda m, x: m.predict_roi(x),
    ),
    Case(
        "robust_drp",
        lambda: RobustDRP(
            mc_samples=4, hidden=10, epochs=3, n_restarts=1, patience=None,
            random_state=0,
        ),
        lambda m: m.fit(X, T, Y_R, Y_C).calibrate(X, T, Y_R, Y_C),
        lambda m, x: m.predict_roi(x),
    ),
    Case(
        "direct_rank",
        lambda: DirectRank(hidden=10, epochs=3, random_state=0),
        lambda m: m.fit(X, T, Y_R, Y_C),
        lambda m, x: m.predict_roi(x),
    ),
]
