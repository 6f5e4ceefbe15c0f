"""Every public model must pickle round-trip with bit-identical predictions.

This is the load-bearing contract of sharded serving: a
:class:`~repro.serving.sharding.ShardedScoringEngine` ships fitted
models to worker processes inside a pickled registry, and a replica
that predicts even one ULP differently from its parent silently breaks
the single-engine-equivalence guarantee (same request stream, same
scores, any backend).  So: fit each public model class on small synthetic RCT
data, ``pickle.dumps``/``loads`` it, and pin ``predict == predict``
exactly — ``np.array_equal``, not ``allclose``.

The model list itself (build/train/predict recipes) lives in
``tests/_model_zoo.py``, shared with the
:class:`~repro.causal.base.TrainableModel` protocol pins in
``test_public_api.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from _model_zoo import CASES, X_EVAL


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_pickle_roundtrip_bit_identical(case):
    # pickle *first*, predict on both after — the shipping scenario.
    # (Predicting before the pickle would advance stateful prediction
    # RNGs — RobustDRP's MC dropout — and desync parent and replica.)
    model = case.train(case.build())
    clone = pickle.loads(pickle.dumps(model))
    parent = np.asarray(case.predict(model, X_EVAL), dtype=float)
    replica = np.asarray(case.predict(clone, X_EVAL), dtype=float)
    assert parent.shape == replica.shape
    assert np.array_equal(parent, replica), f"{case.name} drifted through pickle"
    # the clone must be a genuine copy, not a reference back
    assert clone is not model


@pytest.mark.parametrize("case", CASES[:4], ids=[c.name for c in CASES[:4]])
def test_double_roundtrip_stable(case):
    """pickle(pickle(m)) predicts like pickle(m): no per-hop drift."""
    model = case.train(case.build())
    once = pickle.loads(pickle.dumps(model))
    twice = pickle.loads(pickle.dumps(once))
    assert np.array_equal(
        np.asarray(case.predict(once, X_EVAL)),
        np.asarray(case.predict(twice, X_EVAL)),
    )


class LinearROI:
    """Module-level (hence picklable) deterministic scorer stub."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.w


def test_engine_core_roundtrip_bit_identical():
    """The actual shipping unit: the fleet pickles an engine's core (its
    registry, policy and batch geometry) once, and the shard engine
    built from that blob scores like an engine on the parent's
    registry."""
    from repro.serving import ModelRegistry, ScoringEngine, ShardedScoringEngine
    from repro.serving.policy import GreedyROIPolicy
    from repro.serving.sharding import _SHARD_ENGINES

    registry = ModelRegistry(traffic_split=0.2, random_state=3)
    registry.register(LinearROI([1.0, -0.5, 0.25, 2.0, 0.1]), promote=True)
    registry.register(LinearROI([0.5, 0.5, 0.5, 0.5, 0.5]))
    with ShardedScoringEngine(registry, n_shards=1, policy=GreedyROIPolicy(), batch_size=16) as fleet:
        rebuilt = _SHARD_ENGINES[(fleet._fleet_id, 0)]
        engine = ScoringEngine(registry, policy=GreedyROIPolicy(), batch_size=16)
        for i, row in enumerate(X_EVAL[:32, :5]):
            assert engine.score(row, key=i) == rebuilt.score(row, key=i)
        assert rebuilt.registry is not engine.registry
