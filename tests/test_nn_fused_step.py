"""The fused training step of :meth:`repro.nn.network.Network.fit`.

``fit`` keeps every parameter in one flat buffer and every gradient in
another, so a step zeroes the gradients with one fill, scales a clipped
gradient with one op and hands the optimizer one array.  The
per-parameter loop it replaced is kept here as the reference
(``reference_fit``, with the optimizers' earlier bodies and the DRP
loss from separate softplus and sigmoid passes): weights, training histories and predictions must
equal it by ``repr`` — for DRP (one and three restarts, with and
without the validation split, an early stop), rDRP, DirectRank, and
plain networks under Adam and under SGD with momentum and weight decay
and a clip norm that triggers, across a second ``fit`` of the same
network and a pickle round trip.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.core.drp as drp_module
from repro.core.direct_rank import DirectRank
from repro.core.drp import DRPModel, drp_loss, drp_loss_gradient
from repro.core.rdrp import RobustDRP
from repro.nn import SGD, Adam, Network, TrainingHistory, mlp
from repro.nn.activations import sigmoid, softplus
from repro.nn.losses import MeanSquaredError
from repro.utils.rng import as_generator


class ReferenceSGD(SGD):
    def step(self, params, grads):
        for p, g in zip(params, grads):
            update = g + self.weight_decay * p
            if self.momentum > 0:
                v = self._velocity.setdefault(id(p), np.zeros_like(p))
                v *= self.momentum
                v += update
                update = v
            p -= self.learning_rate * update


class ReferenceAdam(Adam):
    def step(self, params, grads):
        self._t += 1
        lr_t = self.learning_rate * (
            np.sqrt(1.0 - self.beta2**self._t) / (1.0 - self.beta1**self._t)
        )
        for p, g in zip(params, grads):
            g = g + self.weight_decay * p
            m = self._m.setdefault(id(p), np.zeros_like(p))
            v = self._v.setdefault(id(p), np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr_t * m / (np.sqrt(v) + self.eps)


def reference_drp_batch_loss(pred, batch):
    """Eq. 2 and its gradient from separate group weights, softplus and
    sigmoid passes."""
    s = pred[:, 0]
    t = np.asarray(batch["t"]).ravel()

    def weights():
        n1 = max(int(np.sum(t == 1)), 1)
        n0 = max(int(np.sum(t == 0)), 1)
        return np.where(t == 1, 1.0 / n1, -1.0 / n0)

    y_r = np.asarray(batch["y_r"], dtype=float)
    y_c = np.asarray(batch["y_c"], dtype=float)
    value = float(-np.sum(weights() * (y_r * s - y_c * softplus(s))))
    grad = -weights() * (y_r - y_c * sigmoid(s))
    return value, grad.reshape(-1, 1)


def _reference_slice(target, idx):
    if isinstance(target, dict):
        return {k: np.asarray(v)[idx] for k, v in target.items()}
    return np.asarray(target)[idx]


CLIPS: list[bool] = []  # one entry per reference step with a clip norm: did it clip?


def _reference_clip(network: Network, max_norm: float) -> None:
    grads = network.gradients()
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    CLIPS.append(bool(total > max_norm and total > 0))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale


def reference_fit(
    self,
    x,
    target,
    loss,
    optimizer=None,
    epochs=100,
    batch_size=256,
    shuffle=True,
    rng=None,
    validation_data=None,
    patience=None,
    min_delta=1e-6,
    clip_norm=5.0,
    verbose=False,
):
    """``Network.fit`` as a per-parameter loop (the reference)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    n = x.shape[0]
    gen = as_generator(rng)
    opt = optimizer if optimizer is not None else ReferenceAdam()
    history = TrainingHistory()
    best_loss = np.inf
    best_weights = None
    epochs_without_improvement = 0
    for epoch in range(epochs):
        order = gen.permutation(n) if shuffle else np.arange(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            self.zero_grad()
            pred = self.forward(x[idx], training=True)
            value, grad = loss(pred, _reference_slice(target, idx))
            self.backward(grad)
            if clip_norm is not None:
                _reference_clip(self, clip_norm)
            opt.step(self.parameters(), self.gradients())
            epoch_loss += value
            n_batches += 1
        mean_loss = epoch_loss / max(n_batches, 1)
        history.train_loss.append(mean_loss)
        monitored = mean_loss
        if validation_data is not None:
            val_x, val_target = validation_data
            val_value, _ = loss(self.forward(np.asarray(val_x, dtype=float)), val_target)
            history.val_loss.append(val_value)
            monitored = val_value
        if patience is not None:
            if monitored < best_loss - min_delta:
                best_loss = monitored
                best_weights = self.get_weights()
                history.best_epoch = epoch
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= patience:
                    history.stopped_epoch = epoch
                    break
    if patience is not None and best_weights is not None:
        self.set_weights(best_weights)
    return history


def reference_training(monkeypatch) -> None:
    monkeypatch.setattr(Network, "fit", reference_fit)
    monkeypatch.setattr(drp_module, "_drp_batch_loss", reference_drp_batch_loss)
    monkeypatch.setattr(drp_module, "Adam", ReferenceAdam)


@pytest.fixture(scope="module")
def rct():
    rng = np.random.default_rng(5)
    n, d = 700, 6
    x = rng.normal(size=(n, d))
    t = rng.integers(0, 2, n)
    y_c = (rng.random(n) < 0.3 + 0.2 * t + 0.1 * (x[:, 0] > 0)).astype(float)
    y_r = y_c * (rng.random(n) < 0.5 + 0.1 * t)
    return x, t, y_r, y_c


def _weights(networks) -> str:
    return repr([p.tolist() for net in networks for p in net.parameters()])


def _fingerprint(model, x) -> tuple[str, str, str]:
    return (
        _weights(model.networks_),
        repr([vars(h) for h in model.histories_]),
        repr(model.predict_roi(x[:64]).tolist()),
    )


MODELS = {
    "drp-1-restart": lambda: DRPModel(hidden=16, epochs=8, n_restarts=1, random_state=0),
    "drp-3-restarts": lambda: DRPModel(hidden=16, epochs=6, n_restarts=3, random_state=1),
    "drp-no-validation": lambda: DRPModel(
        hidden=16, epochs=6, n_restarts=2, val_fraction=0.0, random_state=2
    ),
    "drp-early-stop": lambda: DRPModel(
        hidden=32, epochs=200, n_restarts=1, patience=2, learning_rate=5e-2, random_state=3
    ),
    "direct-rank": lambda: DirectRank(hidden=16, epochs=6, random_state=4),
}


class TestModelsTrainAsBefore:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_fit_equals_the_per_parameter_loop(self, rct, name):
        x, t, y_r, y_c = rct
        fused = MODELS[name]().fit(x, t, y_r, y_c)
        with pytest.MonkeyPatch.context() as monkeypatch:
            reference_training(monkeypatch)
            reference = MODELS[name]().fit(x, t, y_r, y_c)
        assert _fingerprint(fused, x) == _fingerprint(reference, x)
        if name == "drp-early-stop":
            assert fused.history_.stopped_epoch is not None

    def test_rdrp_equals_the_per_parameter_loop(self, rct):
        x, t, y_r, y_c = rct

        def fitted():
            model = RobustDRP(hidden=16, epochs=5, n_restarts=2, mc_samples=8, random_state=0)
            model.fit(x[:500], t[:500], y_r[:500], y_c[:500])
            return model.calibrate(x[500:], t[500:], y_r[500:], y_c[500:])

        fused = fitted()
        with pytest.MonkeyPatch.context() as monkeypatch:
            reference_training(monkeypatch)
            reference = fitted()
        assert _weights(fused.drp.networks_) == _weights(reference.drp.networks_)
        assert repr(fused.predict_roi(x[:64]).tolist()) == repr(reference.predict_roi(x[:64]).tolist())


OPTIMIZERS = {
    "adam": (lambda: Adam(1e-2, weight_decay=1e-4), lambda: ReferenceAdam(1e-2, weight_decay=1e-4)),
    "sgd-momentum": (
        lambda: SGD(0.05, momentum=0.9, weight_decay=1e-3),
        lambda: ReferenceSGD(0.05, momentum=0.9, weight_decay=1e-3),
    ),
}


def _train(rct, make_opt, fit) -> tuple[str, list]:
    """Three fits of one network (the last two share an optimizer), then
    one fit of its pickled copy; returns everything they produced."""
    x, _t, y_r, y_c = rct
    loss = MeanSquaredError()
    net = mlp(x.shape[1], [16, 8], 1, dropout=0.1, rng=7)
    h1 = fit(net, x, y_r.reshape(-1, 1), loss, optimizer=make_opt(), epochs=4, rng=8, clip_norm=0.05)
    opt = make_opt()
    h2 = fit(net, x, y_c.reshape(-1, 1), loss, optimizer=opt, epochs=3, rng=9, clip_norm=0.05)
    h3 = fit(net, x, y_c.reshape(-1, 1), loss, optimizer=opt, epochs=2, rng=10, clip_norm=None)
    copy = pickle.loads(pickle.dumps(net))
    assert repr(copy.predict(x).tolist()) == repr(net.predict(x).tolist())
    h4 = fit(copy, x, y_r.reshape(-1, 1), loss, optimizer=make_opt(), epochs=2, rng=11)
    histories = [vars(h) for h in (h1, h2, h3, h4)]
    return repr((_weights([net]), _weights([copy]), histories, net.predict(x[:64]).tolist())), histories


class TestNetworkFitAsBefore:
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_fits_equal_the_per_parameter_loop(self, rct, name):
        make_fused, make_reference = OPTIMIZERS[name]
        fused, _ = _train(rct, make_fused, Network.fit)
        CLIPS.clear()
        reference, _ = _train(rct, make_reference, reference_fit)
        assert fused == reference
        assert any(CLIPS) and not all(CLIPS)  # the clip norm triggered, not always

    def test_optimizer_sees_one_flat_parameter(self, rct):
        x, _t, y_r, _y_c = rct
        seen = []

        class Recording(Adam):
            def step(self, params, grads):
                seen.append((len(params), params[0].shape, params[0].base is None))
                super().step(params, grads)

        net = mlp(x.shape[1], [16], 1, rng=1)
        net.fit(x, y_r.reshape(-1, 1), MeanSquaredError(), optimizer=Recording(), epochs=1)
        assert set(seen) == {(1, (net.num_parameters(),), True)}
        flat = net.parameters()[0].base
        assert all(p.base is flat for p in net.parameters())


class TestDrpBatchLoss:
    def test_equals_softplus_and_sigmoid_passes(self):
        rng = np.random.default_rng(0)
        s = np.concatenate([rng.normal(0, 3, 200), [0.0, -0.0, 40.0, -40.0, 800.0, -800.0]])
        t = rng.integers(0, 2, s.shape[0])
        y_r = rng.random(s.shape[0]) * (rng.random(s.shape[0]) < 0.5)
        y_c = rng.random(s.shape[0])
        batch = {"t": t, "y_r": y_r, "y_c": y_c}
        value, grad = drp_module._drp_batch_loss(s.reshape(-1, 1), batch)
        expect_value, expect_grad = reference_drp_batch_loss(s.reshape(-1, 1), batch)
        assert repr(value) == repr(expect_value)
        assert repr(grad.tolist()) == repr(expect_grad.tolist())
        assert repr(drp_loss(s, t, y_r, y_c)) == repr(expect_value)
        assert repr(drp_loss_gradient(s, t, y_r, y_c).tolist()) == repr(expect_grad.ravel().tolist())
