"""The stacked MC-dropout pass against the pass-by-pass loop it replaced.

``DRPModel.predict_roi_mc``, ``DirectRank.predict_roi_mc`` and
``Network.forward_stochastic`` run through
:func:`repro.nn.network.stochastic_passes`.  The references
below are the loops they replaced, kept verbatim: every mean, std and
the generator's next draw must match them bit for bit.
"""

from __future__ import annotations

import copy
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import repro.nn.network as network_module
from repro.core.direct_rank import DirectRank
from repro.core.drp import DRPModel
from repro.core.rdrp import RobustDRP
from repro.data.synthetic import SyntheticRCTConfig, generate_rct
from repro.nn.activations import sigmoid
from repro.nn.layers import Dropout
from repro.nn.network import mlp, stochastic_passes

D = 6


def reference_forward_stochastic(network, x):
    """One dropout-active pass, layer by layer."""
    out = np.asarray(x, dtype=float)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    for layer in network.layers:
        if isinstance(layer, Dropout):
            out = layer.forward(out, training=True)
        else:
            out = layer.forward(out, training=False)
    return out


def reference_predict_roi_mc(model, x, n_samples=30, std_floor=1e-4):
    """Pass ``i`` on restart ``i mod R``, one pass at a time."""
    draws = []
    for i in range(n_samples):
        network = model.networks_[i % len(model.networks_)]
        draws.append(sigmoid(reference_forward_stochastic(network, x)[:, 0]))
    stacked = np.stack(draws, axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0, ddof=1), std_floor)
    return mean, std


def shared_generator(model):
    """The one generator every restart's dropout draws from."""
    (gen,) = {id(layer._rng): layer._rng for net in model.networks_ for layer in net.layers
              if isinstance(layer, Dropout)}.values()
    return gen


def rct(n, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, D))
    config = SyntheticRCTConfig(base_cost_rate=0.4, base_revenue_rate=0.3, noise_scale=0.1)
    return generate_rct(n, x, config, random_state=gen, name="mc-stacked")


@pytest.fixture(scope="module")
def fitted():
    """DRP models with 1, 2 and 3 restarts, keyed by restart count."""
    data = rct(400, 7)
    return {
        r: DRPModel(hidden=16, epochs=2, n_restarts=r, random_state=r).fit(
            data.x, data.t, data.y_r, data.y_c
        )
        for r in (1, 2, 3)
    }


def assert_same_as_reference(model, x, n_samples, copies=copy.deepcopy):
    stacked, reference = copies(model), copies(model)
    mean, std = stacked.predict_roi_mc(x, n_samples=n_samples)
    ref_mean, ref_std = reference_predict_roi_mc(reference, x, n_samples)
    assert np.array_equal(mean, ref_mean)
    assert np.array_equal(std, ref_std)
    assert shared_generator(stacked).random() == shared_generator(reference).random()


class TestPredictRoiMc:
    @pytest.mark.parametrize("restarts", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 5, 32, 33, 600])
    @pytest.mark.parametrize("n_samples", [2, 20, 30])
    def test_matches_the_pass_by_pass_loop(self, fitted, restarts, n, n_samples):
        x = np.random.default_rng(n).normal(size=(n, D))
        assert_same_as_reference(fitted[restarts], x, n_samples)

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_several_groups_and_a_partial_last_group(self, fitted, restarts, monkeypatch):
        n, hidden, n_samples = 33, 16, 30
        monkeypatch.setattr(network_module, "MC_STACK_ELEMENTS", 4 * n * hidden + 1)
        stacked, reference = copy.deepcopy(fitted[restarts]), copy.deepcopy(fitted[restarts])
        gen = shared_generator(stacked)
        shapes = []

        class Recording:
            def random(self, size):
                shapes.append(size)
                return gen.random(size)

        recording = Recording()
        for net in stacked.networks_:
            net.layers[2]._rng = recording
        x = np.random.default_rng(1).normal(size=(n, D))
        mean, std = stacked.predict_roi_mc(x, n_samples=n_samples)
        ref_mean, ref_std = reference_predict_roi_mc(reference, x, n_samples)
        assert shapes == [(4, n, hidden)] * 7 + [(2, n, hidden)]
        assert np.array_equal(mean, ref_mean)
        assert np.array_equal(std, ref_std)
        assert gen.random() == shared_generator(reference).random()

    @pytest.mark.parametrize("restarts", [2, 3])
    def test_after_a_pickle_round_trip(self, fitted, restarts):
        shipped = pickle.loads(pickle.dumps(fitted[restarts]))
        shared_generator(shipped)  # the restarts still share one generator
        x = np.random.default_rng(2).normal(size=(32, D))
        assert_same_as_reference(shipped, x, 30, copies=lambda m: pickle.loads(pickle.dumps(m)))

    def test_consecutive_calls_continue_the_stream(self, fitted):
        stacked, reference = copy.deepcopy(fitted[2]), copy.deepcopy(fitted[2])
        for n in (32, 7, 600):
            x = np.random.default_rng(n).normal(size=(n, D))
            got = stacked.predict_roi_mc(x, n_samples=20)
            want = reference_predict_roi_mc(reference, x, 20)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_memory_is_bounded(self):
        """An unbounded (T, n, h) stack peaks at about twenty times the loop."""
        data = rct(200, 3)
        model = DRPModel(hidden=64, epochs=1, n_restarts=1, random_state=0)
        model.fit(data.x, data.t, data.y_r, data.y_c)
        x = np.random.default_rng(4).normal(size=(20_000, D))
        peaks = []
        for run in (reference_predict_roi_mc, DRPModel.predict_roi_mc):
            tracemalloc.start()
            try:
                run(copy.deepcopy(model), x, 30)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        reference_peak, stacked_peak = peaks
        assert stacked_peak <= 2 * reference_peak


class TestDirectRank:
    """One network with one ``Dropout``: the stacked pass draws the
    stream the pass-by-pass loop drew."""

    @pytest.fixture(scope="class")
    def direct_rank(self):
        data = rct(400, 5)
        return DirectRank(hidden=16, epochs=2, random_state=0).fit(data.x, data.t, data.y_r, data.y_c)

    @pytest.mark.parametrize("pickled", [False, True])
    @pytest.mark.parametrize("n", [1, 33, 600])
    @pytest.mark.parametrize("n_samples", [2, 30])
    def test_matches_the_pass_by_pass_loop(self, direct_rank, pickled, n, n_samples):
        copies = (lambda m: pickle.loads(pickle.dumps(m))) if pickled else copy.deepcopy
        stacked, reference = copies(direct_rank), copies(direct_rank)
        x = np.random.default_rng(n).normal(size=(n, D))
        mean, std = stacked.predict_roi_mc(x, n_samples=n_samples)
        as_drp = SimpleNamespace(networks_=[reference.network_])
        ref_mean, ref_std = reference_predict_roi_mc(as_drp, x, n_samples)
        assert np.array_equal(mean, ref_mean)
        assert np.array_equal(std, ref_std)
        stacked_gen = shared_generator(SimpleNamespace(networks_=[stacked.network_]))
        assert stacked_gen.random() == shared_generator(as_drp).random()


class TestRobustDRP:
    def test_calibrate_and_predict_match_a_reference_twin(self):
        data = rct(1500, 11)
        train, calib, test = (data.subset(np.arange(a, b)) for a, b in
                              ((0, 900), (900, 1300), (1300, 1500)))
        model = RobustDRP(random_state=0, hidden=16, epochs=5, mc_samples=20, n_restarts=2)
        model.fit(train.x, train.t, train.y_r, train.y_c)
        twin = copy.deepcopy(model)
        twin.drp.predict_roi_mc = lambda x, n_samples=30, std_floor=1e-4: reference_predict_roi_mc(
            twin.drp, twin.drp._checked(x), n_samples, std_floor
        )
        for m in (model, twin):
            m.calibrate(calib.x, calib.t, calib.y_r, calib.y_c)
        assert model.q_hat == twin.q_hat
        assert model.selected_form == twin.selected_form
        assert np.array_equal(model.predict_roi(test.x), twin.predict_roi(test.x))
        for got, want in zip(model.predict_interval(test.x), twin.predict_interval(test.x)):
            assert np.array_equal(got, want)


class TestForwardStochastic:
    def test_matches_the_layer_loop_on_two_dropout_layers(self):
        net = mlp(D, [16, 8], dropout=0.3, rng=5)
        stacked, reference = copy.deepcopy(net), copy.deepcopy(net)
        for n in (1, 33, 200):
            x = np.random.default_rng(n).normal(size=(n, D))
            assert np.array_equal(stacked.forward_stochastic(x), reference_forward_stochastic(reference, x))
        assert stacked.layers[2]._rng.random() == reference.layers[2]._rng.random()

    def test_without_dropout_every_pass_is_the_deterministic_forward(self):
        nets = [mlp(D, [16], dropout=0.0, rng=s) for s in (0, 1)]
        x = np.random.default_rng(0).normal(size=(9, D))
        passes = stochastic_passes(nets, x, 5)
        for i in range(5):
            assert np.array_equal(passes[i], nets[i % 2].predict(x))

    def test_restarts_must_share_one_generator(self):
        nets = [mlp(D, [16], dropout=0.2, rng=s) for s in (0, 1)]
        with pytest.raises(ValueError, match="one generator"):
            stochastic_passes(nets, np.zeros((3, D)), 4)
