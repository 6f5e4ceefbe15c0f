"""Streaming retraining: the Retrainer lifecycle and the closed-loop E2E pin.

The E2E test at the bottom is the PR's acceptance criterion: under
injected concept drift a retraining campaign — outcomes drained into a
rolling window, refits auto-staged as challengers, the ordinary
AutoPromoter gate ramping and promoting them — must strictly beat a
frozen champion on CRN-paired cumulative incremental revenue, with at
least one auto-staged challenger promoted and zero manual
``registry.register`` calls after day one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.causal.base import TrainableModel
from repro.linear import RidgeRegression
from repro.runtime import ManualClock
from repro.serving import ModelRegistry, Retrainer
from repro.serving.retraining import RetrainEvent

DAY_S = 86_400.0


class TreatedNetRidge(TrainableModel):
    """Minimal serving-ready TrainableModel: ridge on treated rows' net.

    Module-level so the registry snapshot path can pickle it.
    """

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha
        self._ridge = None

    def fit(self, x, y, t):
        t = np.asarray(t)
        mask = t == 1
        if mask.sum() < 2:
            raise ValueError("need >= 2 treated rows to fit")
        self._ridge = RidgeRegression(alpha=self.alpha).fit(
            np.asarray(x)[mask], np.asarray(y)[mask]
        )
        return self

    def predict_roi(self, x):
        return self._ridge.predict(x)


def _registry_with_champion(seed: int = 0, d: int = 4) -> ModelRegistry:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(80, d))
    t = rng.integers(0, 2, 80)
    y = x[:, 0] + 0.1 * rng.normal(size=80)
    registry = ModelRegistry(random_state=seed)
    registry.register(TreatedNetRidge().fit(x, y, t), name="champ", promote=True)
    return registry


def _feed(retrainer: Retrainer, n: int, seed: int = 0, shift: float = 0.0) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = rng.normal(size=4) + shift
        treated = bool(rng.random() < 0.5)
        retrainer.observe(x, treated, float(x[0] + rng.normal() * 0.1), 0.1)


class TestRetrainerConstruction:
    def test_requires_a_trigger(self):
        with pytest.raises(ValueError, match="no trigger"):
            Retrainer(_registry_with_champion())

    def test_rejects_non_trainable_template(self):
        with pytest.raises(TypeError, match="TrainableModel"):
            Retrainer(
                _registry_with_champion(),
                template=object(),
                every_outcomes=10,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 1},
            {"min_outcomes": 1},
            {"min_outcomes": 600, "window": 500},
            {"every_n_days": 0.0},
            {"every_outcomes": 0},
            {"drift_threshold": 0.0},
        ],
    )
    def test_parameter_validation(self, kwargs):
        base = {"every_outcomes": 10}
        base.update(kwargs)
        with pytest.raises(ValueError):
            Retrainer(_registry_with_champion(), **base)

    def test_champion_fallback_requires_trainable(self):
        registry = ModelRegistry(random_state=0)

        class Opaque:
            def predict_roi(self, x):
                return np.zeros(np.atleast_2d(x).shape[0])

        registry.register(Opaque(), promote=True)
        retrainer = Retrainer(registry, every_outcomes=10, min_outcomes=4, window=16)
        with pytest.raises(TypeError, match="template"):
            _feed(retrainer, 16)


class TestRetrainerTriggers:
    def test_window_rolls_and_counts(self):
        retrainer = Retrainer(
            _registry_with_champion(),
            every_outcomes=10_000,
            window=32,
            min_outcomes=8,
        )
        _feed(retrainer, 50)
        assert retrainer.n_buffered == 32  # oldest dropped out
        assert retrainer.n_observed == 50

    @pytest.mark.parametrize(
        "x0, y_r, y_c",
        [
            (0.0, float("nan"), 0.1),
            (0.0, 1.0, float("-inf")),
            (float("nan"), 1.0, 0.1),
            (float("inf"), 1.0, 0.1),
        ],
    )
    def test_non_finite_input_is_refused_before_buffering(self, x0, y_r, y_c):
        """A NaN or inf outcome or feature used to be buffered: every refit
        over the window then raised, and a bad feature among the first
        ``min_outcomes`` froze a NaN drift reference."""
        retrainer = Retrainer(
            _registry_with_champion(),
            every_outcomes=40,
            window=64,
            min_outcomes=16,
            drift_threshold=0.5,
        )
        _feed(retrainer, 10)
        with pytest.raises(ValueError, match="must be finite"):
            retrainer.observe(np.array([x0, 0.0, 0.0, 0.0]), True, y_r, y_c)
        assert retrainer.n_observed == 10 and retrainer.n_buffered == 10
        _feed(retrainer, 30, seed=1)  # the 40th accepted outcome triggers
        assert retrainer.n_refits == 1
        assert retrainer.n_staged == 1
        assert np.isfinite(retrainer.drift_score())

    def test_a_row_of_another_width_is_refused_before_buffering(self):
        """A narrower row used to be buffered and counted; the observe
        that reached ``min_outcomes`` then raised from ``np.stack``, and
        so did every later one until the row left the window."""
        retrainer = Retrainer(
            _registry_with_champion(), window=50, min_outcomes=10, every_outcomes=20
        )
        _feed(retrainer, 5)
        with pytest.raises(ValueError, match="width 3, but the window's rows have width 4"):
            retrainer.observe(np.zeros(3), True, 1.0, 0.1)
        assert retrainer.n_observed == 5 and retrainer.n_buffered == 5
        _feed(retrainer, 15, seed=1)  # the 20th accepted outcome triggers
        assert retrainer.n_refits == 1 and retrainer.n_staged == 1
        assert np.isfinite(retrainer.drift_score())

    def test_huge_finite_feature_row_is_buffered(self):
        """The row's sum overflows to inf, but every feature is finite."""
        retrainer = Retrainer(
            _registry_with_champion(), every_outcomes=40, window=64, min_outcomes=16
        )
        retrainer.observe(np.array([1e308, 1e308, 0.0, 0.0]), True, 1.0, 0.1)
        assert retrainer.n_observed == 1 and retrainer.n_buffered == 1

    def test_every_outcomes_trigger_stages_challenger(self):
        registry = _registry_with_champion()
        retrainer = Retrainer(
            registry, every_outcomes=40, window=64, min_outcomes=16
        )
        _feed(retrainer, 40)
        assert retrainer.n_refits == 1
        assert retrainer.n_staged == 1
        assert registry.challenger is not None
        assert registry.challenger.name == "retrained-1"
        kinds = [e.kind for e in retrainer.events]
        assert kinds[:3] == ["trigger", "fit", "stage"]

    def test_trigger_declines_below_min_outcomes(self):
        retrainer = Retrainer(
            _registry_with_champion(), every_outcomes=10, window=64, min_outcomes=50
        )
        _feed(retrainer, 40)  # four count-triggers fire, all decline
        assert retrainer.n_refits == 0
        assert retrainer.events == []
        assert retrainer.refit_now() is False

    def test_every_n_days_fires_on_manual_clock(self):
        clock = ManualClock()
        retrainer = Retrainer(
            _registry_with_champion(),
            clock=clock,
            every_n_days=1.0,
            window=64,
            min_outcomes=8,
        )
        assert retrainer.next_deadline() == pytest.approx(DAY_S)
        _feed(retrainer, 20)
        assert retrainer.n_refits == 0  # deadline not reached yet
        clock.advance(DAY_S + 1.0)
        retrainer.poll()
        assert retrainer.n_refits == 1
        # the timer re-armed, one interval out from the fire time
        assert retrainer.next_deadline() == pytest.approx(2 * DAY_S + 1.0)

    def test_periodic_rearms_after_declined_trigger(self):
        clock = ManualClock()
        retrainer = Retrainer(
            _registry_with_champion(),
            clock=clock,
            every_n_days=1.0,
            window=64,
            min_outcomes=60,
        )
        clock.advance(DAY_S + 1.0)
        retrainer.poll()  # fires, declines: window empty
        assert retrainer.n_refits == 0
        assert retrainer.next_deadline() is not None  # policy not silenced

    def test_a_period_inside_the_due_slack_does_not_spin(self):
        """Regression: ``every_n_days=1e-15`` is 8.64e-11 s, inside the
        deadline loop's 1 ns due slack, so the timer re-armed due on
        every firing and the first due ``poll`` never returned.  The
        clock raises once a spinning poll has read it a few hundred
        times."""

        class BoundedClock(ManualClock):
            reads = 0

            def now(self):
                self.reads += 1
                if self.reads > 300:
                    raise RuntimeError("poll is spinning")
                return super().now()

        clock = BoundedClock()
        retrainer = Retrainer(
            _registry_with_champion(),
            clock=clock,
            every_n_days=1e-15,
            window=64,
            min_outcomes=60,
        )
        clock.advance(1.0)
        # the overdue deadline fires, then the one re-armed from now
        assert retrainer.poll() == 2
        # re-armed at the deadline it just fired: left for the next poll
        assert retrainer.next_deadline() == 1.0 + retrainer.every_s
        assert retrainer.poll() == 1
        assert retrainer.n_refits == 0  # every trigger declined: window empty

    def test_drift_trigger(self):
        registry = _registry_with_champion()
        retrainer = Retrainer(
            registry,
            drift_threshold=0.5,
            window=128,
            min_outcomes=64,
        )
        _feed(retrainer, 128, seed=1)
        assert retrainer.n_refits == 0
        assert retrainer.drift_score() < 0.5  # stationary stream
        _feed(retrainer, 256, seed=2, shift=2.0)  # mean shift >> threshold
        assert retrainer.n_refits >= 1
        assert any(e.reason == "drift" for e in retrainer.events)

    def test_drift_reference_refreezes_at_refit(self):
        retrainer = Retrainer(
            _registry_with_champion(),
            drift_threshold=0.5,
            window=128,
            min_outcomes=64,
        )
        _feed(retrainer, 128, seed=1)
        _feed(retrainer, 256, seed=2, shift=2.0)
        first_refits = retrainer.n_refits
        assert first_refits >= 1
        # keep streaming from the *shifted* regime: the reference was
        # re-frozen on the shifted window, so the score settles again
        _feed(retrainer, 256, seed=3, shift=2.0)
        assert retrainer.drift_score() < 0.5


class TestHoldAndStage:
    def test_holds_while_challenger_slot_occupied(self):
        registry = _registry_with_champion()
        retrainer = Retrainer(
            registry, every_outcomes=40, window=64, min_outcomes=16
        )
        _feed(retrainer, 40, seed=0)
        assert registry.challenger is not None  # slot now occupied
        _feed(retrainer, 40, seed=1)
        assert retrainer.n_refits == 2
        assert retrainer.n_staged == 1  # second refit held, not staged
        assert retrainer.refit_pending
        assert any(e.kind == "hold" for e in retrainer.events)
        registry.demote()
        retrainer.poll()
        assert retrainer.n_staged == 2
        assert registry.challenger.name == "retrained-2"
        assert not retrainer.refit_pending

    def test_freshest_held_fit_wins(self):
        registry = _registry_with_champion()
        retrainer = Retrainer(
            registry, every_outcomes=40, window=64, min_outcomes=16
        )
        _feed(retrainer, 40, seed=0)  # staged -> slot occupied
        _feed(retrainer, 40, seed=1)  # held
        held_first = retrainer._held
        # a manual refit while one is held: only the freshest survives
        assert retrainer.refit_now() is False  # refit_pending blocks it
        registry.demote()
        retrainer.poll()
        assert registry.challenger.model is held_first

    def test_refit_now_and_events_audit(self):
        registry = _registry_with_champion()
        clock = ManualClock()
        clock.advance(123.0)
        retrainer = Retrainer(
            registry, clock=clock, every_outcomes=10_000, window=64, min_outcomes=16
        )
        _feed(retrainer, 32)
        assert retrainer.refit_now("because") is True
        event = retrainer.events[0]
        assert isinstance(event, RetrainEvent)
        assert event.at == pytest.approx(123.0)
        assert event.reason == "because"
        stage = [e for e in retrainer.events if e.kind == "stage"][0]
        assert stage.version == registry.challenger.version

    def test_metrics_wiring(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        retrainer = Retrainer(
            _registry_with_champion(),
            every_outcomes=40,
            window=64,
            min_outcomes=16,
            metrics=metrics,
        )
        _feed(retrainer, 40)
        assert metrics.counter("retrainer.outcomes").value == 40
        assert metrics.counter("retrainer.refits").value == 1
        assert metrics.counter("retrainer.staged").value == 1
        assert metrics.gauge("retrainer.window_fill").value == 40


class TestSimulatorWiring:
    def _engine(self, seed=0):
        from repro.serving import ScoringEngine

        registry = _registry_with_champion(seed, d=12)  # criteo has 12 features
        clock = ManualClock()
        engine = ScoringEngine(registry, batch_size=8, clock=clock)
        return registry, clock, engine

    def test_rejects_foreign_registry(self):
        from repro.ab.platform import Platform
        from repro.serving import TrafficReplay

        registry, clock, engine = self._engine()
        other = _registry_with_champion(1)
        retrainer = Retrainer(other, every_outcomes=10, clock=clock)
        with pytest.raises(ValueError, match="registry"):
            TrafficReplay(
                Platform(dataset="criteo", random_state=0),
                engine,
                retrainer=retrainer,
            )

    def test_rejects_foreign_clock_under_simulated_time(self):
        from repro.ab.platform import Platform
        from repro.serving import TrafficReplay

        registry, clock, engine = self._engine()
        retrainer = Retrainer(registry, every_outcomes=10, clock=ManualClock())
        with pytest.raises(ValueError, match="clock"):
            TrafficReplay(
                Platform(dataset="criteo", random_state=0),
                engine,
                retrainer=retrainer,
                interarrival_s=1.0,
            )

    def test_replay_feeds_retrainer(self):
        from repro.ab.platform import Platform
        from repro.serving import TrafficReplay

        registry, clock, engine = self._engine()
        retrainer = Retrainer(
            registry, every_outcomes=10_000, window=256, min_outcomes=32, clock=clock
        )
        replay = TrafficReplay(
            Platform(dataset="criteo", random_state=0),
            engine,
            retrainer=retrainer,
            interarrival_s=1.0,
            random_state=1,
        )
        replay.replay_days(n_days=1, n_users=200, budget_fraction=0.3)
        assert retrainer.n_observed == 200  # every decided request observed

    def test_paired_outcomes_match_across_policies(self):
        """CRN pairing: the same (user, treated) draw realises identically
        no matter what order decisions resolve in."""
        from repro.ab.platform import Platform
        from repro.serving import ScoringEngine, TrafficReplay

        def outcomes(batch_size):
            registry = _registry_with_champion(3, d=12)
            engine = ScoringEngine(registry, batch_size=batch_size)
            replay = TrafficReplay(
                Platform(dataset="criteo", random_state=7),
                engine,
                feedback=True,
                paired_outcomes=True,
                random_state=11,
            )
            day = replay.replay_days(n_days=1, n_users=300, budget_fraction=0.3)
            return day.days[0].incremental_revenue

        # different batch sizes change decision *order*, not draws
        assert outcomes(8) == pytest.approx(outcomes(64))


class TestClosedLoopUnderDrift:
    """The E2E acceptance pin (CRN-paired frozen vs retraining runs)."""

    @staticmethod
    def _run(retrain: bool, seed: int = 0):
        from repro.ab.platform import Platform
        from repro.serving import AutoPromoter, ScoringEngine, TrafficReplay

        platform = Platform(
            dataset="criteo",
            random_state=seed,
            drift_day=2,
            drift_strength=3.0,
            day_effect=0.0,
        )
        # champion fit on a pre-drift probe cohort (separate platform so
        # the serving stream itself is untouched)
        probe = Platform(dataset="criteo", random_state=seed + 100).daily_cohort(
            3000, day=1
        )
        rng = np.random.default_rng(seed + 7)
        t = rng.integers(0, 2, probe.n)
        u = rng.random((probe.n, 2))
        y_r = (u[:, 0] < probe.tau_r) * t
        y_c = (u[:, 1] < probe.tau_c) * t
        champion = TreatedNetRidge(alpha=1.0).fit(probe.x, y_r - y_c, t)

        clock = ManualClock()
        registry = ModelRegistry(random_state=seed)
        registry.register(champion, name="champion", promote=True)
        engine = ScoringEngine(
            registry, batch_size=32, max_latency_ms=50.0, clock=clock
        )
        promoter = AutoPromoter(
            registry,
            clock=clock,
            ramp=(0.2, 0.6),
            step_every_s=300.0,
            min_decided=80,
            check_every=25,
            hold_decided=80,
        )
        retrainer = (
            Retrainer(
                registry,
                clock=clock,
                window=1500,
                min_outcomes=500,
                every_outcomes=1500,
            )
            if retrain
            else None
        )
        replay = TrafficReplay(
            platform,
            engine,
            feedback=False,
            interarrival_s=1.0,
            promoter=promoter,
            retrainer=retrainer,
            paired_outcomes=True,
            random_state=seed + 1,
        )
        result = replay.replay_days(n_days=6, n_users=1500, budget_fraction=0.3)
        return result, promoter, retrainer

    def test_retraining_beats_frozen_champion(self):
        frozen, _, _ = self._run(retrain=False)
        looped, promoter, retrainer = self._run(retrain=True)
        rev_frozen = sum(d.incremental_revenue for d in frozen.days)
        rev_loop = sum(d.incremental_revenue for d in looped.days)

        # the acceptance pin: strictly better cumulative revenue under
        # drift, on CRN-paired outcome draws
        assert rev_loop > rev_frozen

        # challengers were staged by the retrainer, not by hand, and at
        # least one of them earned promotion through the ordinary gate
        assert retrainer.n_staged >= 1
        staged_versions = {
            e.version for e in retrainer.events if e.kind == "stage"
        }
        promoted = [e for e in promoter.events if e.kind == "promote"]
        assert promoted
        assert any(e.version in staged_versions for e in promoted)
