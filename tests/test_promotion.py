"""Tests for challenger auto-promotion (``repro.serving.promotion``).

Unit layer: the :class:`AutoPromoter` state machine driven directly
with synthetic outcome streams under a :class:`ManualClock` — ramp
schedule, significance verdicts (promote / kill / rollback / confirm),
false-promotion rate, invalidation.  End-to-end layer: full
:class:`TrafficReplay` campaigns where the lifecycle runs itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ab.platform import Platform
from repro.obs import MetricsRegistry
from repro.runtime import ManualClock
from repro.serving.engine import ScoringEngine
from repro.serving.promotion import AutoPromoter
from repro.serving.registry import ModelRegistry
from repro.serving.simulator import TrafficReplay


class LinearROI:
    """Deterministic stub scorer: clipped linear projection of x."""

    def __init__(self, w: np.ndarray) -> None:
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.clip(x @ self.w, 1e-6, 1.0 - 1e-6)


def make_pair(traffic_split: float = 0.0, seed: int = 0):
    """Registry with a champion (v1) and a staged challenger (v2)."""
    reg = ModelRegistry(traffic_split=traffic_split, random_state=seed)
    v1 = reg.register(LinearROI(np.zeros(4)), name="champion")
    v2 = reg.register(LinearROI(np.ones(4)), name="challenger")
    return reg, v1, v2


def feed(promoter, gen, version, n, p, cost=0.0):
    """n decided requests for one version: Bernoulli(p) revenue."""
    for _ in range(n):
        promoter.observe(version, True, float(gen.random() < p), cost)


# ---------------------------------------------------------------------------
# ramp schedule (exact under ManualClock)
# ---------------------------------------------------------------------------
class TestRampSchedule:
    def test_ramp_advances_on_the_deadline_loop_exactly(self):
        reg, _v1, v2 = make_pair()
        clock = ManualClock()
        promoter = AutoPromoter(
            reg, clock=clock, ramp=(0.01, 0.05, 0.25, 1.0), step_every_s=10.0,
            auto_start=False,
        )
        assert promoter.state == "idle"
        assert promoter.start()
        assert promoter.state == "ramping"
        assert promoter.watching == v2
        assert reg.traffic_split == 0.01
        assert promoter.next_deadline() == pytest.approx(10.0)

        clock.advance(9.999)
        promoter.poll()
        assert reg.traffic_split == 0.01  # one ms early: not yet
        clock.advance(0.001)
        promoter.poll()
        assert reg.traffic_split == 0.05  # fired exactly at t=10
        clock.advance(10.0)
        promoter.poll()
        assert reg.traffic_split == 0.25
        clock.advance(10.0)
        promoter.poll()
        assert reg.traffic_split == 1.0
        # parked at the final step: nothing further is scheduled
        assert promoter.next_deadline() is None
        assert [e.kind for e in promoter.events] == ["start", "ramp", "ramp", "ramp"]
        assert [e.traffic_split for e in promoter.events] == [0.01, 0.05, 0.25, 1.0]
        assert [e.at for e in promoter.events] == pytest.approx([0.0, 10.0, 20.0, 30.0])

    def test_late_polls_do_not_drift_the_schedule(self):
        """A poll arriving after a boundary fires that step late but
        must anchor the *next* step on the original boundary — sparse
        polling cannot compound into cumulative ramp drift."""
        reg, _v1, _v2 = make_pair()
        clock = ManualClock()
        promoter = AutoPromoter(
            reg, clock=clock, ramp=(0.01, 0.05, 0.25, 1.0), step_every_s=10.0,
            auto_start=False,
        )
        promoter.start()
        clock.advance(14.0)  # 4s late
        promoter.poll()
        assert reg.traffic_split == 0.05
        # the next boundary is still t=20, not t=24
        assert promoter.next_deadline() == pytest.approx(20.0)
        clock.advance(17.0)  # t=31: two boundaries (20, 30) overdue
        promoter.poll()  # the loop fires both, in order, in one poll
        assert reg.traffic_split == 1.0
        assert promoter.next_deadline() is None

    def test_observe_that_triggers_auto_start_is_counted(self):
        """The observation that opens the experiment must survive the
        ledger reset start() performs."""
        reg, v1, _v2 = make_pair()
        promoter = AutoPromoter(reg, clock=ManualClock(), ramp=(0.02, 1.0))
        promoter.observe(v1, True, 1.0, 0.5)
        assert promoter.state == "ramping"
        assert reg.get(v1).ledger.n == 1  # recorded after the reset

    def test_start_is_noop_without_challenger_or_while_running(self):
        reg = ModelRegistry(traffic_split=0.3)
        reg.register(LinearROI(np.zeros(4)))
        promoter = AutoPromoter(reg, clock=ManualClock(), auto_start=False)
        assert promoter.start() is False  # nothing staged
        reg.register(LinearROI(np.ones(4)))
        assert promoter.start()
        assert promoter.start() is False  # already ramping

    def test_auto_start_on_poll_and_observe(self):
        reg, _v1, _v2 = make_pair()
        promoter = AutoPromoter(reg, clock=ManualClock(), ramp=(0.02, 1.0))
        promoter.poll()
        assert promoter.state == "ramping"
        assert reg.traffic_split == 0.02

    def test_start_resets_both_ledgers(self):
        reg, v1, v2 = make_pair()
        reg.record_outcome(v1, True, 1.0, 0.5)
        reg.record_outcome(v2, True, 1.0, 0.5)
        promoter = AutoPromoter(reg, clock=ManualClock(), auto_start=False)
        promoter.start()
        assert reg.get(v1).ledger.n == 0  # concurrent windows only
        assert reg.get(v2).ledger.n == 0

    def test_invalid_params(self):
        reg, _v1, _v2 = make_pair()
        with pytest.raises(ValueError, match="ramp"):
            AutoPromoter(reg, ramp=())
        with pytest.raises(ValueError, match="ramp fractions"):
            AutoPromoter(reg, ramp=(0.0, 0.5))
        with pytest.raises(ValueError, match="increasing"):
            AutoPromoter(reg, ramp=(0.5, 0.1))
        with pytest.raises(ValueError, match="step_every_s"):
            AutoPromoter(reg, step_every_s=0.0)
        with pytest.raises(ValueError, match="level"):
            AutoPromoter(reg, level=1.0)
        with pytest.raises(ValueError, match="metric"):
            AutoPromoter(reg, metric="clicks")
        with pytest.raises(ValueError, match="min_decided"):
            AutoPromoter(reg, min_decided=1)
        with pytest.raises(ValueError, match="check_every"):
            AutoPromoter(reg, check_every=0)
        with pytest.raises(ValueError, match="hold_decided"):
            AutoPromoter(reg, hold_decided=1)
        with pytest.raises(ValueError, match="hold_decided must be >= min_decided"):
            AutoPromoter(reg, min_decided=500, hold_decided=100)


# ---------------------------------------------------------------------------
# the significance gate (synthetic outcome streams)
# ---------------------------------------------------------------------------
class TestSignificanceGate:
    def _promoter(self, reg, **kwargs):
        defaults = dict(
            clock=ManualClock(), ramp=(0.1, 1.0), step_every_s=1e9,
            level=0.99, min_decided=200, check_every=100, auto_start=False,
        )
        defaults.update(kwargs)
        return AutoPromoter(reg, **defaults)

    def test_no_verdict_before_min_decided_on_both_arms(self):
        reg, v1, v2 = make_pair()
        promoter = self._promoter(reg, min_decided=200)
        promoter.start()
        gen = np.random.default_rng(0)
        feed(promoter, gen, v2, 500, p=0.9)  # huge effect, but one-armed
        feed(promoter, gen, v1, 199, p=0.1)  # baseline one short
        assert promoter.evaluate() is None
        assert promoter.state == "ramping"  # no action possible yet
        assert [e.kind for e in promoter.events] == ["start"]

    def test_better_challenger_promotes(self):
        reg, v1, v2 = make_pair()
        promoter = self._promoter(reg)
        promoter.start()
        gen = np.random.default_rng(1)
        for _ in range(40):  # interleave arms like live traffic would
            feed(promoter, gen, v1, 25, p=0.30)
            feed(promoter, gen, v2, 25, p=0.50)
            if promoter.state != "ramping":
                break
        assert promoter.state == "holding"
        assert reg.champion.version == v2
        assert reg.challenger is None
        assert reg.get(v1).stage == "archived"
        assert reg.traffic_split == 0.0  # parked between experiments
        promote = [e for e in promoter.events if e.kind == "promote"]
        assert len(promote) == 1
        assert promote[0].version == v2
        assert promote[0].ci is not None and promote[0].ci.lo > 0.0
        assert promote[0].ci.level == 0.99
        # the new champion starts its hold window fresh
        assert reg.get(v2).ledger.n == 0

    @pytest.mark.parametrize("y_r, y_c", [(float("nan"), 0.0), (1.0, float("inf"))])
    def test_non_finite_outcome_is_refused_before_recording(self, y_r, y_c):
        """One NaN revenue used to land in the version's ledger, and every
        later gate check then raised, so the experiment could never end."""
        reg, v1, v2 = make_pair()
        idle = AutoPromoter(reg, clock=ManualClock())  # auto-starts on observe
        with pytest.raises(ValueError, match="must be finite"):
            idle.observe(v2, True, y_r, y_c)
        assert idle.state == "idle" and idle.events == []
        promoter = self._promoter(reg)
        promoter.start()
        with pytest.raises(ValueError, match="must be finite"):
            promoter.observe(v2, True, y_r, y_c)
        assert reg.get(v2).ledger.n == 0
        gen = np.random.default_rng(1)
        for _ in range(40):  # the gate still reaches its verdict
            feed(promoter, gen, v1, 25, p=0.30)
            feed(promoter, gen, v2, 25, p=0.50)
            if promoter.state != "ramping":
                break
        assert promoter.state == "holding"
        assert reg.champion.version == v2

    def test_unknown_version_is_refused_before_anything_moves(self):
        """Regression: an idle promoter auto-started the experiment and
        counted the observation before the registry raised KeyError for
        a version it does not hold."""
        reg, _v1, _v2 = make_pair()
        metrics = MetricsRegistry()
        promoter = AutoPromoter(reg, clock=ManualClock(), metrics=metrics)
        with pytest.raises(KeyError):
            promoter.observe(99, True, 1.0, 0.0)
        assert promoter.state == "idle" and promoter.events == []
        assert reg.traffic_split == 0.0
        assert metrics.counter("promoter.observations").value == 0

    def test_worse_challenger_is_killed(self):
        reg, v1, v2 = make_pair()
        promoter = self._promoter(reg)
        promoter.start()
        gen = np.random.default_rng(2)
        for _ in range(40):
            feed(promoter, gen, v1, 25, p=0.50)
            feed(promoter, gen, v2, 25, p=0.20)
            if promoter.state != "ramping":
                break
        assert promoter.state == "idle"
        assert reg.champion.version == v1  # champion untouched
        assert reg.challenger is None
        assert reg.get(v2).stage == "archived"
        assert reg.traffic_split == 0.0
        kill = [e for e in promoter.events if e.kind == "kill"]
        assert len(kill) == 1 and kill[0].ci.hi < 0.0
        assert not any(e.kind == "promote" for e in promoter.events)

    def test_degrading_promoted_challenger_rolls_back(self):
        """The full arc: a challenger earns promotion, then degrades in
        its post-promotion hold window — the promoter restores the
        displaced champion via registry.rollback()."""
        reg, v1, v2 = make_pair()
        promoter = self._promoter(reg)
        promoter.start()
        gen = np.random.default_rng(3)
        for _ in range(40):
            feed(promoter, gen, v1, 25, p=0.30)
            feed(promoter, gen, v2, 25, p=0.50)
            if promoter.state != "ramping":
                break
        assert promoter.state == "holding"
        assert reg.champion.version == v2
        # the promoted model degrades hard below the frozen baseline
        for _ in range(40):
            feed(promoter, gen, v2, 25, p=0.05)
            if promoter.state != "holding":
                break
        assert promoter.state == "idle"
        assert reg.champion.version == v1  # the old champion is back
        assert reg.get(v2).stage == "archived"
        rollback = [e for e in promoter.events if e.kind == "rollback"]
        assert len(rollback) == 1
        assert rollback[0].version == v2 and rollback[0].ci.hi < 0.0

    def test_healthy_promotion_confirms_after_hold(self):
        reg, v1, v2 = make_pair()
        promoter = self._promoter(reg, hold_decided=600)
        promoter.start()
        gen = np.random.default_rng(4)
        for _ in range(40):
            feed(promoter, gen, v1, 25, p=0.30)
            feed(promoter, gen, v2, 25, p=0.50)
            if promoter.state != "ramping":
                break
        assert promoter.state == "holding"
        feed(promoter, gen, v2, 700, p=0.50)  # keeps performing
        assert promoter.state == "idle"
        assert reg.champion.version == v2  # promotion stands
        assert promoter.events[-1].kind == "confirm"

    def test_identical_models_never_promote_single_run(self):
        reg, v1, v2 = make_pair()
        promoter = self._promoter(reg)
        promoter.start()
        gen = np.random.default_rng(5)
        for _ in range(40):
            feed(promoter, gen, v1, 25, p=0.40)
            feed(promoter, gen, v2, 25, p=0.40)
        assert promoter.state == "ramping"  # no verdict ever reached
        assert reg.champion.version == v1
        assert not any(
            e.kind in ("promote", "kill") for e in promoter.events
        )

    def test_false_promotion_rate_is_small(self):
        """Identical arms across many seeded campaigns: repeated
        peeking at level=0.99 must keep the realised false-promotion
        rate far below coin-flip territory.  Deterministic under the
        fixed seeds — this pins the gate's operating point."""
        promotions = 0
        trials = 20
        for seed in range(trials):
            reg, v1, v2 = make_pair()
            promoter = self._promoter(reg)
            promoter.start()
            gen = np.random.default_rng(seed)
            for _ in range(30):
                feed(promoter, gen, v1, 25, p=0.40)
                feed(promoter, gen, v2, 25, p=0.40)
                if promoter.state != "ramping":
                    break
            promotions += any(e.kind == "promote" for e in promoter.events)
        assert promotions <= 2  # <= 10% realised with ~30 peeks/campaign

    def test_hotfix_register_aborts_the_experiment(self):
        reg, _v1, v2 = make_pair()
        promoter = self._promoter(reg)
        promoter.start()
        reg.register(LinearROI(np.full(4, 0.5)), promote=True)  # surgery
        promoter.poll()
        assert promoter.state == "idle"
        assert promoter.events[-1].kind == "abort"
        assert promoter.events[-1].version == v2
        assert reg.challenger is None  # the registry archived it already

    def test_manual_rollback_during_hold_aborts(self):
        reg, v1, v2 = make_pair()
        promoter = self._promoter(reg)
        promoter.start()
        gen = np.random.default_rng(6)
        for _ in range(40):
            feed(promoter, gen, v1, 25, p=0.30)
            feed(promoter, gen, v2, 25, p=0.50)
            if promoter.state != "ramping":
                break
        assert promoter.state == "holding"
        reg.rollback()  # an operator pulls the cord by hand
        promoter.poll()
        assert promoter.state == "idle"
        assert promoter.events[-1].kind == "abort"
        assert reg.champion.version == v1


# ---------------------------------------------------------------------------
# end-to-end: TrafficReplay campaigns operating the lifecycle
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def probe_weights():
    from repro.data import criteo_uplift_v2

    probe = criteo_uplift_v2(4000, random_state=5)
    return np.linalg.lstsq(probe.x, probe.roi, rcond=None)[0]


class TestReplayLifecycle:
    def test_promoter_must_share_the_engines_registry(self, probe_weights):
        platform = Platform(dataset="criteo", random_state=0)
        engine = ScoringEngine(LinearROI(probe_weights), batch_size=8)
        other = ModelRegistry()
        other.register(LinearROI(probe_weights))
        with pytest.raises(ValueError, match="registry"):
            TrafficReplay(platform, engine, promoter=AutoPromoter(other))

    def test_simulated_time_requires_a_shared_clock(self, probe_weights):
        """A promoter on its own (system) clock under a simulated-time
        replay would silently run the ramp on wall time — rejected."""
        platform = Platform(dataset="criteo", random_state=0)
        reg = ModelRegistry(random_state=0)
        reg.register(LinearROI(probe_weights))
        reg.register(LinearROI(probe_weights))
        engine = ScoringEngine(reg, batch_size=8, clock=ManualClock())
        with pytest.raises(ValueError, match="clock"):
            TrafficReplay(
                platform, engine, interarrival_s=0.001,
                promoter=AutoPromoter(reg),  # defaults to SystemClock
            )
        # sharing the engine's clock is fine
        TrafficReplay(
            platform, engine, interarrival_s=0.001,
            promoter=AutoPromoter(reg, clock=engine.clock),
        )

    def test_ramp_schedule_is_exact_under_simulated_time(self, probe_weights):
        """ISSUE acceptance: traffic_split ramps on the DeadlineLoop
        schedule, exact under ManualClock — each step fires at
        precisely the first arrival on/after its boundary."""
        platform = Platform(dataset="criteo", random_state=0)
        reg = ModelRegistry(random_state=0)
        reg.register(LinearROI(probe_weights), name="champion")
        reg.register(LinearROI(probe_weights), name="clone")  # identical
        clock = ManualClock()
        engine = ScoringEngine(reg, batch_size=64, cache_size=0, clock=clock)
        promoter = AutoPromoter(
            reg, clock=clock, ramp=(0.01, 0.05, 0.25, 1.0), step_every_s=0.25,
            min_decided=10**9, hold_decided=10**9,  # no verdict can interrupt the ramp
        )
        replay = TrafficReplay(
            platform, engine, interarrival_s=0.001, promoter=promoter,
            random_state=11,
        )
        replay.replay_day(1200, budget_fraction=0.3)
        # the promoter auto-started at the first arrival (t=0.001) and
        # stepped every 0.25 simulated seconds from there
        starts = [e for e in promoter.events if e.kind == "start"]
        ramps = [e for e in promoter.events if e.kind == "ramp"]
        assert len(starts) == 1 and starts[0].at == pytest.approx(0.001)
        assert [e.traffic_split for e in ramps] == [0.05, 0.25, 1.0]
        assert [e.at for e in ramps] == pytest.approx([0.251, 0.501, 0.751])
        assert reg.traffic_split == 1.0

    @pytest.mark.slow
    def test_campaign_promotes_dominant_challenger(self, probe_weights):
        """ISSUE acceptance: a multi-day campaign where the
        challenger's true model dominates auto-promotes it."""
        platform = Platform(dataset="criteo", random_state=0)
        reg = ModelRegistry(random_state=0)
        reg.register(LinearROI(-probe_weights), name="bad-champion")
        challenger = reg.register(LinearROI(probe_weights), name="good")
        clock = ManualClock()
        engine = ScoringEngine(reg, batch_size=64, cache_size=0, clock=clock)
        promoter = AutoPromoter(
            reg, clock=clock, ramp=(0.05, 0.25, 1.0), step_every_s=0.5,
            level=0.99, min_decided=300, check_every=200, hold_decided=1500,
        )
        replay = TrafficReplay(
            platform, engine, interarrival_s=0.001, promoter=promoter,
            random_state=7,
        )
        result = replay.replay_days(4, 2500, budget_fraction=0.3)
        assert result.n_days == 4
        kinds = [e.kind for e in promoter.events]
        assert "promote" in kinds
        assert "kill" not in kinds and "rollback" not in kinds
        assert reg.champion.version == challenger
        # and the rollout was staged, not a blind swap: the promote
        # verdict came after at least the first ramp step
        assert kinds.index("promote") > kinds.index("start")
        promote = next(e for e in promoter.events if e.kind == "promote")
        assert promote.ci.lo > 0.0

    @pytest.mark.slow
    def test_equal_campaign_never_promotes(self, probe_weights):
        """ISSUE acceptance: an equal-model campaign never promotes at
        the configured significance level."""
        platform = Platform(dataset="criteo", random_state=1)
        reg = ModelRegistry(random_state=0)
        reg.register(LinearROI(probe_weights), name="champion")
        reg.register(LinearROI(probe_weights), name="clone")
        clock = ManualClock()
        engine = ScoringEngine(reg, batch_size=64, cache_size=0, clock=clock)
        promoter = AutoPromoter(
            reg, clock=clock, ramp=(0.05, 0.25, 1.0), step_every_s=0.5,
            level=0.99, min_decided=300, check_every=200,
        )
        replay = TrafficReplay(
            platform, engine, interarrival_s=0.001, promoter=promoter,
            random_state=13,
        )
        replay.replay_days(4, 2500, budget_fraction=0.3)
        kinds = [e.kind for e in promoter.events]
        assert "promote" not in kinds and "rollback" not in kinds
        assert reg.champion.version == 1  # the incumbent stays

    def test_outcomes_attribute_to_the_scoring_version(self, probe_weights):
        """Every decided arrival lands in exactly one version's ledger,
        and the two ledgers partition the cohort."""
        platform = Platform(dataset="criteo", random_state=2)
        reg = ModelRegistry(random_state=0)
        reg.register(LinearROI(probe_weights))
        reg.register(LinearROI(probe_weights * 0.5))
        engine = ScoringEngine(reg, batch_size=32, cache_size=0)
        promoter = AutoPromoter(
            reg, ramp=(0.5,), min_decided=10**9, hold_decided=10**9, auto_start=True,
        )
        replay = TrafficReplay(platform, engine, promoter=promoter, random_state=3)
        result = replay.replay_day(1000, budget_fraction=0.3)
        n1 = reg.get(1).ledger.n
        n2 = reg.get(2).ledger.n
        assert n1 + n2 == result.n_events
        assert n2 > 0  # the challenger really saw its slice
        # ledger spend tracks the pacer's realised spend structure:
        # only treated users realise cost draws
        assert reg.get(1).ledger.n_treated + reg.get(2).ledger.n_treated == int(
            np.sum(result.treated)
        )
