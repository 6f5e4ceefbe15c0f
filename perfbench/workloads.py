"""The benchmark's workloads, built from the library's public constructors.

Every workload drives the decided-request path a user runs:
``TrafficReplay`` → ``ScoringEngine`` / ``ShardedScoringEngine`` →
``BudgetPacer`` (→ ``AutoPromoter`` / ``Retrainer``).  A workload object
is one *set-up*: :meth:`Workload.setup` fits and calibrates the model,
draws the traffic from the workload seed — the day cohorts, their
arrival order and the hot-user mix — and starts the worker pool if the
workload has one.  :meth:`Workload.rep` then replays the prepared
traffic once through freshly built serving objects and a fresh copy of
the fitted model, so every repetition starts from the same state (the
MC-dropout stream included) and the timed region holds the decision
path only.  The traffic reaches the replay through
:class:`PreparedTraffic`, a ``Platform`` stand-in that hands out the
cohorts drawn during set-up.

The model is part of the system under test, not of its input: it is
fitted from the fixed :data:`MODEL_SEED`.  Fitted from the workload seed
instead, the model's ranking quality swings incremental revenue by
12–32% (interquartile range over median) between seeds, more than any
bound a guarded metric may have; with the model fixed, traffic draws
alone move it by about 1%.
"""

from __future__ import annotations

import os
import pickle
import resource
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker

import numpy as np

import repro
import repro.serving.pacing as pacing_module
import repro.serving.promotion as promotion_module
import repro.serving.simulator as simulator_module
from repro.core import DRPModel, RobustDRP
from repro.runtime import DeadlineLoop, ManualClock, ProcessBackend, live_segment_count
from repro.serving import (
    AutoPromoter,
    BudgetPacer,
    ConformalGatedPolicy,
    GreedyROIPolicy,
    ModelRegistry,
    MultiDayPacer,
    Retrainer,
    ScoringEngine,
    ShardedScoringEngine,
    TrafficReplay,
)

from perfbench.checks import check_campaign, check_day, check_fleet, check_latency
from perfbench.tracing import Ledger, Tracer

__all__ = ["WORKLOADS", "PreparedTraffic", "Rep", "Workload"]

DAY_S = 86_400.0
BUDGET_FRACTION = 0.3
MODEL_SEED = 0
TRAIN_N = 4_000  # base corpus of the offline setting the models are fitted on
SMALL_DRP = {"hidden": 16, "epochs": 10, "n_restarts": 1}
RDRP = {"hidden": 32, "epochs": 10, "n_restarts": 1, "mc_samples": 30}

ENGINE_CALLS = ("submit", "poll", "has_result", "take", "version_of", "flush", "join")
PACER_CALLS = ("offer", "observe_outcome")


class PreparedTraffic:
    """``Platform`` stand-in serving cohorts drawn during set-up.

    ``days`` maps a 1-based day to ``(cohort, arrival_order)``.
    :attr:`emitted` counts the arrivals handed to the replay, which the
    correctness checks compare against the cohort sizes.
    """

    def __init__(self, days: dict[int, tuple[object, np.ndarray]]) -> None:
        self.days = days
        self._orders = {id(cohort): order for cohort, order in days.values()}
        self.emitted = 0

    def daily_cohort(self, n: int, day: int):
        cohort, _order = self.days[day]
        if cohort.n != n:
            raise ValueError(f"day {day} was prepared with {cohort.n} users, asked for {n}")
        return cohort

    def iter_events(self, cohort):
        order = self._orders[id(cohort)]
        x = cohort.x
        for i in order.tolist():
            yield i, x[i]
        self.emitted += order.size


def draw_days(seed, n_users: int, n_days: int, *, drift_day=None, hot_users=0, hot_share=0.0):
    """Cohorts and arrival orders for ``n_days`` days, all from ``seed``.

    With ``hot_users``, a ``hot_share`` of each day's arrival slots
    re-present one of ``hot_users`` retargeted users (identical feature
    rows, so the score cache can serve them).
    """
    rng = np.random.default_rng(seed)
    platform = repro.Platform("criteo", drift_day=drift_day, random_state=rng)
    days = {}
    for day in range(1, n_days + 1):
        cohort = platform.daily_cohort(n_users, day)
        if hot_users:
            hot = rng.choice(n_users, size=hot_users, replace=False)
            slots = np.flatnonzero(rng.random(n_users) < hot_share)
            index = np.arange(n_users)
            index[slots] = hot[rng.integers(0, hot_users, size=slots.size)]
            cohort = cohort.subset(index)
        days[day] = (cohort, rng.permutation(n_users))
    return days


def offline_setting(seed):
    return repro.make_setting("criteo", "SuNo", n_sufficient=TRAIN_N, random_state=seed)


def fit_drp(seed, params: dict) -> DRPModel:
    train = offline_setting(seed).train
    return DRPModel(random_state=seed, **params).fit(train.x, train.t, train.y_r, train.y_c)


def fit_rdrp(seed) -> RobustDRP:
    setting = offline_setting(seed)
    train, cal = setting.train, setting.calibration
    model = RobustDRP(random_state=seed, **RDRP)
    model.fit(train.x, train.t, train.y_r, train.y_c)
    return model.calibrate(cal.x, cal.t, cal.y_r, cal.y_c)


@dataclass
class Rep:
    """One replay of a workload's prepared traffic.

    ``counts`` are per-layer figures read from outside after the call
    (engine counters, pacer refresh history, lifecycle events); they
    cost nothing to collect, so every repetition has them.
    """

    arrivals: int
    wall: float | None = None
    revenue: float = 0.0
    oracle_revenue: float = 0.0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    ledger: Ledger | None = None
    sim_latency: tuple[float, float, int] | None = None  # p50 ms, p99.9 ms, samples

    @property
    def ok(self) -> bool:
        return self.wall is not None and not self.failures


def engine_counts(stats: dict) -> dict[str, float]:
    return {f"engine.{key}": float(value) for key, value in stats.items()}


def pacer_counts(days) -> dict[str, float]:
    """Pacer figures from the replayed days' public results."""
    history = [entry for day in days for entry in day.pacing_history]
    return {
        "pacer.refreshes": float(len(history)),
        "pacer.lockouts": float(sum(1 for _n, _spent, thr in history if thr == np.inf)),
        "pacer.admitted": float(sum(day.n_treated for day in days)),
        "pacer.seen": float(sum(day.n_events for day in days)),
        "pacer.spend": float(sum(day.spend for day in days)),
        "pacer.budget": float(sum(day.budget for day in days)),
    }


def traced_fit_class(base: type, tracer: Tracer) -> type:
    """A ``base`` subclass whose ``fit`` is recorded as a ``refit`` span.

    The override keeps the ``fit(x, t, y_r, y_c)`` signature:
    ``causal.base.refit_model`` dispatches on the parameter names, so a
    ``*args`` wrapper would send the refit down the wrong branch.
    """
    timed_fit = tracer.recorder.wrap("refit.fit", base.fit)

    class Traced(base):
        def fit(self, x, t, y_r, y_c):
            return timed_fit(self, x, t, y_r, y_c)

    Traced.__name__ = Traced.__qualname__ = f"Traced{base.__name__}"
    return Traced


def traced_multiday_pacer(tracer: Tracer) -> type:
    """Stand-in for the ``MultiDayPacer`` name ``replay_days`` imported:
    records the day lifecycle and wraps each day's ``BudgetPacer``."""
    record = tracer.recorder.wrap
    timed_start_day = record("pacer.start_day", MultiDayPacer.start_day)

    class TracedMultiDayPacer(MultiDayPacer):
        end_day = record("pacer.end_day", MultiDayPacer.end_day)
        plan_next_day = record("pacer.plan_next_day", MultiDayPacer.plan_next_day)

        def start_day(self, *args, **kwargs):
            pacer = timed_start_day(self, *args, **kwargs)
            tracer.wrap_methods(pacer, "pacer", PACER_CALLS)
            return pacer

    return TracedMultiDayPacer


def instrument(tracer: Tracer, replay, engine, *, pacer=None, promoter=None, retrainer=None) -> None:
    """Wrap every layer entry point one replay reaches."""
    tracer.wrap_attr(simulator_module, "greedy_allocation", "oracle.greedy_allocation")
    tracer.wrap_attr(simulator_module, "MultiDayPacer", replacement=traced_multiday_pacer(tracer))
    tracer.wrap_attr(pacing_module, "binary_search_roi_star", "roi_star.binary_search_roi_star")
    tracer.wrap_attr(promotion_module, "welch_ci_from_moments", "welch.welch_ci_from_moments")
    # the engine's, promoter's and retrainer's loops are private attributes
    tracer.wrap_attr(DeadlineLoop, "poll", "deadline.poll")
    tracer.wrap_methods(replay, "replay", ("replay_day", "replay_days"))
    if isinstance(engine, ShardedScoringEngine):
        # the policy runs inside the worker processes, out of reach
        tracer.wrap_methods(engine, "fleet", (*ENGINE_CALLS, "close"))
    else:
        tracer.wrap_methods(engine, "engine", ENGINE_CALLS)
        tracer.wrap_methods(engine.policy, "model", ("score_batch",))
    if pacer is not None:
        tracer.wrap_methods(pacer, "pacer", PACER_CALLS)
    if promoter is not None:
        tracer.wrap_methods(promoter, "promoter", ("observe", "poll"))
    if retrainer is not None:
        tracer.wrap_methods(retrainer, "retrainer", ("observe", "poll"))


def own_peak_rss_kib() -> int:
    """Peak resident memory of the calling process (runs in a worker)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def timed(call) -> tuple[object, float]:
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


class Workload:
    """One set-up of a workload; :meth:`rep` replays it once."""

    name = ""
    why = ""
    n_users = 0
    n_days = 1
    worker_rss_kib = 0  # peak resident memory of the largest worker process

    def __init__(self, seed: int, n_users: int | None = None) -> None:
        self.n = int(n_users or self.n_users)
        traffic, outcomes, routing = np.random.SeedSequence(int(seed)).spawn(3)
        self.traffic_seed = traffic
        self.outcome_seed = int(outcomes.generate_state(1)[0])
        self.routing_seed = int(routing.generate_state(1)[0])
        self.days: dict = {}
        self.model_blob = b""

    @property
    def arrivals(self) -> int:
        return self.n * self.n_days

    def setup(self) -> dict[str, float]:
        """Fit the model, draw the traffic and start any pool; returns
        the seconds each took and their ``total``."""
        start = time.perf_counter()
        self.model_blob = pickle.dumps(self.fit_model())
        fitted = time.perf_counter()
        self.days = self.draw_traffic()
        drawn = time.perf_counter()
        self.start_pool()
        ready = time.perf_counter()
        return {
            "fit_s": fitted - start,
            "cohort_s": drawn - fitted,
            "pool_s": ready - drawn,
            "total": ready - start,
        }

    def fit_model(self):
        raise NotImplementedError

    def draw_traffic(self) -> dict:
        raise NotImplementedError

    def start_pool(self) -> None:
        """Workloads with worker processes start them here."""

    def close(self) -> None:
        """Stop whatever :meth:`start_pool` started."""

    def registry(self) -> ModelRegistry:
        """A registry serving a fresh copy of the fitted model."""
        registry = ModelRegistry(random_state=self.routing_seed)
        registry.register(pickle.loads(self.model_blob), name="champion", promote=True)
        return registry

    def rep(self, tracer: Tracer | None = None) -> Rep:
        raise NotImplementedError


class DayWorkload(Workload):
    """One ``replay_day`` through a single engine and a caller-owned pacer."""

    feedback = False

    def make_engine(self, registry: ModelRegistry):
        raise NotImplementedError

    def finish(self, engine, rep: Rep) -> None:
        """Collect engine-side counts once the replay returned."""
        rep.counts.update(engine_counts(engine.stats))

    def rep(self, tracer: Tracer | None = None) -> Rep:
        traffic = PreparedTraffic(self.days)
        cohort = self.days[1][0]
        engine = self.make_engine(self.registry())
        pacer = BudgetPacer(BUDGET_FRACTION * float(np.sum(cohort.tau_c)), self.n)
        replay = TrafficReplay(
            traffic, engine, feedback=self.feedback, random_state=self.outcome_seed
        )
        rep = Rep(arrivals=self.arrivals)
        try:
            if tracer is not None:
                instrument(tracer, replay, engine, pacer=pacer)
            result, rep.wall = timed(lambda: replay.replay_day(self.n, day=1, pacer=pacer))
            rep.revenue = result.incremental_revenue
            rep.oracle_revenue = result.oracle_revenue
            rep.counts.update(pacer_counts([result]))
            rep.failures += check_day(result, cohort, traffic.emitted, pacer=pacer)
        finally:
            self.finish(engine, rep)
        return rep


class DayDrpStream(DayWorkload):
    name = "day_drp_stream"
    why = (
        "decisioning-heavy day: all-distinct users, small DRP, batch 256, cache off, "
        "roi* feedback on; the pacer and its bisection dominate, the model is ~2%"
    )
    n_users = 25_000
    feedback = True

    def fit_model(self):
        return fit_drp(MODEL_SEED, SMALL_DRP)

    def draw_traffic(self) -> dict:
        return draw_days(self.traffic_seed, self.n, 1)

    def make_engine(self, registry):
        return ScoringEngine(registry, policy=GreedyROIPolicy(), batch_size=256, cache_size=0)


class DayRdrpHot(DayWorkload):
    name = "day_rdrp_hot"
    why = (
        "model-heavy day: calibrated rDRP (MC dropout T=30) under the conformal gate, "
        "default LRU cache on, half the arrivals re-present ~2k hot users"
    )
    n_users = 30_000
    hot_users = 2_000  # smaller than the engine's 4096-entry default cache
    hot_share = 0.5

    def fit_model(self):
        return fit_rdrp(MODEL_SEED)

    def draw_traffic(self) -> dict:
        hot_users = min(self.hot_users, self.n // 4)
        return draw_days(
            self.traffic_seed, self.n, 1, hot_users=hot_users, hot_share=self.hot_share
        )

    def make_engine(self, registry):
        return ScoringEngine(registry, policy=ConformalGatedPolicy())


class DayRdrpFleet(DayRdrpHot):
    name = "day_rdrp_fleet"
    why = (
        "day_rdrp_hot's traffic through a 2-shard process fleet with shm transport and "
        "a fleet-wide cache: the only run of serving.sharding and runtime.shm"
    )
    def __init__(self, seed: int, n_users: int | None = None) -> None:
        super().__init__(seed, n_users)
        self.n_shards = min(2, os.cpu_count() or 1)
        self.backend: ProcessBackend | None = None

    def start_pool(self) -> None:
        # the first fleet starts the worker processes and installs its shards
        self.backend = ProcessBackend(n_workers=self.n_shards)
        self.make_engine(self.registry()).close()

    def close(self) -> None:
        if self.backend is None:
            return
        try:
            peaks = [self.backend.submit_to(lane, own_peak_rss_kib) for lane in range(self.n_shards)]
            self.worker_rss_kib = max(future.result() for future in peaks)
        finally:
            self.backend.shutdown(wait=True)
            self.backend = None
            # creating shared segments started multiprocessing's tracker
            # process; end it and wait for it too, or it outlives the run
            # (only once nothing is live: the tracker unlinks what it holds)
            if live_segment_count() == 0:
                resource_tracker._resource_tracker._stop()

    def make_engine(self, registry):
        fleet = ShardedScoringEngine(
            registry, n_shards=self.n_shards, policy=ConformalGatedPolicy(), backend=self.backend
        )
        fleet.join()  # shards installed before the replay starts the clock
        return fleet

    def finish(self, engine, rep: Rep) -> None:
        try:
            requests = [
                float(snap.get("engine.requests").value) for snap, _versions in engine.shard_snapshots()
            ]
            super().finish(engine, rep)
        finally:
            engine.close()
        leaked = live_segment_count()
        rep.counts["fleet.shard_skew"] = max(requests) / max(np.mean(requests), 1e-12)
        rep.counts["shm.segments_leaked"] = float(leaked)
        rep.failures += check_fleet(int(rep.counts["engine.requests"]), self.n, leaked)


class CampaignClosedLoop(Workload):
    name = "campaign_closed_loop"
    why = (
        "4-day closed loop on a ManualClock: deadline flushes of ~20 rows, challenger ramps, "
        "daily DRP refits, drift from day 2, day-ahead planning"
    )
    n_users = 5_000
    n_days = 4
    rows_per_flush = 20

    @property
    def gap_s(self) -> float:
        """Simulated interarrival gap: one simulated day per cohort."""
        return DAY_S / self.n

    @property
    def max_latency_ms(self) -> float:
        return self.rows_per_flush * self.gap_s * 1000.0

    def fit_model(self):
        return fit_drp(MODEL_SEED, SMALL_DRP)

    def draw_traffic(self) -> dict:
        return draw_days(self.traffic_seed, self.n, self.n_days, drift_day=2)

    def rep(self, tracer: Tracer | None = None) -> Rep:
        traffic = PreparedTraffic(self.days)
        clock = ManualClock()
        registry = self.registry()
        # batch 256 never fills between deadlines; the default cache
        # misses on every all-distinct arrival
        engine = ScoringEngine(
            registry,
            policy=GreedyROIPolicy(),
            batch_size=256,
            max_latency_ms=self.max_latency_ms,
            clock=clock,
        )
        # gated on revenue, the paper's target reward: on the default net
        # metric a refit that spends less and earns less can sit at 95% of
        # traffic without a verdict, which swung campaign revenue from 0.59k
        # to 0.77k between seeds (spread 0.10 over 20 seeds; 0.013 on revenue)
        promoter = AutoPromoter(registry, clock=clock, step_every_s=DAY_S / 4, metric="revenue")
        template = (traced_fit_class(DRPModel, tracer) if tracer else DRPModel)(
            random_state=MODEL_SEED, **SMALL_DRP
        )
        retrainer = Retrainer(
            registry, template=template, clock=clock, window=5_000, min_outcomes=500, every_n_days=1
        )
        replay = TrafficReplay(
            traffic,
            engine,
            interarrival_s=self.gap_s,
            promoter=promoter,
            retrainer=retrainer,
            paired_outcomes=True,
            random_state=self.outcome_seed,
        )
        rep = Rep(arrivals=self.arrivals)
        if tracer is not None:
            instrument(tracer, replay, engine, promoter=promoter, retrainer=retrainer)
        result, rep.wall = timed(
            lambda: replay.replay_days(
                self.n_days, self.n, budget_fraction=BUDGET_FRACTION, plan_budgets=True
            )
        )
        rep.revenue = result.total_incremental_revenue
        rep.oracle_revenue = float(sum(day.oracle_revenue for day in result.days))
        hist = engine.latency_hist.snapshot()
        rep.sim_latency = (hist.quantile(0.5) * 1000.0, hist.quantile(0.999) * 1000.0, hist.count)
        rep.counts.update(engine_counts(engine.stats))
        rep.counts.update(pacer_counts(result.days))
        rep.counts["promoter.promotions"] = float(
            sum(1 for event in promoter.events if event.kind == "promote")
        )
        rep.counts["retrainer.refits"] = float(retrainer.n_refits)
        rep.counts["retrainer.staged"] = float(retrainer.n_staged)
        cohorts = [self.days[day][0] for day in range(1, self.n_days + 1)]
        rep.failures += check_campaign(result, cohorts, traffic.emitted)
        rep.failures += check_latency(rep.sim_latency[1], self.max_latency_ms, hist.relative_error)
        return rep


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (DayDrpStream, DayRdrpHot, CampaignClosedLoop, DayRdrpFleet)
}
