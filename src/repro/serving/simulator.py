"""Replay platform traffic through the online serving stack.

:class:`TrafficReplay` is the end-to-end harness tying the subsystem
together: a :class:`~repro.ab.platform.Platform` cohort is streamed
event-by-event (random arrival order), every arrival is scored through
the :class:`~repro.serving.engine.ScoringEngine`'s micro-batching path,
and the :class:`~repro.serving.pacing.BudgetPacer` decides treat/skip
as scores become available.  The result reports throughput, the spend
trajectory against the pacing curve, and — the number that matters —
incremental revenue relative to the *offline greedy oracle*: Algorithm
1 run on the same scores with the whole day visible at once.  An
online policy can at best match the oracle; the replay quantifies the
price of streaming.

Decisions are made in runs and blocks.  Arrivals reach the engine as
runs (``submit_batch``): chunks of its ``batch_size``, or, for a replay
that acts between arrivals (simulated time, a promoter or a
retrainer), the arrivals before the next event, each with its own
arrival stamp; an arrival at an event takes the per-arrival step
(see :class:`TrafficReplay`).  Each ready run of scores comes back
through ``take_block`` and is paced by one ``offer_batch`` call, given
one outcome draw for the run: what each arrival would realise if
treated, which the pacer feeds back to itself after each threshold
prefix.  Then each decided row's outcome reaches the promoter and the
retrainer through one ``observe`` each, in row order — the same
decisions, spend trajectory, outcome stream, lifecycle events and
latencies as one ``submit``, ``take``, ``offer``, draw and ``observe``
per arrival.

Two runtime-layer features thread through the replay:

* **Simulated time** — when the engine carries a
  :class:`~repro.runtime.ManualClock` and ``interarrival_s`` is set,
  the replay advances the clock by that gap before each arrival, so
  deadline-driven flushing (``max_latency_ms``) runs under exact,
  deterministic time and the engine's ``latency_hist`` records the
  true submit→score waits.
* **Multi-day campaigns** — :meth:`TrafficReplay.replay_days` chains
  days through a :class:`~repro.serving.pacing.MultiDayPacer`, so day
  *d*'s under-spend tilts day *d+1*'s pacing, and returns the
  campaign-level accounting alongside each day's
  :class:`ReplayResult`.
* **Challenger lifecycle** — given an :class:`~repro.serving.promotion
  .AutoPromoter`, every decided arrival's realised outcome is
  attributed to the registry version whose score drove the decision
  (:meth:`ScoringEngine.version_of`) and fed to the promoter, and the
  promoter is polled at every arrival its poll could act at, so its
  ramp deadlines fire on schedule under the replay's clock.  A
  multi-day campaign then runs
  the full promote-or-kill lifecycle end-to-end: ramp, significance
  verdict, post-promotion hold.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.ab.platform import Platform
from repro.core.allocation import greedy_allocation
from repro.obs import NULL_REGISTRY, HistogramSnapshot
from repro.runtime import ManualClock
from repro.runtime.clock import DUE_SLACK
from repro.serving.engine import ScoringEngine
from repro.serving.pacing import BudgetPacer, MultiDayPacer
from repro.serving.promotion import AutoPromoter
from repro.serving.retraining import Retrainer
from repro.serving.sharding import ShardedScoringEngine
from repro.utils.rng import as_generator

__all__ = ["MultiDayReplayResult", "TrafficReplay", "ReplayResult"]


@dataclass
class ReplayResult:
    """Outcome of one replayed day.

    ``spend_trajectory[i]`` is cumulative spend after the i-th decision
    — plotted against ``budget * curve(i / n_events)`` it shows how
    tightly the pacer tracked its target.  ``oracle_*`` fields hold the
    offline greedy solution on identical scores; ``revenue_ratio`` is
    online / oracle incremental revenue (1.0 = no price of streaming).
    ``engine_stats``, ``latency_hist`` and ``metrics_delta`` cover
    *this replay only* (an engine reused across days reports per-day
    deltas, not cumulative counters).  ``latency_hist`` is the delta of
    the engine's latency sketch: its count and quantiles cover every
    request of the replay, while ``min``/``max`` are the engine's
    lifetime extremes (see :meth:`HistogramSnapshot.delta`).
    """

    n_events: int
    n_treated: int
    budget: float
    spend: float
    incremental_revenue: float
    oracle_n_treated: int
    oracle_spend: float
    oracle_revenue: float
    elapsed_seconds: float
    events_per_second: float
    spend_trajectory: np.ndarray
    treated: np.ndarray
    engine_stats: dict = field(default_factory=dict)
    pacing_history: list = field(default_factory=list)
    latency_hist: HistogramSnapshot | None = None
    metrics_delta: dict | None = None

    @property
    def revenue_ratio(self) -> float:
        """Online incremental revenue as a fraction of the oracle's."""
        return self.incremental_revenue / max(self.oracle_revenue, 1e-12)

    def latency_quantile(self, q: float) -> float:
        """Submit→score latency quantile in clock seconds (needs a
        clocked engine; see :class:`~repro.serving.engine.ScoringEngine`).

        Served from :attr:`latency_hist` (~1% relative error, sees every
        request of the replay).
        """
        if self.latency_hist is None or self.latency_hist.count == 0:
            raise ValueError("no latencies recorded — run with a clocked engine")
        return self.latency_hist.quantile(q)

    def summary(self) -> dict:
        """Headline numbers for logs and examples."""
        return {
            "n_events": self.n_events,
            "n_treated": self.n_treated,
            "spend": round(self.spend, 2),
            "budget": round(self.budget, 2),
            "incremental_revenue": round(self.incremental_revenue, 2),
            "oracle_revenue": round(self.oracle_revenue, 2),
            "revenue_ratio": round(self.revenue_ratio, 4),
            "events_per_second": round(self.events_per_second, 1),
        }


@dataclass
class MultiDayReplayResult:
    """A multi-day campaign replayed with cross-day budget carryover.

    ``days[d]`` is an ordinary per-day :class:`ReplayResult` whose
    ``budget`` already includes the carry rolled in from day ``d``'s
    predecessors; ``ledger`` mirrors
    :attr:`~repro.serving.pacing.MultiDayPacer.ledger` — one
    ``(base_budget, day_budget, spent, carry_out)`` row per day.
    """

    days: list[ReplayResult] = field(default_factory=list)
    ledger: list = field(default_factory=list)

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def total_base_budget(self) -> float:
        """The campaign plan: sum of per-day base allowances."""
        return float(sum(base for base, _b, _s, _c in self.ledger))

    @property
    def total_spend(self) -> float:
        """Realised campaign spend (``<= total_base_budget`` always)."""
        return float(sum(day.spend for day in self.days))

    @property
    def total_incremental_revenue(self) -> float:
        return float(sum(day.incremental_revenue for day in self.days))

    @property
    def carryovers(self) -> list[float]:
        """Residual rolled out of each day into the next."""
        return [carry for _base, _b, _s, carry in self.ledger]

    def summary(self) -> dict:
        return {
            "n_days": self.n_days,
            "total_spend": round(self.total_spend, 2),
            "total_base_budget": round(self.total_base_budget, 2),
            "total_incremental_revenue": round(self.total_incremental_revenue, 2),
            "carryovers": [round(c, 2) for c in self.carryovers],
        }


class TrafficReplay:
    """Stream platform cohorts through the engine + pacer in arrival order.

    The replay decides in runs.  Without simulated time, a promoter or
    a retrainer, a run is a chunk of ``engine.batch_size`` arrivals.
    Otherwise a run holds the arrivals before the next event: the
    earliest engine flush, ramp or refit deadline due at an arrival on
    the replay's :class:`~repro.runtime.ManualClock` (within its 1 ns
    slack), or the room the waiting arrivals leave in the engine's
    batch (a run may end on the row that fills it).  It goes to the
    engine as one ``submit_batch`` with each row's arrival stamp.  A
    run starts only behind a pending queue head, since a cache hit at
    an empty head is decided at its arrival, and after a poll that
    fired or moved ``registry.revision``, or a drain that decided
    something, the next arrival takes the per-arrival step: clock,
    polls, ``submit``, drain.  Between two arrivals of a run nothing
    fires and nothing is decided, so decisions, event times and
    latencies are those of that step at every arrival.  A decided run
    is attributed row by row: :meth:`AutoPromoter.observe`, then
    :meth:`Retrainer.observe`, for each row in arrival order, so which
    rows act (a gate check, a trigger, a staging) is decided inside
    those methods alone.  Without simulated time the promoter and
    retrainer are polled once per run, so a wall-time ramp step fires
    at most one engine batch late.

    A decided run is paced in one :meth:`BudgetPacer.offer_batch`
    call.  Its outcomes come from one ``(n, 2)`` draw (the stream of
    ``n`` ``random(2)`` calls): with ``feedback`` on, the pacer gets
    them as ``if_treated`` and stores each threshold prefix's outcomes
    before its next refresh.  The run's rows reach the engine as one
    gather, ``cohort.x[chunk]``, which relies on the platform's
    contract that :meth:`~repro.ab.platform.Platform.iter_events`
    yields ``cohort.x[i]`` as the row of arrival ``i``.

    Parameters
    ----------
    platform:
        The simulated traffic source.
    engine:
        A configured :class:`ScoringEngine` (its registry's champion —
        and challenger, if staged — serve the scores).  Give it a
        :class:`~repro.runtime.ManualClock` and ``max_latency_ms`` to
        exercise deadline flushing under simulated time.  A
        :class:`~repro.serving.sharding.ShardedScoringEngine` serves a
        fixed registry, so it takes no ``promoter`` or ``retrainer``.
    feedback:
        When True, realised outcomes of decided users are fed back to
        the pacer (``offer_batch``'s ``if_treated``), enabling its
        ``roi*`` profitability floor.
    interarrival_s:
        Simulated gap between consecutive arrivals (finite, >= 0).
        Requires the engine's clock to be a :class:`~repro.runtime
        .ManualClock`; the replay advances it by this gap before each
        submit.
    promoter:
        An :class:`~repro.serving.promotion.AutoPromoter` operating the
        engine's registry.  Every decided arrival's realised outcome is
        attributed to the version that scored it and fed to
        :meth:`AutoPromoter.observe`; the promoter is polled
        at each arrival where a poll could act, so its ramp schedule
        runs on the replay's simulated time exactly (on wall time it is
        polled once per run).  Outcome realisation shares the feedback
        draws, so adding a promoter does not perturb the pacer's
        ``roi*`` stream.
    retrainer:
        A :class:`~repro.serving.retraining.Retrainer` closing the
        loop: every decided arrival's feature row and realised outcome
        go to :meth:`Retrainer.observe`, and the retrainer is polled
        like the promoter, so its periodic trigger
        runs on the replay's clock.  Refits stage themselves into the
        engine's registry, where the ``promoter`` (if any) ramps them.
    paired_outcomes:
        When True, the per-user outcome uniforms are drawn as one
        cohort-indexed block up front instead of sequentially per
        decision.  User ``i`` then realises the same ``(y_r, y_c)``
        draws whatever order decisions happen in — the common-random-
        numbers hook that makes two replays with identically-seeded
        platforms *paired* even when their policies admit different
        users (the same coupling
        :meth:`~repro.ab.platform.Platform.realize_arms` uses).
        Default False preserves the bit-identical legacy sequential
        stream.
    random_state:
        Seed/generator for realising feedback/promotion outcomes.
    """

    def __init__(
        self,
        platform: Platform,
        engine: ScoringEngine,
        feedback: bool = False,
        interarrival_s: float | None = None,
        promoter: AutoPromoter | None = None,
        retrainer: Retrainer | None = None,
        paired_outcomes: bool = False,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if interarrival_s is not None:
            if not 0 <= interarrival_s < np.inf:  # refuses NaN too
                raise ValueError(f"interarrival_s must be finite and >= 0, got {interarrival_s}")
            if not isinstance(engine.clock, ManualClock):
                raise ValueError(
                    "interarrival_s needs an engine with a ManualClock "
                    "(simulated time cannot advance a system clock)"
                )
        if isinstance(engine, ShardedScoringEngine) and (promoter is not None or retrainer is not None):
            raise ValueError(
                "a ShardedScoringEngine serves the registry it was built with — "
                "a promoter or retrainer moving it would stop the fleet at its "
                "first lifecycle change"
            )
        if promoter is not None and promoter.registry is not engine.registry:
            raise ValueError(
                "promoter must operate the engine's registry — attributing "
                "outcomes across two registries would corrupt both ledgers"
            )
        if (
            promoter is not None
            and interarrival_s is not None
            and promoter.clock is not engine.clock
        ):
            raise ValueError(
                "promoter must share the engine's ManualClock when replaying "
                "on simulated time — on its own clock the ramp schedule "
                "would silently run on wall time instead"
            )
        if retrainer is not None and retrainer.registry is not engine.registry:
            raise ValueError(
                "retrainer must stage into the engine's registry — refits "
                "registered elsewhere would never serve traffic"
            )
        if (
            retrainer is not None
            and interarrival_s is not None
            and retrainer.clock is not engine.clock
        ):
            raise ValueError(
                "retrainer must share the engine's ManualClock when replaying "
                "on simulated time — on its own clock the periodic trigger "
                "would silently run on wall time instead"
            )
        self.platform = platform
        self.engine = engine
        self.feedback = bool(feedback)
        self.interarrival_s = interarrival_s
        self.promoter = promoter
        self.retrainer = retrainer
        self.paired_outcomes = bool(paired_outcomes)
        self._rng = as_generator(random_state)

    def replay_day(
        self,
        n_users: int,
        day: int = 1,
        budget: float | None = None,
        budget_fraction: float = 0.3,
        pacer: BudgetPacer | None = None,
        pacer_params: dict | None = None,
    ) -> ReplayResult:
        """Stream one day's cohort and return the full accounting.

        Parameters
        ----------
        n_users:
            Cohort size (the day's traffic volume).
        day:
            1-based day index (drives the platform's day-of-week wobble).
        budget:
            Absolute budget; defaults to ``budget_fraction`` of the
            cohort's full-treatment expected cost (the A/B convention).
        pacer:
            Pre-built :class:`BudgetPacer` (its own budget wins); by
            default one is constructed from ``pacer_params``.
        """
        cohort = self.platform.daily_cohort(n_users, day)
        if budget is None:
            budget = budget_fraction * float(np.sum(cohort.tau_c))
        if pacer is None:
            pacer = BudgetPacer(budget, n_users, **(pacer_params or {}))
        else:
            budget = pacer.budget
        return self._stream_cohort(cohort, pacer, budget)

    def replay_days(
        self,
        n_days: int,
        n_users: int,
        budget_fraction: float = 0.3,
        daily_budget: float | None = None,
        pacer_params: dict | None = None,
        carryover: float = 1.0,
        carryover_mode: str = "spread",
        plan_budgets: bool = False,
    ) -> MultiDayReplayResult:
        """Stream a multi-day campaign with cross-day budget carryover.

        Each day's *base* allowance is ``daily_budget`` (or
        ``budget_fraction`` of that day's full-treatment expected
        cost); a :class:`~repro.serving.pacing.MultiDayPacer` rolls
        every day's residual into the next day's pacing, so the
        campaign spend converges on the cumulative plan while each
        day's pacer keeps its single-day invariants.

        ``plan_budgets=True`` switches days 2+ to *day-ahead planning*
        (:meth:`~repro.serving.pacing.MultiDayPacer.plan_next_day`):
        day ``d+1``'s base budget is ``budget_fraction`` of day ``d``'s
        observed offered cost, its horizon is day ``d``'s arrival
        count, and its pacing curve is day ``d``'s empirical demand
        shape — no oracle cohort sums, which is how a live system must
        budget.  Day 1 (no history yet) keeps the oracle sizing.
        """
        if n_days < 1:
            raise ValueError(f"n_days must be >= 1, got {n_days}")
        multi = MultiDayPacer(
            daily_budget=daily_budget,
            horizon=n_users,
            carryover=carryover,
            carryover_mode=carryover_mode,
            pacer_params=pacer_params,
        )
        result = MultiDayReplayResult()
        for day in range(1, n_days + 1):
            cohort = self.platform.daily_cohort(n_users, day)
            if plan_budgets and day > 1:
                plan = multi.plan_next_day(budget_fraction)
                pacer = multi.start_day(
                    plan.base_budget, plan.horizon, plan.target_curve
                )
            else:
                if daily_budget is None:
                    base = budget_fraction * float(np.sum(cohort.tau_c))
                else:
                    base = float(daily_budget)
                pacer = multi.start_day(base_budget=base)
            result.days.append(self._stream_cohort(cohort, pacer, pacer.budget))
            multi.end_day()
        result.ledger = list(multi.ledger)
        return result

    def _stream_cohort(self, cohort, pacer: BudgetPacer, budget: float) -> ReplayResult:
        """The shared streaming core: score every arrival, pace every spend.

        Used by :meth:`replay_day` (one pacer, one day) and
        :meth:`replay_days` (each day's pacer handed in by the
        :class:`MultiDayPacer`); the cohort already carries its
        day-of-week effects, so no day index is needed here.
        """
        engine, promoter, retrainer = self.engine, self.promoter, self.retrainer
        scores = np.full(cohort.n, np.nan)
        treated = np.zeros(cohort.n, dtype=bool)
        trajectory = np.zeros(cohort.n)
        n_decided = 0
        stats_before = dict(engine.stats)  # engines may serve many days
        # only a clocked engine records latencies (a fleet has no sketch)
        hist_before = engine.latency_hist.snapshot() if engine.clock is not None else None
        instrumented = engine.metrics is not NULL_REGISTRY
        metrics_before = engine.metrics.snapshot() if instrumented else None
        # submitted, undecided arrivals in arrival order
        wait_rids: list[int] = []
        wait_idx: list[int] = []
        realise = self.feedback or promoter is not None or retrainer is not None
        # paired mode: one cohort-indexed uniform block, so user i's
        # draws are independent of decision order (CRN across replays)
        uniforms = self._rng.random((cohort.n, 2)) if self.paired_outcomes else None
        effects = np.column_stack((cohort.tau_r, cohort.tau_c)) if realise else None

        def attribute(block: np.ndarray, versions: list | None, admits, y_r, y_c) -> None:
            """Feed one decided run's outcomes to the promoter and the
            retrainer: one ``observe`` each per row, in row order."""
            x = cohort.x[block] if retrainer is not None else None
            for j, (flag, r, c) in enumerate(zip(admits.tolist(), y_r.tolist(), y_c.tolist())):
                if promoter is not None:
                    promoter.observe(versions[j], flag, r, c)
                if retrainer is not None:
                    retrainer.observe(x[j], flag, r, c)

        def decide(idx: np.ndarray, run: np.ndarray, versions: list | None) -> None:
            """Pace one run of scored arrivals in one ``offer_batch``
            call, which feeds the run's outcomes back as it goes."""
            nonlocal n_decided
            m = idx.shape[0]
            scores[idx] = run
            costs = cohort.tau_c[idx]
            if_treated = None
            if realise:
                # realised Bernoulli incremental outcomes if treated;
                # skipped users realise none, mirroring
                # Platform.realize_arm.  One (m, 2) draw is the stream
                # of m random(2) calls
                draws = uniforms[idx] if uniforms is not None else self._rng.random((m, 2))
                if_treated = (draws < effects[idx]).astype(float)
            before = pacer.spent
            admits = pacer.offer_batch(run, costs, if_treated if self.feedback else None)
            treated[idx] = admits
            # the pacer's own running sum, one addition per admit
            trajectory[n_decided : n_decided + m] = np.cumsum(
                np.concatenate(([before], np.where(admits, costs, 0.0)))
            )[1:]
            n_decided += m
            if promoter is not None or retrainer is not None:
                # the promoter and retrainer read no pacer state, and the
                # pacer none of theirs: the run's outcomes go in one pass
                outcomes = np.where(admits[:, None], if_treated, 0.0)
                attribute(idx, versions, admits, outcomes[:, 0], outcomes[:, 1])

        def drain(force: bool = False) -> bool:
            """Decide the ready prefix of the waiting arrivals; True when
            it decided any."""
            if force:
                engine.flush()
                engine.join()
            k = 0
            for rid in wait_rids:
                if not engine.has_result(rid):
                    break
                k += 1
            if not k:
                return False
            ready = wait_rids[:k]
            # which version's score drives each decision (read before
            # take_block() releases the attribution)
            versions = [engine.version_of(rid) for rid in ready] if promoter is not None else None
            run = engine.take_block(ready)
            idx = np.array(wait_idx[:k])
            del wait_rids[:k], wait_idx[:k]
            decide(idx, run, versions)
            return True

        clock = engine.clock if self.interarrival_s is not None else None
        gap = self.interarrival_s
        registry = engine.registry
        # acting between arrivals: simulated time, ramp or refit polls
        acting = clock is not None or promoter is not None or retrainer is not None
        owners = [owner for owner in (engine, promoter, retrainer) if owner is not None]

        def poll_lifecycle() -> bool:
            """Fire due ramp steps and refit triggers (and the auto-start
            and staging polls make); True when any deadline fired."""
            fired = 0
            if promoter is not None:
                fired += promoter.poll()
            if retrainer is not None:
                fired += retrainer.poll()
            return fired > 0

        def step(i: int, x_row: np.ndarray) -> bool:
            """One arrival the per-arrival way: advance the clock (firing
            a flush deadline inside the gap at the deadline), poll, submit,
            decide what is ready.  True when the next arrival must take a
            step too: a poll fired or moved the registry, or a decision
            came after the polls."""
            if clock is not None:
                # a flush deadline inside this inter-arrival gap must
                # fire *at* the deadline, not when the next arrival
                # happens to look — stop the clock there and poll, so
                # the latency bound is exact for any gap size
                target = clock.now() + gap
                due = engine.next_deadline()
                if due is not None and due < target:
                    clock.advance(max(0.0, due - clock.now()))
                    engine.poll()
                    drain()
                clock.advance(max(0.0, target - clock.now()))
            revision = registry.revision
            fired = poll_lifecycle()
            wait_rids.append(engine.submit(x_row))
            wait_idx.append(i)
            engine.poll()
            return drain() or fired or registry.revision != revision

        # decide in runs (the rules are in the class docstring); the
        # batch room counts every waiting arrival, a superset of the
        # pending ones, so a fleet's shards cannot fill inside a run
        stamps: list[float] = []  # the run's arrival times
        chunk: list[int] = []  # ... and cohort indices
        events = self.platform.iter_events(cohort)
        arrival = next(events, None)
        need_step = True
        # real wall time on purpose: replay *measures* achieved host
        # throughput; the simulated timeline stays on the injected clock
        start = time.perf_counter()  # repro: allow[RPR001]
        while arrival is not None:
            if acting and (need_step or not wait_rids):
                need_step = step(*arrival)
                arrival = next(events, None)
                continue
            room = engine.batch_size - len(wait_rids) if acting else engine.batch_size
            revision = registry.revision
            fired = False
            if clock is None:
                if acting:
                    fired = poll_lifecycle()  # on wall time, once per run
                # no event falls inside a clockless run, so it takes its room
                # at once (none when cache hits queue behind a pending head)
                if room > 0:
                    chunk.append(arrival[0])
                    chunk.extend(i for i, _row in itertools.islice(events, room - 1))
                    arrival = next(events, None)
            else:
                deadlines = [owner.next_deadline() for owner in owners]
                horizon = min((d for d in deadlines if d is not None), default=math.inf)
                now = clock.now()
                while arrival is not None and len(chunk) < room:
                    step_s = max(0.0, (now + gap) - now)  # the step's clock arithmetic
                    if horizon <= now + step_s + DUE_SLACK:
                        break
                    now = clock.advance(step_s)
                    stamps.append(now)
                    chunk.append(arrival[0])
                    arrival = next(events, None)
            if not chunk:
                need_step = True  # the next arrival is at an event
                continue
            # the row of arrival i is cohort.x[i] (Platform.iter_events),
            # so the run's rows are one gather
            run_x = cohort.x[chunk]
            # a fleet's submit_batch takes no stamps: it has no clock
            ids = engine.submit_batch(run_x) if clock is None else engine.submit_batch(run_x, stamps=stamps)
            wait_rids.extend(ids)
            wait_idx.extend(chunk)
            stamps.clear()
            chunk.clear()
            engine.poll()
            need_step = drain() or fired or registry.revision != revision
        drain(force=True)
        if promoter is not None:
            promoter.poll()  # day's end: fire any boundary that landed on it
        if retrainer is not None:
            retrainer.poll()
        elapsed = time.perf_counter() - start  # repro: allow[RPR001]

        if wait_rids or n_decided != cohort.n:
            raise RuntimeError(
                f"replay decided {n_decided}/{cohort.n} arrivals "
                f"({len(wait_rids)} still waiting) — the engine lost requests"
            )
        oracle = greedy_allocation(
            scores, cohort.tau_c, budget, rewards=cohort.tau_r
        )
        latency_hist = (
            self.engine.latency_hist.snapshot().delta(hist_before)
            if self.engine.clock is not None
            else None
        )
        metrics_delta = (
            self.engine.metrics.snapshot().delta(metrics_before).to_dict()
            if instrumented
            else None
        )
        return ReplayResult(
            n_events=cohort.n,
            n_treated=int(np.sum(treated)),
            budget=float(budget),
            spend=float(pacer.spent),
            incremental_revenue=float(np.sum(cohort.tau_r[treated])),
            oracle_n_treated=oracle.n_selected,
            oracle_spend=oracle.total_cost,
            oracle_revenue=oracle.total_reward,
            elapsed_seconds=elapsed,
            events_per_second=cohort.n / max(elapsed, 1e-12),
            spend_trajectory=trajectory,
            treated=treated,
            engine_stats={
                k: v - stats_before.get(k, 0) for k, v in self.engine.stats.items()
            },
            pacing_history=list(pacer.history),
            latency_hist=latency_hist,
            metrics_delta=metrics_delta,
        )
