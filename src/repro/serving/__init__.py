"""Online scoring and budget-paced allocation (the serving layer).

The offline pipeline — fit DRP/rDRP, solve C-BTAP with Algorithm 1 —
assumes the whole day's cohort is visible at once.  The platform the
paper deploys on does not work that way: users arrive one at a time
and the treat/skip decision happens *in-request*, under a budget that
has to survive until midnight.  This package is that online half:

* :class:`ModelRegistry` — versioned models with champion/challenger
  staged rollout, deterministic per-user traffic splitting, and a
  per-version :class:`OutcomeLedger` of realised online outcomes;
* :class:`AutoPromoter` — the lifecycle control loop: staged traffic
  ramp on a :class:`~repro.runtime.DeadlineLoop`, Welch significance
  gate over the per-version ledgers, auto-promote / kill / rollback;
* :class:`Retrainer` — closes the loop: drains realised outcomes into
  a rolling training window, refits a
  :class:`~repro.causal.base.TrainableModel` clone on a trigger policy
  (periodic / outcome-count / drift-score) and auto-stages the refit
  as a challenger for the promoter to ramp (see
  :mod:`repro.serving.retraining`);
* :class:`ScoringEngine` — micro-batching request scorer (one
  vectorised model call per flush) with an LRU score cache;
* :class:`ShardedScoringEngine` — the engine surface over N
  per-process shards on an execution backend's affinity lanes, with
  snapshot-merge fleet accounting; a fleet has no clock and serves the
  registry it was built with (see :mod:`repro.serving.sharding` and
  ``docs/SERVING.md``);
* :class:`BudgetPacer` — streaming C-BTAP admission via an adaptive
  score threshold solved exactly on a sliding traffic window (a sort
  and a cumulative sum), tracking a target pacing curve and optionally
  floored at the live ``roi*`` break-even;
* :class:`MultiDayPacer` — chains pacer days with under/over-spend
  carryover, so a campaign converges on its cumulative plan instead
  of leaking each day's residual at midnight;
* :class:`GreedyROIPolicy` / :class:`ConformalGatedPolicy` — pluggable
  decision scores (point estimate vs conformal lower bound);
* :class:`TrafficReplay` — stream :class:`~repro.ab.platform.Platform`
  cohorts through the stack and report throughput, spend trajectory,
  and incremental revenue against the offline greedy oracle; its
  multi-day mode exercises the cross-day carryover.

Execution concerns — on which workers a fleet's shards run, whose
clock a deadline reads — live in :mod:`repro.runtime`; every component
here takes a backend/clock rather than owning one.

Quickstart
----------
>>> from repro.serving import ModelRegistry, ScoringEngine, TrafficReplay
>>> registry = ModelRegistry()
>>> registry.register(fitted_model, promote=True)  # doctest: +SKIP
>>> engine = ScoringEngine(registry, batch_size=64)  # doctest: +SKIP
>>> replay = TrafficReplay(platform, engine)  # doctest: +SKIP
>>> result = replay.replay_day(10_000)  # doctest: +SKIP
>>> result.revenue_ratio  # online vs offline-oracle revenue  # doctest: +SKIP
"""

from repro.serving.engine import ScoringEngine
from repro.serving.pacing import BudgetPacer, DayPlan, EmpiricalCurve, MultiDayPacer
from repro.serving.policy import ConformalGatedPolicy, DecisionPolicy, GreedyROIPolicy
from repro.serving.promotion import AutoPromoter, PromotionEvent
from repro.serving.registry import ModelRegistry, ModelVersion, OutcomeLedger
from repro.serving.retraining import RetrainEvent, Retrainer
from repro.serving.sharding import ShardedScoringEngine
from repro.serving.simulator import MultiDayReplayResult, ReplayResult, TrafficReplay

__all__ = [
    "AutoPromoter",
    "BudgetPacer",
    "ConformalGatedPolicy",
    "DayPlan",
    "DecisionPolicy",
    "EmpiricalCurve",
    "GreedyROIPolicy",
    "ModelRegistry",
    "ModelVersion",
    "MultiDayPacer",
    "MultiDayReplayResult",
    "OutcomeLedger",
    "PromotionEvent",
    "ReplayResult",
    "RetrainEvent",
    "Retrainer",
    "ScoringEngine",
    "ShardedScoringEngine",
    "TrafficReplay",
]
