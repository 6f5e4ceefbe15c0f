"""Challenger auto-promotion: the registry lifecycle driven by online evidence.

A freshly calibrated ROI model must *earn* its way to champion on live
traffic, not be swapped in blindly.  :class:`AutoPromoter` is the
control loop that makes the :class:`~repro.serving.registry
.ModelRegistry` operate itself:

1. **Staged rollout ramp** — when a challenger is staged, its
   ``traffic_split`` walks a configurable ramp (default 1% → 5% → 25%
   → 95%), advanced on a :class:`~repro.runtime.DeadlineLoop` under
   any :class:`~repro.runtime.Clock`.  Under a
   :class:`~repro.runtime.ManualClock` the schedule is exact, so tests
   pin precisely which arrival sees each split.  The default final
   step keeps a 5% champion *holdback* rather than going to 100%: at
   a full split the baseline arm stops accruing outcomes, so the gate
   would be comparing a live challenger window against a frozen
   snapshot — under intra-day drift that manufactures spurious
   verdicts.  A ramp ending at 1.0 is allowed, but loses the
   concurrent control arm from that step on.
2. **Significance gating** — realised per-version outcomes (treated /
   spend / incremental revenue, attributed via the engine's
   ``version_of`` and the registry's per-version
   :class:`~repro.serving.registry.OutcomeLedger`) feed a Welch
   two-sample t-interval (:func:`repro.utils.stats
   .welch_ci_from_moments`).  Champion and challenger serve *disjoint*
   keyed user slices, so the paired per-day interval of
   :meth:`~repro.ab.replay.PolicyReplay.delta_ci` does not apply — the
   unpaired Welch variant on the two arms' streaming moments does.
3. **Lifecycle actions** — the challenger auto-``promote()``s once its
   uplift delta is significantly positive at the configured level,
   auto-``demote()``s (is killed) on significant degradation during
   the ramp, and a *promoted* challenger that then degrades
   significantly below the displaced champion's frozen baseline is
   auto-``rollback()``ed during the post-promotion hold window.

The evaluation cadence is every ``check_every`` observations plus
every ramp boundary.  Repeated peeking at a fixed level inflates the
false-promotion rate above ``1 - level`` (no alpha-spending here);
``min_decided`` and a conservative default level keep it small, and
the false-promotion test pins the realised rate under the default
configuration.

Typical wiring — :class:`~repro.serving.simulator.TrafficReplay` does
all of this when given a ``promoter``::

    registry = ModelRegistry(random_state=0)
    registry.register(current_model, promote=True)
    registry.register(candidate)                 # staged challenger
    promoter = AutoPromoter(registry, clock=clock)
    # per decided request:
    vid = engine.version_of(rid); score = engine.take(rid)
    ...decide, realise (y_r, y_c)...
    promoter.observe(vid, treated, y_r, y_c)
    promoter.poll()                              # fire due ramp steps
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.runtime import Clock, DeadlineLoop, SystemClock
from repro.serving.registry import ModelRegistry
from repro.utils.stats import MeanCI, welch_ci_from_moments

__all__ = ["AutoPromoter", "PromotionEvent"]

IDLE = "idle"
RAMPING = "ramping"
HOLDING = "holding"

#: every PromotionEvent.kind the promoter can emit — the per-kind event
#: counters are pre-adopted from this set so the lifecycle path never
#: touches the metrics registry (the obs hot-path contract, RPR005)
EVENT_KINDS = ("start", "ramp", "promote", "kill", "confirm", "rollback", "abort")


@dataclass(frozen=True)
class PromotionEvent:
    """One lifecycle action taken (or observed) by the promoter.

    ``kind`` is one of ``"start"`` (ramp opened), ``"ramp"`` (split
    advanced), ``"promote"``, ``"kill"`` (challenger demoted),
    ``"confirm"`` (post-promotion hold passed), ``"rollback"``, or
    ``"abort"`` (the watched experiment was invalidated externally).
    ``ci`` carries the Welch interval that triggered a verdict, when
    one did.
    """

    at: float
    kind: str
    version: int
    traffic_split: float
    ci: MeanCI | None = None


class AutoPromoter:
    """Drive a registry's champion/challenger lifecycle from online metrics.

    Parameters
    ----------
    registry:
        The registry to operate.  The promoter owns its
        ``traffic_split`` while an experiment runs (and parks it at 0
        between experiments).
    clock:
        Time source for the ramp schedule; defaults to
        :class:`~repro.runtime.SystemClock`.  Pass the engine's
        :class:`~repro.runtime.ManualClock` to pin schedules in tests.
    ramp:
        Increasing challenger traffic fractions in ``(0, 1]``; the
        rollout starts at ``ramp[0]`` and advances one step per
        ``step_every_s`` until the last (where it parks until the
        significance gate decides).  The default ends at 0.95 — a 5%
        champion holdback keeps both arms accruing concurrent
        outcomes, which the Welch comparison needs (see the module
        docstring before ramping to 1.0).
    step_every_s:
        Seconds between ramp advances (e.g. one simulated day).
    level:
        Confidence level of the Welch gate; promotion requires the
        delta interval's *lower* bound above zero, kill/rollback its
        *upper* bound below zero.
    metric:
        Per-request ledger metric the arms are compared on: ``"net"``
        (realised incremental revenue minus cost, default) or
        ``"revenue"``.
    min_decided:
        Decided requests required on **each** arm before any verdict —
        a significance call on a handful of outcomes is noise.
    check_every:
        Evaluate the gate every this many observations (plus at every
        ramp boundary).
    hold_decided:
        Post-promotion: decided requests the new champion must
        accumulate, without significant degradation below the displaced
        champion's frozen baseline, to confirm the promotion; reaching
        it ends the hold, significant degradation before it triggers
        :meth:`~repro.serving.registry.ModelRegistry.rollback`.
    auto_start:
        When True (default), :meth:`poll` / :meth:`observe` open the
        ramp by themselves whenever the registry has a challenger
        staged and no experiment is running.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` recording the lifecycle:
        one counter per event kind (``promoter.start`` /
        ``promoter.ramp`` / ``promoter.promote`` / ``promoter.kill``
        / ``promoter.rollback`` / ``promoter.confirm`` /
        ``promoter.abort`` — ramp-stage transitions and gate verdicts),
        counter ``promoter.observations``, and gauges
        ``promoter.traffic_split`` / ``promoter.ramp_stage``.  ``None``
        (default) records nothing; :attr:`events` is always kept.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        clock: Clock | None = None,
        ramp: Sequence[float] = (0.01, 0.05, 0.25, 0.95),
        step_every_s: float = 86_400.0,
        level: float = 0.95,
        metric: str = "net",
        min_decided: int = 200,
        check_every: int = 100,
        hold_decided: int = 2_000,
        auto_start: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        ramp = tuple(float(f) for f in ramp)
        if not ramp:
            raise ValueError("ramp must have at least one step")
        if not all(0.0 < f <= 1.0 for f in ramp):
            raise ValueError(f"ramp fractions must be in (0, 1], got {ramp}")
        if not all(a < b for a, b in zip(ramp, ramp[1:])):
            raise ValueError(f"ramp must be strictly increasing, got {ramp}")
        if not step_every_s > 0:
            raise ValueError(f"step_every_s must be > 0, got {step_every_s}")
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        if metric not in ("net", "revenue"):
            raise ValueError(f"metric must be 'net' or 'revenue', got {metric!r}")
        if min_decided < 2:
            raise ValueError(f"min_decided must be >= 2, got {min_decided}")
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        if hold_decided < 2:
            raise ValueError(f"hold_decided must be >= 2, got {hold_decided}")
        if hold_decided < min_decided:
            # else the hold could confirm before the rollback gate ever
            # evaluates once (evaluate() is None below min_decided)
            raise ValueError(
                f"hold_decided must be >= min_decided ({min_decided}), "
                f"got {hold_decided}"
            )
        self.registry = registry
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.ramp = ramp
        self.step_every_s = float(step_every_s)
        self.level = float(level)
        self.metric = metric
        self.min_decided = int(min_decided)
        self.check_every = int(check_every)
        self.hold_decided = int(hold_decided)
        self.auto_start = bool(auto_start)

        self._loop = DeadlineLoop(self.clock, self._advance_ramp)
        self._state = IDLE
        self._ramp_idx = 0
        self._next_ramp_at: float | None = None  # absolute boundary time
        self._watching: int | None = None  # challenger under ramp / champion on hold
        self._baseline: int | None = None  # champion under ramp / displaced on hold
        self._baseline_moments: tuple[float, float, int] | None = None  # hold only
        self._since_check = 0
        #: every lifecycle action, in order (the audit trail)
        self.events: list[PromotionEvent] = []
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_observations = self.metrics.counter("promoter.observations")
        self._g_split = self.metrics.gauge("promoter.traffic_split")
        self._g_stage = self.metrics.gauge("promoter.ramp_stage")
        self._c_events = {
            kind: self.metrics.counter(f"promoter.{kind}")
            for kind in EVENT_KINDS
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``"idle"``, ``"ramping"`` or ``"holding"``."""
        return self._state

    @property
    def watching(self) -> int | None:
        """Version under evaluation: the ramping challenger, or the
        freshly promoted champion during its hold window."""
        return self._watching

    def next_deadline(self) -> float | None:
        """Clock time of the pending ramp advance, or None."""
        return self._loop.next_deadline()

    def _event(self, kind: str, version: int, ci: MeanCI | None = None) -> None:
        self.events.append(
            PromotionEvent(
                at=self.clock.now(),
                kind=kind,
                version=version,
                traffic_split=self.registry.traffic_split,
                ci=ci,
            )
        )
        self._c_events[kind].inc()
        self._g_split.set(self.registry.traffic_split)
        self._g_stage.set(self._ramp_idx)

    # ------------------------------------------------------------------
    # lifecycle drive
    # ------------------------------------------------------------------
    def start(self) -> bool:
        """Open the rollout ramp for the staged challenger.

        Resets both arms' outcome ledgers (the comparison windows must
        be concurrent), sets ``traffic_split = ramp[0]`` and schedules
        the first advance.  Returns False (no-op) when no challenger is
        staged or an experiment is already running.
        """
        challenger = self.registry.challenger
        if challenger is None or self._state != IDLE:
            return False
        champion = self.registry.champion
        challenger.ledger.reset()
        champion.ledger.reset()
        self._watching = challenger.version
        self._baseline = champion.version
        self._baseline_moments = None
        self._ramp_idx = 0
        self._since_check = 0
        self._state = RAMPING
        self.registry.traffic_split = self.ramp[0]
        if len(self.ramp) > 1:
            self._next_ramp_at = self.clock.now() + self.step_every_s
            self._loop.schedule(self._next_ramp_at)
        self._event("start", challenger.version)
        return True

    def observe(self, version: int, treated: bool, y_r: float, y_c: float) -> None:
        """Record one decided request's realised outcome and, every
        ``check_every`` observations, run the significance gate.  A
        non-finite ``y_r`` or ``y_c`` raises ValueError, and a version
        the registry does not hold raises KeyError, before anything
        moves (in a ledger a non-finite outcome would fail every later
        gate check)."""
        y_r, y_c = float(y_r), float(y_c)
        if not (math.isfinite(y_r) and math.isfinite(y_c)):
            raise ValueError(f"y_r and y_c must be finite, got {y_r} and {y_c}")
        ledger = self.registry.get(version).ledger
        if self._state == IDLE and self.auto_start:
            # start (and reset the ledgers) *before* recording, so the
            # observation that opens the experiment is not discarded by
            # the reset one line later
            self.start()
        self._c_observations.inc()
        ledger.record(bool(treated), y_r, y_c)
        if self._state == IDLE:
            return
        self._since_check += 1
        if self._since_check >= self.check_every:
            self._since_check = 0
            self._check()

    def poll(self) -> int:
        """Advance the promoter without an observation: abort an
        invalidated experiment, auto-start a fresh challenger, and fire
        any due ramp advance.  Returns the number of deadline callbacks
        fired; the replay polls at each arrival that may change
        something, and at none in between."""
        self._abort_if_invalidated()
        if self._state == IDLE and self.auto_start:
            self.start()
        return self._loop.poll()

    # ------------------------------------------------------------------
    # the significance gate
    # ------------------------------------------------------------------
    def evaluate(self) -> MeanCI | None:
        """Welch interval for (watched − baseline) mean per-request
        outcome, or None while either arm is under ``min_decided``."""
        if self._state == IDLE or self._watching is None:
            return None
        watched = self.registry.get(self._watching).ledger.moments(self.metric)
        if self._state == HOLDING:
            baseline = self._baseline_moments
        else:
            baseline = self.registry.get(self._baseline).ledger.moments(self.metric)
        if baseline is None:
            return None
        if watched[2] < self.min_decided or baseline[2] < self.min_decided:
            return None
        return welch_ci_from_moments(*watched, *baseline, level=self.level)

    def _check(self) -> None:
        """Evaluate and act: promote / kill during the ramp, confirm /
        roll back during the hold."""
        self._abort_if_invalidated()
        if self._state == RAMPING:
            ci = self.evaluate()
            if ci is None:
                return
            if ci.lo > 0.0:
                self._promote(ci)
            elif ci.hi < 0.0:
                self._kill(ci)
        elif self._state == HOLDING:
            ci = self.evaluate()
            if ci is not None and ci.hi < 0.0:
                self._rollback(ci)
            elif self.registry.get(self._watching).ledger.n >= self.hold_decided:
                self._confirm(ci)

    def _abort_if_invalidated(self) -> None:
        """Registry surgery behind our back (hotfix register, manual
        promote/rollback) ends the running experiment."""
        if self._state == RAMPING:
            challenger = self.registry.challenger
            if (
                challenger is None
                or challenger.version != self._watching
                or self.registry.champion.version != self._baseline
            ):
                version = self._watching
                self._finish()
                self._event("abort", version)
        elif self._state == HOLDING:
            if self.registry.champion.version != self._watching:
                version = self._watching
                self._finish()
                self._event("abort", version)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _advance_ramp(self) -> None:
        if self._state != RAMPING:
            return
        # gate before widening exposure: a significantly worse
        # challenger is killed instead of ramped up
        self._check()
        if self._state != RAMPING:
            return
        if self._ramp_idx + 1 < len(self.ramp):
            self._ramp_idx += 1
            self.registry.traffic_split = self.ramp[self._ramp_idx]
            self._event("ramp", self._watching)
        if self._ramp_idx + 1 < len(self.ramp):
            # anchor on the *previous boundary*, not the fire time: a
            # poll arriving late must not push every later step out, or
            # sparse polling compounds into cumulative schedule drift
            self._next_ramp_at += self.step_every_s
            self._loop.schedule(self._next_ramp_at)

    def _promote(self, ci: MeanCI) -> None:
        promoted = self._watching
        displaced = self._baseline
        # freeze the displaced champion's window as the hold baseline,
        # then give the new champion a *fresh* window: degradation after
        # promotion must not be averaged away by its winning ramp data
        self._baseline_moments = self.registry.get(displaced).ledger.moments(self.metric)
        self.registry.promote(promoted)
        self.registry.get(promoted).ledger.reset()
        self.registry.traffic_split = 0.0
        self._loop.cancel()
        self._state = HOLDING
        self._baseline = displaced
        self._since_check = 0
        self._event("promote", promoted, ci)

    def _kill(self, ci: MeanCI) -> None:
        killed = self._watching
        self.registry.demote(killed)
        self._finish()
        self._event("kill", killed, ci)

    def _rollback(self, ci: MeanCI) -> None:
        bad = self._watching
        self.registry.rollback()
        self._finish()
        self._event("rollback", bad, ci)

    def _confirm(self, ci: MeanCI | None) -> None:
        confirmed = self._watching
        self._finish()
        self._event("confirm", confirmed, ci)

    def _finish(self) -> None:
        """Common experiment teardown: park the split, clear the watch."""
        self.registry.traffic_split = 0.0
        self._loop.cancel()
        self._next_ramp_at = None
        self._state = IDLE
        self._watching = None
        self._baseline = None
        self._baseline_moments = None
        self._since_check = 0
