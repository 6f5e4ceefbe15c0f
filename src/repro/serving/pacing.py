"""Streaming budget pacing: admit users online without exhausting B early.

Offline, Algorithm 1 sees the whole day at once — it sorts by ROI and
spends down the budget.  Online, users arrive one at a time and a
naive "treat while budget remains" policy exhausts B in the first hour
on mediocre users.  :class:`BudgetPacer` solves the streaming version
of C-BTAP with an *adaptive admission threshold*:

1. every arrival's ``(score, cost)`` lands in a sliding window — a
   live sample of the day's traffic distribution;
2. the pacer periodically derives the per-event spend rate that keeps
   cumulative spend on a target pacing curve (uniform by default), and
3. ranks the window by score, as Algorithm 1 ranks the day, and takes
   as threshold the lowest window score whose at-or-above entries cost
   at most that rate per window entry: one sort and one cumulative sum
   solve it exactly.

When realised outcomes are fed back via :meth:`observe_outcome`, the
pacer additionally computes the break-even ``roi*`` of recent traffic,
Algorithm 2's bisection (:func:`repro.core.roi_star.roi_star_from_uplift`)
on uplifts taken from one pass of window sums, and uses it as a
profitability floor under the pacing threshold — the paper's "treat
only when ROI clears roi*" rule, applied to the live stream.

Two invariants hold by construction: cumulative spend never exceeds
the budget, and never exceeds the pacing curve by more than
``curve_slack`` of the budget.

Days chain through :class:`MultiDayPacer`: each day is a plain
:class:`BudgetPacer` (both invariants intact), and the day's realised
under/over-spend rolls into the next day's budget — and, in ``"early"``
mode, tilts its pacing curve — so a multi-day campaign converges on
its cumulative plan instead of leaking every day's residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.roi_star import roi_star_from_uplift
# re-exported: perfbench's tracer wraps ``binary_search_roi_star`` under this module's name
from repro.core.roi_star import binary_search_roi_star as binary_search_roi_star
from repro.obs import NULL_REGISTRY, MetricsRegistry

__all__ = ["BudgetPacer", "DayPlan", "EmpiricalCurve", "MultiDayPacer"]


class EmpiricalCurve:
    """Monotone piecewise-linear spend curve fitted to observed demand.

    Built from a completed day's ``(n_seen, offered_cost)`` trace: the
    fraction of the day's total *offered* cost that had arrived by each
    fraction of its arrivals.  Used as the next day's ``target_curve``
    so the pacer releases budget when demand historically showed up
    instead of uniformly.  Plain object (not a closure) so planned
    pacers stay picklable.
    """

    def __init__(self, progress: np.ndarray, fraction: np.ndarray) -> None:
        progress = np.asarray(progress, dtype=float)
        fraction = np.asarray(fraction, dtype=float)
        if progress.shape != fraction.shape or progress.ndim != 1 or progress.size < 2:
            raise ValueError("progress and fraction must be equal-length 1-d, size >= 2")
        if progress[0] != 0.0 or progress[-1] != 1.0 or fraction[-1] != 1.0:
            raise ValueError("curve must span progress [0, 1] and end at fraction 1")
        if np.any(np.diff(progress) < 0) or np.any(np.diff(fraction) < 0):
            raise ValueError("curve knots must be non-decreasing")
        self.progress = progress
        self.fraction = fraction

    @classmethod
    def from_trace(
        cls, trace: list[tuple[int, float]], n_total: int, offered_total: float
    ) -> "EmpiricalCurve":
        """Build from a :attr:`BudgetPacer.offered_trace` of a finished day."""
        if n_total <= 0 or offered_total <= 0 or len(trace) < 1:
            raise ValueError("need a non-empty day (arrivals and offered cost > 0)")
        xs = [0.0] + [min(1.0, n / n_total) for n, _ in trace] + [1.0]
        ys = [0.0] + [min(1.0, c / offered_total) for _, c in trace] + [1.0]
        return cls(np.maximum.accumulate(xs), np.maximum.accumulate(ys))

    def __call__(self, progress: float) -> float:
        return float(np.interp(progress, self.progress, self.fraction))


@dataclass(frozen=True)
class DayPlan:
    """Day-ahead plan: the next day's pacer sizing, derived from the
    last observed day by :meth:`MultiDayPacer.plan_next_day`."""

    base_budget: float
    horizon: int
    target_curve: EmpiricalCurve | None = None


def _uniform_curve(progress: float) -> float:
    """Default pacing target: spend linearly across the day."""
    return progress


def _pace_threshold(scores: np.ndarray, costs: np.ndarray, limit: float) -> float:
    """The lowest window score whose at-or-above entries cost at most
    ``limit`` in total.

    One ascending sort ranks the scores, one cumulative sum adds their
    costs from the top score down, and one search counts the top
    entries that fit.  A tie group the limit splits does not fit, so
    the threshold steps past it.  If even the top group does not fit
    the threshold is ``max + 1e-9``; if everything fits it is the
    lowest score.  NaN scores sort last and are ranked nowhere: they
    never count as admitted, and a window without a ranked score gives
    ``-inf``.
    """
    order = np.argsort(scores)
    ranked = scores[order]
    k = ranked.shape[0]  # the ranked entries: all but the NaNs sorted last
    if np.isnan(ranked[-1]):
        k = int(np.searchsorted(ranked, np.nan))
        if k == 0:
            return -math.inf
    fits = int(np.searchsorted(np.cumsum(costs[order[k - 1 :: -1]]), limit, side="right"))
    if fits == k:
        return float(ranked[0])
    if fits == 0:
        return float(ranked[k - 1]) + 1e-9
    low = k - fits  # the lowest entry that fits
    if ranked[low - 1] < ranked[low]:
        return float(ranked[low])
    above = int(np.searchsorted(ranked, ranked[low], side="right"))
    return float(ranked[above]) if above < k else float(ranked[k - 1]) + 1e-9


class _Window:
    """The last ``size`` entries of a stream, one float array per field.

    Entries land in a preallocated ``(fields, 2 * size)`` buffer.  When
    the tail reaches its end the live entries move back to the front,
    which costs O(1) per entry amortised, so the live window is always
    one contiguous slice in arrival order: a refresh reads it as views,
    without converting anything.
    """

    __slots__ = ("size", "_buf", "_cols", "_start", "_stop")

    def __init__(self, size: int, width: int) -> None:
        self.size = size
        self._buf = np.empty((width, 2 * size))
        self._cols = list(self._buf)
        self._start = self._stop = 0

    def __len__(self) -> int:
        return self._stop - self._start

    def _make_room(self, m: int) -> None:
        """Move the entries that survive ``m`` more to the front, if
        the tail has no room for them."""
        if self._stop + m > self._buf.shape[1]:
            keep = min(self._stop - self._start, self.size - m)
            self._buf[:, :keep] = self._buf[:, self._stop - keep : self._stop]
            self._start, self._stop = 0, keep

    def append(self, *values: float) -> None:
        self._make_room(1)
        for col, value in zip(self._cols, values):
            col[self._stop] = value
        self._stop += 1
        self._start = max(self._start, self._stop - self.size)

    def extend(self, *columns: np.ndarray) -> None:
        """Append equal-length 1-d arrays, one per field; only the last
        ``size`` entries of a longer block survive."""
        m = min(columns[0].shape[0], self.size)
        self._make_room(m)
        for col, values in zip(self._cols, columns):
            col[self._stop : self._stop + m] = values[values.shape[0] - m :]
        self._stop += m
        self._start = max(self._start, self._stop - self.size)

    def view(self) -> np.ndarray:
        """The live window as one ``(fields, len)`` view: each field's
        row is contiguous."""
        return self._buf[:, self._start : self._stop]


class BudgetPacer:
    """Admit streaming users under a budget that must last the horizon.

    Parameters
    ----------
    budget:
        Total (expected-cost) budget B for the horizon.
    horizon:
        Expected number of arrivals; progress along the pacing curve is
        ``n_seen / horizon`` (capped at 1 — extra traffic spends
        whatever remains).
    window:
        Sliding-window length for the traffic sample.
    refresh_every:
        Re-derive the threshold every this many arrivals.
    lookahead:
        Events ahead used to convert the curve into a spend rate;
        smaller tracks the curve tighter, larger smooths noise.
    warmup:
        Arrivals before the first threshold fit; during warmup
        admission is purely curve-gated (score-blind), which buys the
        window an unbiased traffic sample.  The arrival that completes
        warmup triggers the fit and is the first to be threshold-gated.
        Capped at a quarter of the horizon so short days still engage
        the threshold.
    target_curve:
        Monotone callable ``progress ∈ [0,1] → fraction of B`` with
        ``curve(1) == 1``; default uniform.
    curve_slack:
        Admissions may run ahead of the curve by at most this fraction
        of B (absorbs cost granularity without losing pacing).
    use_roi_floor:
        Apply the ``roi*`` profitability floor when outcome feedback is
        available (see :meth:`observe_outcome`).
    min_arm_outcomes:
        Treated *and* control outcomes required in the feedback window
        before the floor activates.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to record pacing health
        into: counters ``pacer.offers`` / ``pacer.admits`` /
        ``pacer.refreshes`` / ``pacer.lockouts`` (refreshes that found
        spend ahead of the curve and locked admission out), gauges
        ``pacer.threshold`` / ``pacer.roi_floor`` / ``pacer.spend``
        and ``pacer.spend_vs_curve`` (signed distance of cumulative
        spend from the curve target — the pacing-error signal worth
        alerting on).  ``None`` (default) records nothing.
    """

    def __init__(
        self,
        budget: float,
        horizon: int,
        *,
        window: int = 1024,
        refresh_every: int = 64,
        lookahead: int = 256,
        warmup: int = 128,
        target_curve: Callable[[float], float] | None = None,
        curve_slack: float = 0.05,
        use_roi_floor: bool = True,
        min_arm_outcomes: int = 20,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not budget >= 0:  # rejects NaN too
            raise ValueError(f"budget must be >= 0, got {budget}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        if not 0.0 <= curve_slack <= 1.0:
            raise ValueError(f"curve_slack must be in [0, 1], got {curve_slack}")
        self.budget = float(budget)
        self.horizon = int(horizon)
        self.window = int(window)
        self.refresh_every = int(refresh_every)
        self.lookahead = int(lookahead)
        self.warmup = min(int(warmup), max(2, horizon // 4))
        self.target_curve = target_curve if target_curve is not None else _uniform_curve
        self.curve_slack = float(curve_slack)
        self.use_roi_floor = bool(use_roi_floor)
        self.min_arm_outcomes = int(min_arm_outcomes)

        self._traffic = _Window(self.window, 2)  # score, cost
        self._outcomes = _Window(self.window, 3)  # t, y_r, y_c
        self.n_seen = 0
        self.n_admitted = 0
        self.spent = 0.0
        #: cumulative expected cost of *all* offers seen (admitted or
        #: not) — the day's observed demand, which day-ahead planning
        #: sizes the next day's base budget from
        self.offered_cost = 0.0
        #: (n_seen, offered_cost) at each refresh — the within-day
        #: demand shape, which day-ahead planning turns into a curve
        self.offered_trace: list[tuple[int, float]] = []
        self.threshold_ = 0.0
        self.roi_floor_ = 0.0
        self._last_refresh = -(10**9)
        # (n_seen, spent, threshold) at each refresh — the pacing trace
        self.history: list[tuple[int, float, float]] = []
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_offers = self.metrics.counter("pacer.offers")
        self._c_admits = self.metrics.counter("pacer.admits")
        self._c_refreshes = self.metrics.counter("pacer.refreshes")
        self._c_lockouts = self.metrics.counter("pacer.lockouts")
        self._g_threshold = self.metrics.gauge("pacer.threshold")
        self._g_roi_floor = self.metrics.gauge("pacer.roi_floor")
        self._g_spend = self.metrics.gauge("pacer.spend")
        self._g_spend_vs_curve = self.metrics.gauge("pacer.spend_vs_curve")

    # ------------------------------------------------------------------
    # the admission decision
    # ------------------------------------------------------------------
    def offer(self, score: float, cost: float) -> bool:
        """Record one arrival and decide treat (True) / skip (False)."""
        score = float(score)
        cost = float(cost)
        if not (cost > 0 and math.isfinite(cost)):  # NaN fails both tests
            raise ValueError(f"cost must be finite and > 0 (Assumption 4), got {cost}")
        self.n_seen += 1
        self._c_offers.inc()
        self.offered_cost += cost
        self._traffic.append(score, cost)
        if self._refresh_due(self.n_seen):
            self._refresh()
        if self.spent + cost > self._cap(self.n_seen):
            return False
        # same boundary as the _refresh trigger above: the arrival that
        # completes warmup fits the first threshold and is already
        # gated by it (a fresh fit must never be ignored).  A NaN score
        # is never admitted, warmup included
        if math.isnan(score) or (self.n_seen >= self.warmup and score < self.threshold_):
            return False
        self.n_admitted += 1
        self.spent += cost
        self._c_admits.inc()
        self._g_spend.set(self.spent)
        return True

    def offer_batch(self, scores: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """Decide the leading arrivals of a block that one threshold governs.

        Returns the admit flags of the first ``m >= 1`` arrivals — up
        to, not including, the next one that refreshes the threshold —
        decided exactly as ``m`` :meth:`offer` calls would decide them:
        same admits, same ``spent``, same refresh history.  Feed those
        arrivals' outcomes (:meth:`observe_outcome`) before offering
        the rest of the block; the next refresh reads them.

        The prefix is decided in one vectorised step when the spend of
        every arrival clearing the threshold, summed in order, fits
        under the curve cap at the prefix's first arrival (the smallest
        cap of the prefix, because pacing curves are monotone).
        Otherwise the arrivals past that point run the scalar
        recurrence.  The whole block is validated before any state
        changes.
        """
        scores = np.asarray(scores, dtype=float)
        costs = np.asarray(costs, dtype=float)
        if scores.ndim != 1 or scores.shape != costs.shape:
            raise ValueError(
                f"scores and costs must be equal-length 1-d, got {scores.shape} and {costs.shape}"
            )
        bad = ~(costs > 0) | ~np.isfinite(costs)
        if bad.any():
            raise ValueError(f"cost must be finite and > 0 (Assumption 4), got {costs[bad][0]}")
        if scores.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        first = self.n_seen + 1
        refresh_now = self._refresh_due(first)
        # the prefix stops before the next arrival due to re-fit
        last_refresh = first if refresh_now else self._last_refresh
        next_refresh = max(self.warmup, last_refresh + self.refresh_every)
        m = min(scores.shape[0], next_refresh - first)
        scores, costs = scores[:m], costs[:m]
        # running sums in arrival order repeat offer()'s `+=` exactly
        offered = np.cumsum(np.concatenate(([self.offered_cost], costs)))
        self.n_seen = first
        self.offered_cost = float(offered[1])
        self._traffic.append(scores[0], costs[0])
        if refresh_now:
            self._refresh()
        self._traffic.extend(scores[1:], costs[1:])
        self.n_seen += m - 1
        self.offered_cost = float(offered[-1])
        self._c_offers.inc(m)

        # a prefix is all warmup or all threshold-gated; a NaN score
        # fails both, as in offer()
        if first >= self.warmup:
            admits = scores >= self.threshold_
        else:
            admits = ~np.isnan(scores)
        spend = np.cumsum(np.concatenate(([self.spent], np.where(admits, costs, 0.0))))
        cap = self._cap(first)
        # arrivals before the first running spend above the smallest
        # cap are admitted for sure; from there on, decide one by one
        over = np.flatnonzero(~(spend[1:] <= cap))
        if over.size:
            spent = spend[over[0]]
            for j in range(over[0], m):
                if admits[j]:
                    if spent + costs[j] > self._cap(first + j):
                        admits[j] = False
                    else:
                        spent += costs[j]
        else:
            spent = spend[-1]
        n_admitted = int(np.count_nonzero(admits))
        if n_admitted:
            self.n_admitted += n_admitted
            self.spent = float(spent)
            self._c_admits.inc(n_admitted)
            self._g_spend.set(self.spent)
        return admits

    def observe_outcome(self, t, y_r, y_c) -> None:
        """Feed back realised outcomes (treated flag, revenue, cost):
        one outcome as scalars, or a block as equal-length arrays.

        Outcomes power the ``roi*`` profitability floor; without them
        the pacer paces spend but cannot tell whether spending is
        worthwhile at all.  ``t`` must be 0 or 1 (a bool block is
        taken as is), and ``y_r`` and ``y_c`` must be finite; a block
        is checked as one sum, so one whose outcomes add up past the
        float range is refused as well.  Otherwise ``ValueError`` is
        raised and nothing is stored.
        """
        if np.ndim(t) == 0:
            y_r, y_c = float(y_r), float(y_c)
            if not (t == 0 or t == 1):
                raise ValueError(f"t must be 0 or 1, got {t!r}")
            if not (math.isfinite(y_r) and math.isfinite(y_c)):
                raise ValueError(f"y_r and y_c must be finite, got {y_r} and {y_c}")
            self._outcomes.append(float(t), y_r, y_c)
            return
        t = np.asarray(t)
        y_r = np.asarray(y_r, dtype=float)
        y_c = np.asarray(y_c, dtype=float)
        if t.ndim != 1 or not t.shape == y_r.shape == y_c.shape:
            raise ValueError(
                f"t, y_r and y_c must be equal-length 1-d, got {t.shape}, {y_r.shape}, {y_c.shape}"
            )
        if t.dtype != bool and not ((t == 0) | (t == 1)).all():
            raise ValueError("t must be 0 or 1 in every entry")
        # one reduction: a NaN or an infinity anywhere makes the sum non-finite
        if not math.isfinite(np.add.reduce(y_r + y_c)):
            raise ValueError("y_r and y_c must be finite in every entry")
        self._outcomes.extend(t, y_r, y_c)

    def rebudget(self, budget: float) -> None:
        """Reset the budget mid-stream (fleet slice rebalancing).

        The new budget must cover what is already spent — a pacer can
        be given more or less headroom, but never retroactively put
        over budget (that would break the spend invariant without any
        admission having caused it).  Thresholds pick the change up at
        the next refresh; the admission cap uses it immediately.
        """
        budget = float(budget)
        if not budget >= self.spent:
            raise ValueError(
                f"new budget {budget} is below already-realised spend {self.spent}"
            )
        self.budget = budget

    # ------------------------------------------------------------------
    # threshold adaptation
    # ------------------------------------------------------------------
    def _refresh_due(self, n_seen: int) -> bool:
        """Whether the arrival that makes ``n_seen`` re-fits the threshold."""
        return n_seen >= self.warmup and n_seen - self._last_refresh >= self.refresh_every

    def _cap(self, n_seen: int) -> float:
        """Most the cumulative spend may reach at arrival ``n_seen``:
        the pacing curve plus slack, and never more than the budget."""
        progress = min(1.0, n_seen / self.horizon)
        curve_cap = self.budget * min(
            1.0, float(self.target_curve(progress)) + self.curve_slack
        )
        return min(self.budget, curve_cap)

    def _refresh(self) -> None:
        self._last_refresh = self.n_seen
        self._c_refreshes.inc()

        progress = min(1.0, self.n_seen / self.horizon)
        ahead = min(1.0, (self.n_seen + self.lookahead) / self.horizon)
        events_ahead = max(1, int(round((ahead - progress) * self.horizon)))
        target_cum = self.budget * float(self.target_curve(ahead))
        rate = (target_cum - self.spent) / events_ahead

        if rate <= 0.0:
            # ahead of the curve: admit nothing until spend catches up.
            # The lockout must be unconditional — ``max(scores) + 1``
            # only covers the window's range, so a later arrival scoring
            # above it would pierce the lockout and spend while the
            # pacer believes it is admitting nothing
            self.threshold_ = np.inf
            self._c_lockouts.inc()
        else:
            # admitting the window's entries at or above the threshold
            # spends at most ``rate`` per entry; NaN scores count in the
            # window's length but are never admitted
            scores, costs = self._traffic.view()
            self.threshold_ = _pace_threshold(scores, costs, rate * scores.shape[0])

        if self.use_roi_floor and len(self._outcomes):
            outcomes = self._outcomes.view()
            t, ys = outcomes[0], outcomes[1:]  # t is 0/1: observe_outcome checks it
            n1 = int(np.count_nonzero(t))
            n0 = t.shape[0] - n1
            if n1 >= self.min_arm_outcomes and n0 >= self.min_arm_outcomes:
                # each arm's sum of (y_r, y_c) in one pass: the treated sums
                # as a dot with t, the control sums as column totals minus
                # them.  On integer-valued outcomes every sum is exact, so
                # the uplifts are _pooled_uplift's floats bit for bit; on
                # real-valued ones the last bits may differ
                r1, c1 = (ys @ t).tolist()
                r, c = np.add.reduce(ys, axis=1).tolist()
                tau_r = r1 / n1 - (r - r1) / n0
                tau_c = c1 / n1 - (c - c1) / n0
                # Assumption 4 guard: the bisection needs tau_c > 0 in the
                # window, else the derivative never crosses zero and the
                # floor degenerates to the search endpoint
                if tau_c > 0.0:
                    self.roi_floor_ = roi_star_from_uplift(tau_r, tau_c)
                    self.threshold_ = max(self.threshold_, self.roi_floor_)
        self.history.append((self.n_seen, self.spent, self.threshold_))
        self.offered_trace.append((self.n_seen, self.offered_cost))
        self._g_threshold.set(self.threshold_)
        self._g_roi_floor.set(self.roi_floor_)
        # signed pacing error: + means spending ahead of the curve
        self._g_spend_vs_curve.set(
            self.spent - self.budget * float(self.target_curve(progress))
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def progress(self) -> float:
        """Fraction of the horizon consumed (capped at 1)."""
        return min(1.0, self.n_seen / self.horizon)

    @property
    def remaining(self) -> float:
        """Budget left to spend."""
        return max(0.0, self.budget - self.spent)

    @property
    def admit_rate(self) -> float:
        """Fraction of arrivals admitted so far."""
        return self.n_admitted / self.n_seen if self.n_seen else 0.0


class MultiDayPacer:
    """Chain :class:`BudgetPacer` days with under/over-spend carryover.

    A single :class:`BudgetPacer` forgets everything at midnight: day
    *d*'s unspent budget evaporates and day *d+1* starts from its flat
    daily allowance.  Over a campaign that wastes real money — the
    strict budget boundary plus threshold conservatism leave every day
    a little short, and the shortfalls compound.  ``MultiDayPacer``
    rolls the residual forward instead: day *d+1*'s pacer is built
    with budget ``base_{d+1} + (budget_d - spent_d)``, so under-spend
    relative to the plan raises the next day's curve and over-spend
    relative to the *base* allowance (possible exactly when an earlier
    day's carry funded it) lowers it.  Telescoping the recursion gives
    the campaign invariant for free::

        sum_d spent_d  =  sum_d base_d - final_carry  <=  total budget

    with equality only when the final day spends to the boundary —
    each day's own invariants (never over budget, never ahead of curve
    + slack) continue to hold unchanged, because each day *is* a plain
    :class:`BudgetPacer`.

    How the carry lands on the next day's curve is ``carryover_mode``:

    * ``"spread"`` (default) — the enlarged budget keeps the base
      curve shape, spreading the carry evenly across the day;
    * ``"early"`` — the curve is tilted to release the carried amount
      at the start of the day (``curve'(p) = (carry + base *
      curve(p)) / (carry + base)``), catching the campaign up to its
      cumulative plan as fast as traffic allows.

    Drive it one day at a time: :meth:`start_day` → stream
    ``offer``/``observe_outcome`` through the returned pacer →
    :meth:`end_day`.  :class:`~repro.serving.simulator
    .TrafficReplay.replay_days` does exactly this.

    Parameters
    ----------
    daily_budget:
        Default per-day base allowance (override per day via
        :meth:`start_day`).
    horizon:
        Default expected arrivals per day (override per day).
    carryover:
        Fraction of each day's residual rolled into the next day
        (``1`` = full carryover, ``0`` = today's amnesiac behaviour).
    carryover_mode:
        ``"spread"`` or ``"early"`` (see above).
    pacer_params:
        Extra keyword arguments for every day's :class:`BudgetPacer`
        (``window``, ``warmup``, ``target_curve``, ...).
    metrics:
        A :class:`~repro.obs.MetricsRegistry` shared by every day's
        pacer (their counters accumulate across the campaign — a
        per-day view is a snapshot delta), plus campaign-level
        ``pacer.days_completed`` and ``pacer.carry``.
    """

    def __init__(
        self,
        daily_budget: float | None = None,
        horizon: int | None = None,
        *,
        carryover: float = 1.0,
        carryover_mode: str = "spread",
        pacer_params: dict | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if daily_budget is not None and not daily_budget >= 0:
            raise ValueError(f"daily_budget must be >= 0, got {daily_budget}")
        if not 0.0 <= carryover <= 1.0:
            raise ValueError(f"carryover must be in [0, 1], got {carryover}")
        if carryover_mode not in ("spread", "early"):
            raise ValueError(
                f"carryover_mode must be 'spread' or 'early', got {carryover_mode!r}"
            )
        self.daily_budget = daily_budget
        self.horizon = horizon
        self.carryover = float(carryover)
        self.carryover_mode = carryover_mode
        self.pacer_params = dict(pacer_params or {})
        self.carry = 0.0
        self.current: BudgetPacer | None = None
        self.days: list[BudgetPacer] = []
        #: per-completed-day accounting: (base_budget, day_budget, spent, carry_out)
        self.ledger: list[tuple[float, float, float, float]] = []
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_days = self.metrics.counter("pacer.days_completed")
        self._g_carry = self.metrics.gauge("pacer.carry")

    # ------------------------------------------------------------------
    # day lifecycle
    # ------------------------------------------------------------------
    def start_day(
        self,
        base_budget: float | None = None,
        horizon: int | None = None,
        target_curve=None,
    ) -> BudgetPacer:
        """Open the next day: a fresh :class:`BudgetPacer` holding
        ``base_budget + carried residual``.

        ``target_curve`` (e.g. a planned :class:`EmpiricalCurve`)
        overrides the default ``pacer_params`` curve for this day only;
        the ``"early"`` carryover tilt still composes on top of it.
        """
        if self.current is not None:
            raise RuntimeError("previous day still open — call end_day() first")
        base = self.daily_budget if base_budget is None else float(base_budget)
        if base is None:
            raise ValueError("no base_budget given and no daily_budget default set")
        if not base >= 0:
            raise ValueError(f"base_budget must be >= 0, got {base}")
        n = self.horizon if horizon is None else int(horizon)
        if n is None:
            raise ValueError("no horizon given and no horizon default set")
        params = dict(self.pacer_params)
        if target_curve is not None:
            params["target_curve"] = target_curve
        budget = base + self.carry
        if self.carryover_mode == "early" and self.carry > 0.0 and budget > 0.0:
            base_curve = params.get("target_curve") or _uniform_curve
            carry, base_b = self.carry, base  # freeze for the closure

            def tilted(progress: float) -> float:
                # release the carried residual up front, then pace the
                # base allowance along its own curve; reaches 1 at p=1
                return (carry + base_b * float(base_curve(progress))) / (carry + base_b)

            params["target_curve"] = tilted
        self._base = base
        # all days share one registry: campaign counters accumulate,
        # per-day views are snapshot deltas
        params.setdefault("metrics", None if self.metrics is NULL_REGISTRY else self.metrics)
        self.current = BudgetPacer(budget, n, **params)
        self.days.append(self.current)
        return self.current

    def end_day(self) -> float:
        """Close the open day and bank its residual; returns the new carry."""
        if self.current is None:
            raise RuntimeError("no open day — call start_day() first")
        residual = self.current.budget - self.current.spent
        carry_out = self.carryover * max(0.0, residual)
        self.ledger.append(
            (self._base, self.current.budget, self.current.spent, carry_out)
        )
        self.carry = carry_out
        self.current = None
        self._c_days.inc()
        self._g_carry.set(carry_out)
        return self.carry

    # ------------------------------------------------------------------
    # day-ahead planning
    # ------------------------------------------------------------------
    def plan_next_day(self, budget_fraction: float) -> DayPlan:
        """Size day *d+1* from day *d*'s observed traffic.

        The seed experiment sizes every day's budget from an oracle
        cohort sum; a live system only sees what arrived.  This uses
        the last completed day's demand instead: the planned base
        budget is ``budget_fraction`` of the total *offered* cost that
        day (what full treatment would have cost), the horizon is that
        day's arrival count, and — when the day refreshed at least
        once — the target curve is the day's empirical within-day
        demand shape (:class:`EmpiricalCurve`).

        Feed the result to :meth:`start_day`::

            plan = pacer.plan_next_day(0.3)
            pacer.start_day(plan.base_budget, plan.horizon, plan.target_curve)
        """
        if not 0.0 <= budget_fraction:
            raise ValueError(f"budget_fraction must be >= 0, got {budget_fraction}")
        if not self.days or (self.current is not None and len(self.days) == 1):
            raise RuntimeError("no completed day to plan from — finish a day first")
        last = self.days[-1] if self.current is None else self.days[-2]
        if last.n_seen == 0:
            raise RuntimeError("last completed day saw no traffic; cannot plan")
        curve = None
        if last.offered_trace and last.offered_cost > 0:
            curve = EmpiricalCurve.from_trace(
                last.offered_trace, last.n_seen, last.offered_cost
            )
        return DayPlan(
            base_budget=float(budget_fraction) * last.offered_cost,
            horizon=last.n_seen,
            target_curve=curve,
        )

    # ------------------------------------------------------------------
    # campaign accounting
    # ------------------------------------------------------------------
    @property
    def n_days_completed(self) -> int:
        return len(self.ledger)

    @property
    def total_base_budget(self) -> float:
        """Sum of completed days' base allowances (the campaign plan)."""
        return float(sum(base for base, _b, _s, _c in self.ledger))

    @property
    def total_spent(self) -> float:
        """Realised spend across completed days.

        Always ``<= total_base_budget`` when ``carryover <= 1``
        (telescoping the carry recursion), strictly below whenever the
        final day left any residual.
        """
        return float(sum(spent for _base, _b, spent, _c in self.ledger))
