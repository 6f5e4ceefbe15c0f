"""Block decisions: ``offer_batch`` and the block-driven replay decide
exactly what the per-arrival path decides.

* ``BudgetPacer.offer_batch`` against a twin pacer fed the same arrivals
  through ``offer()``, compared bit for bit on every piece of state;
* ``TrafficReplay`` against a per-arrival reference replay written here
  (one submit, one take, one offer and one outcome draw per arrival),
  compared bit for bit on every decision it reports.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ab.platform import Platform
from repro.core.roi_star import binary_search_roi_star, bisect_monotone
from repro.data import criteo_uplift_v2
from repro.obs import Histogram
from repro.runtime import ManualClock
from repro.serving import pacing
from repro.serving.engine import ScoringEngine
from repro.serving.pacing import BudgetPacer, EmpiricalCurve, MultiDayPacer
from repro.serving.promotion import AutoPromoter
from repro.serving.registry import ModelRegistry, OutcomeLedger
from repro.serving.retraining import Retrainer
from repro.serving.sharding import ShardedBudgetPacer, ShardedScoringEngine
from repro.serving.simulator import ReplayResult, TrafficReplay

from test_retraining import TreatedNetRidge
from test_serving import CountingROI


# ---------------------------------------------------------------------------
# the NaN-cost bugfix
# ---------------------------------------------------------------------------
class TestCostValidation:
    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_offer_rejects_cost_that_is_not_finite_and_positive(self, cost):
        """Regression: ``cost <= 0`` let NaN through, ``spent`` became
        NaN and ``nan + cost > cap`` never held again, so every later
        offer was admitted past the budget."""
        pacer = BudgetPacer(10.0, 100, warmup=1000)
        with pytest.raises(ValueError, match="cost"):
            pacer.offer(1.0, cost)
        assert (pacer.n_seen, pacer.spent, pacer.offered_cost) == (0, 0.0, 0.0)
        assert not any(pacer.offer(1.0, 100.0) for _ in range(3))
        assert pacer.spent == 0.0

    @pytest.mark.parametrize("cost", [math.nan, math.inf, 0.0, -2.0])
    def test_offer_batch_validates_the_whole_block_first(self, cost):
        pacer = BudgetPacer(10.0, 100, warmup=4, refresh_every=2)
        costs = np.full(12, 0.5)
        costs[9] = cost  # past the first prefix: nothing may be decided
        with pytest.raises(ValueError, match="cost"):
            pacer.offer_batch(np.full(12, 0.5), costs)
        assert (pacer.n_seen, pacer.spent, pacer.offered_cost) == (0, 0.0, 0.0)
        assert pacer.history == [] and len(pacer._traffic) == 0

    def test_offer_batch_shape_validation(self):
        pacer = BudgetPacer(10.0, 100)
        with pytest.raises(ValueError, match="equal-length"):
            pacer.offer_batch(np.ones(3), np.ones(4))
        with pytest.raises(ValueError, match="equal-length"):
            pacer.offer_batch(np.ones((2, 2)), np.ones((2, 2)))
        assert pacer.offer_batch([], []).shape == (0,)
        assert pacer.n_seen == 0

    def test_sharded_offer_batch_checks_the_arrival_it_decides(self):
        pacer = ShardedBudgetPacer(10.0, 100, 2, warmup=1000)
        with pytest.raises(ValueError, match="equal-length"):
            pacer.offer_batch(np.ones(3), np.ones(2))
        with pytest.raises(ValueError, match="cost"):
            pacer.offer_batch(np.ones(2), np.array([math.nan, 0.01]))
        assert pacer.offer_batch([], []).shape == (0,)
        assert pacer.n_seen == 0
        # one arrival per call: the rest of the block is not consumed
        assert pacer.offer_batch(np.ones(2), np.array([0.01, math.nan])).tolist() == [True]
        assert (pacer.n_seen, pacer.spent) == (1, 0.01)

    def test_array_outcomes_shape_validation(self):
        pacer = BudgetPacer(10.0, 100)
        with pytest.raises(ValueError, match="equal-length"):
            pacer.observe_outcome(np.ones(3), np.ones(2), np.ones(3))
        assert len(pacer._outcomes) == 0


# ---------------------------------------------------------------------------
# the NaN-score bugfix
# ---------------------------------------------------------------------------
class TestNanScores:
    """Regression: ``score < threshold_`` is False for NaN and warmup
    admits every score, so a pacer admitted a NaN score whenever its
    cost fit: a model that fails to score spent budget on those users."""

    def test_offer_never_admits_a_nan_score(self):
        pacer = BudgetPacer(100.0, 1000, warmup=4)
        assert pacer.offer(math.nan, 1.0) is False  # in warmup
        for _ in range(3):
            pacer.offer(0.5, 1.0)
        assert pacer.offer(math.nan, 1.0) is False  # past warmup
        # a NaN arrival still counts as seen and offered
        assert (pacer.n_seen, pacer.offered_cost, pacer.spent) == (5, 5.0, 2.0)

    def test_offer_batch_never_admits_a_nan_score(self):
        warm = BudgetPacer(100.0, 1000, warmup=4)
        assert warm.offer_batch(np.array([math.nan, 0.5, math.nan]), np.ones(3)).tolist() == [False, True, False]
        assert (warm.n_seen, warm.spent) == (3, 1.0)
        gated = BudgetPacer(100.0, 1000, warmup=4)
        for _ in range(4):
            gated.offer(0.5, 1.0)
        assert gated.offer_batch(np.array([math.nan, -1.0, math.nan]), np.ones(3)).tolist() == [False] * 3
        assert (gated.n_seen, gated.offered_cost, gated.spent) == (7, 7.0, 3.0)


# ---------------------------------------------------------------------------
# offer_batch against the offer() loop
# ---------------------------------------------------------------------------
STATE = (
    "spent",
    "n_seen",
    "n_admitted",
    "offered_cost",
    "threshold_",
    "roi_floor_",
    "history",
    "offered_trace",
)


def assert_same_state(block_pacer, scalar_pacer) -> None:
    for name in STATE:
        a, b = getattr(block_pacer, name), getattr(scalar_pacer, name)
        # repr pins floats bit for bit and tells inf from nan
        assert repr(a) == repr(b), name


def run_twins(
    make_pacer,
    scores,
    costs,
    blocks,
    *,
    outcomes=True,
    between=None,
    seed=0,
):
    """Feed one stream to ``offer_batch`` and to an ``offer()`` twin.

    ``blocks`` partitions the stream.  Outcomes are realised per admit
    from one fixed uniform table (as the replay does); the scalar twin
    observes each right after its offer, the block pacer after each
    returned prefix.  ``between(pacer, k)`` runs on both pacers after
    block ``k``.  Returns the block pacer's admits and the block pacer.
    """
    block_pacer, scalar_pacer = make_pacer(), make_pacer()
    n = len(scores)
    assert sum(blocks) == n
    u = np.random.default_rng(seed).random((n, 2))
    p_r = np.linspace(0.1, 0.6, n)
    p_c = np.linspace(0.9, 0.3, n)
    admits = np.zeros(n, dtype=bool)
    start = 0
    for k, size in enumerate(blocks):
        pos = start
        while pos < start + size:
            got = block_pacer.offer_batch(scores[pos : start + size], costs[pos : start + size])
            m = got.shape[0]
            assert 1 <= m <= start + size - pos
            for j in range(pos, pos + m):
                admit = scalar_pacer.offer(scores[j], costs[j])
                assert bool(got[j - pos]) == admit, f"arrival {j}"
                if outcomes:
                    scalar_pacer.observe_outcome(
                        int(admit), float(admit and u[j, 0] < p_r[j]), float(admit and u[j, 1] < p_c[j])
                    )
            if outcomes:
                sl = slice(pos, pos + m)
                block_pacer.observe_outcome(
                    got, (got & (u[sl, 0] < p_r[sl])).astype(float), (got & (u[sl, 1] < p_c[sl])).astype(float)
                )
            admits[pos : pos + m] = got
            pos += m
            assert_same_state(block_pacer, scalar_pacer)
        if between is not None:
            between(block_pacer, k)
            between(scalar_pacer, k)
        start += size
    assert_same_state(block_pacer, scalar_pacer)
    return admits, block_pacer


def traffic(n, seed=0, cost_scale=0.5):
    gen = np.random.default_rng(seed)
    return gen.random(n), gen.random(n) * cost_scale + 0.05


def pacer_factory(budget, horizon, **params):
    return lambda: BudgetPacer(budget, horizon, **params)


class TestOfferBatchNamedCases:
    def test_default_pacer_day_in_engine_sized_blocks(self):
        n = 3000
        scores, costs = traffic(n, seed=1)
        budget = 0.3 * float(costs.sum())
        admits, pacer = run_twins(
            pacer_factory(budget, n, min_arm_outcomes=10), scores, costs, [256] * 11 + [184]
        )
        assert 0 < admits.sum() < n
        assert pacer.roi_floor_ > 0.0  # the floor ran on the fed-back outcomes
        assert pacer.spent <= budget

    @pytest.mark.parametrize("blocks", [[1] * 200, [200], [3, 61, 64, 1, 7, 64], [5, 6, 7] * 10 + [20]])
    def test_warmup_and_refresh_boundaries_inside_and_at_block_edges(self, blocks):
        """warmup=5 and refresh_every=8: prefixes stop before arrival 5,
        13, 21, ... whether that falls inside a block or on its edge."""
        scores, costs = traffic(200, seed=2)
        run_twins(
            pacer_factory(0.3 * float(costs.sum()), 200, warmup=5, refresh_every=8, window=32, min_arm_outcomes=3),
            scores,
            costs,
            blocks,
        )

    def test_prefix_stops_before_the_next_refreshing_arrival(self):
        pacer = BudgetPacer(100.0, 1000, warmup=10, refresh_every=4, use_roi_floor=False)
        scores, costs = np.full(30, 0.5), np.full(30, 0.1)
        sizes = []
        pos = 0
        while pos < 30:
            sizes.append(pacer.offer_batch(scores[pos:], costs[pos:]).shape[0])
            pos += sizes[-1]
        # 9 warmup arrivals, then the refreshes at 10, 14, 18, ...
        assert sizes == [9, 4, 4, 4, 4, 4, 1]
        assert [entry[0] for entry in pacer.history] == [10, 14, 18, 22, 26, 30]

    @pytest.mark.parametrize("window", [2, 3, 17, 64])
    def test_window_shorter_than_the_stream_wraps(self, window):
        scores, costs = traffic(500, seed=3)
        blocks = [1, 2, 130, 64, 3, 300]
        run_twins(
            pacer_factory(0.25 * float(costs.sum()), 500, window=window, warmup=6, refresh_every=5, min_arm_outcomes=1),
            scores,
            costs,
            blocks,
        )

    def test_ahead_of_curve_lockout(self):
        """Spend far ahead of the curve locks admission out (threshold
        inf) for whole prefixes, exactly as the scalar path does."""
        scores = np.concatenate([np.full(3, 0.5), [0.5, 2.0, 9.0], np.linspace(0, 3, 94)])
        costs = np.full(100, 5.0)
        make = pacer_factory(
            100.0, 100, warmup=4, refresh_every=64, lookahead=4, curve_slack=0.5, window=32, use_roi_floor=False
        )
        admits, pacer = run_twins(make, scores, costs, [100], outcomes=False)
        # locked out from the warmup fit at arrival 4 to the refit at 68
        assert admits[:3].all() and not admits[3:67].any()
        assert pacer.history[0][2] == np.inf

    def test_cap_boundary_scalar_fallback(self):
        """Score-blind warmup on a budget that cannot cover it: the cap,
        not the threshold, decides arrival by arrival."""
        make = pacer_factory(10.0, 400, warmup=60, refresh_every=7, curve_slack=0.05, use_roi_floor=False)
        costs = np.where(np.arange(100) % 3 == 0, 1.0, 0.35)
        scores = np.random.default_rng(4).random(100)
        admits, pacer = run_twins(make, scores, costs, [100], outcomes=False)
        # every warmup arrival clears the (absent) threshold, so a
        # partial admit shows the per-arrival cap recurrence ran
        assert 0 < admits[:59].sum() < 59

    def test_cap_boundary_at_budget_exhaustion(self):
        scores, costs = traffic(800, seed=5, cost_scale=2.0)
        run_twins(
            pacer_factory(40.0, 400, warmup=20, refresh_every=16, curve_slack=0.2, min_arm_outcomes=5),
            scores,
            costs,
            [97, 1, 300, 402],
        )

    def test_rebudget_between_blocks(self):
        scores, costs = traffic(600, seed=6)
        budgets = [30.0, 80.0, 45.0, 200.0, 60.0]

        def between(pacer, k):
            pacer.rebudget(max(budgets[k % len(budgets)], pacer.spent))

        run_twins(
            pacer_factory(50.0, 600, warmup=32, refresh_every=16, min_arm_outcomes=5),
            scores,
            costs,
            [50, 1, 99, 150, 300],
            between=between,
        )

    def test_empirical_curve(self):
        curve = EmpiricalCurve(np.array([0.0, 0.2, 0.5, 1.0]), np.array([0.0, 0.5, 0.6, 1.0]))
        scores, costs = traffic(700, seed=7)
        run_twins(
            pacer_factory(0.3 * float(costs.sum()), 700, target_curve=curve, warmup=40, curve_slack=0.01),
            scores,
            costs,
            [128, 128, 1, 443],
        )

    def test_early_tilted_curve_through_multiday_pacer(self):
        """Day 2 of an ``"early"`` campaign paces on the tilted curve of
        the pacer ``MultiDayPacer.start_day`` returns."""
        scores, costs = traffic(900, seed=8)

        def make():
            multi = MultiDayPacer(20.0, 300, carryover_mode="early", pacer_params=dict(warmup=20, refresh_every=10))
            day1 = multi.start_day()
            for s, c in zip(scores[:300], costs[:300] * 3.0):
                day1.offer(s, c)
            multi.end_day()
            day2 = multi.start_day()
            assert multi.carry > 0.0
            return day2

        block, scalar = make(), make()
        pos = 300
        while pos < 900:
            got = block.offer_batch(scores[pos:], costs[pos:])
            for j, admit in enumerate(got.tolist()):
                assert scalar.offer(scores[pos + j], costs[pos + j]) == admit
            pos += got.shape[0]
        assert_same_state(block, scalar)

    def test_nan_scores_follow_offers_own_threshold_test(self):
        """offer() never admits a NaN score, in warmup or past it, and
        offer_batch decides NaN scores the same way."""
        scores, costs = traffic(300, seed=9)
        scores[::7] = np.nan
        admits, _ = run_twins(
            pacer_factory(0.3 * float(costs.sum()), 300, warmup=10, refresh_every=9, min_arm_outcomes=3),
            scores,
            costs,
            [64, 1, 235],
        )
        assert not admits[np.isnan(scores)].any()
        assert admits[~np.isnan(scores)].any()

    def test_blocks_of_length_one(self):
        scores, costs = traffic(250, seed=10)
        run_twins(
            pacer_factory(0.3 * float(costs.sum()), 250, warmup=10, refresh_every=3, window=8, min_arm_outcomes=2),
            scores,
            costs,
            [1] * 250,
        )


@st.composite
def streams(draw):
    n = draw(st.integers(min_value=1, max_value=260))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    scores = gen.random(n)
    if draw(st.booleans()):
        scores[gen.random(n) < 0.1] = np.nan
    costs = gen.random(n) * draw(st.sampled_from([0.01, 0.5, 3.0])) + 1e-3
    cuts = sorted(set(draw(st.lists(st.integers(min_value=1, max_value=max(1, n - 1)), max_size=8))))
    blocks = np.diff([0, *[c for c in cuts if c < n], n]).tolist()
    params = dict(
        window=draw(st.integers(min_value=2, max_value=48)),
        refresh_every=draw(st.integers(min_value=1, max_value=20)),
        lookahead=draw(st.integers(min_value=1, max_value=64)),
        warmup=draw(st.integers(min_value=0, max_value=40)),
        curve_slack=draw(st.sampled_from([0.0, 0.01, 0.05, 0.5])),
        use_roi_floor=draw(st.booleans()),
        min_arm_outcomes=draw(st.integers(min_value=1, max_value=12)),
    )
    if draw(st.booleans()):
        params["target_curve"] = lambda p: p**2
    budget = draw(st.floats(min_value=0.0, max_value=1.2)) * float(costs.sum())
    horizon = draw(st.integers(min_value=1, max_value=2 * n))
    rebudget = draw(st.booleans())
    return scores, costs, blocks, params, budget, horizon, rebudget, seed


class TestOfferBatchProperty:
    @given(streams())
    @settings(max_examples=80, deadline=None)
    def test_offer_batch_matches_the_offer_loop(self, stream):
        scores, costs, blocks, params, budget, horizon, rebudget, seed = stream

        def between(pacer, k):
            if rebudget:
                pacer.rebudget(pacer.spent + budget * (0.5 + (k % 3) * 0.25))

        admits, pacer = run_twins(
            lambda: BudgetPacer(budget, horizon, **params), scores, costs, blocks, between=between, seed=seed
        )
        assert pacer.spent <= pacer.budget


# ---------------------------------------------------------------------------
# the refresh against a brute-force threshold and an np.mean floor
# ---------------------------------------------------------------------------
def brute_threshold(scores, costs, limit):
    """The pacing threshold found by trying every distinct ranked score,
    lowest first: the first whose at-or-above entries cost at most
    ``limit`` in total (an exactly rounded ``math.fsum``).  NaN is
    ranked nowhere and never admitted.  Returns ``(threshold, branch)``;
    ``"tie_split"`` marks a step past a tie group whose first entry
    fits in any order, so the limit splits it."""
    ranked = np.unique(scores[~np.isnan(scores)]).tolist()
    if not ranked:
        return -math.inf, "unranked"
    for i, s in enumerate(ranked):
        above = math.fsum(costs[scores >= s].tolist())
        if above <= limit:
            if i == 0:
                return s, "all_fit"
            below = costs[scores == ranked[i - 1]]
            split = below.shape[0] > 1 and above + float(below.max()) <= limit
            return s, "tie_split" if split else "step"
    return ranked[-1] + 1e-9, "none_fit"


def pace_rate(pacer, spent):
    """The spend rate per arrival a refresh at ``pacer.n_seen`` paces to."""
    progress = min(1.0, pacer.n_seen / pacer.horizon)
    ahead = min(1.0, (pacer.n_seen + pacer.lookahead) / pacer.horizon)
    events_ahead = max(1, int(round((ahead - progress) * pacer.horizon)))
    return (pacer.budget * float(pacer.target_curve(ahead)) - spent) / events_ahead


def mean_floor(pacer, t, y_r, y_c):
    """Algorithm 2's ``roi*`` on an outcome window, every mean an
    ``ndarray.mean``; None where the pacer keeps its previous floor."""
    if not len(t) or min(np.sum(t == 1), np.sum(t == 0)) < pacer.min_arm_outcomes:
        return None
    tau_c = float(y_c[t == 1].mean() - y_c[t == 0].mean())
    if not tau_c > 0.0:
        return None
    tau_r = float(y_r[t == 1].mean() - y_r[t == 0].mean())
    root = bisect_monotone(lambda roi: -tau_r + tau_c * float(roi), 0.0, 1.0, eps=1e-3)
    return float(np.clip(root, 1e-3, 1.0 - 1e-3))


def refit(pacer, scores, costs, t, y_r, y_c, spent):
    """One refresh re-done on its windows: the threshold by
    :func:`brute_threshold`, the floor by :func:`mean_floor`.  Returns
    ``(threshold, roi floor or None, branch)``."""
    rate = pace_rate(pacer, spent)
    if rate <= 0.0:
        threshold, branch = np.inf, "lockout"
    else:
        threshold, branch = brute_threshold(scores, costs, rate * len(scores))
    floor = mean_floor(pacer, t, y_r, y_c)
    if floor is not None:
        threshold = max(threshold, floor)
    return threshold, floor, branch


class TestRefreshMatchesMeanArithmetic:
    def test_every_refresh_on_three_budgets(self):
        """Each refresh's threshold must be the brute-force solve on the
        same window and its ``roi*`` floor the float the ``np.mean``
        re-fit gives, in every branch: lockout, everything fits, a step,
        a step past a split tie group, nothing fits, and the floor."""
        branches = Counter()
        for seed, share, decimals in [(0, 0.05, None), (1, 0.3, 2), (2, 2.0, None)]:
            n = 1500
            gen = np.random.default_rng(seed)
            scores, costs = gen.random(n), gen.random(n) * 0.5 + 0.05
            if decimals is not None:
                scores = scores.round(decimals)  # ~100 tie groups per window
            pacer = BudgetPacer(
                share * float(costs.sum()), n, window=200, refresh_every=7, lookahead=5, warmup=60, min_arm_outcomes=5
            )
            traffic, outcomes = [], []
            for j in range(n):
                spent, floor_before, refreshes = pacer.spent, pacer.roi_floor_, len(pacer.history)
                traffic.append((scores[j], costs[j]))
                admit = pacer.offer(scores[j], costs[j])
                if len(pacer.history) > refreshes:
                    s, c = np.array(traffic[-pacer.window :]).T
                    t, y_r, y_c = np.array(outcomes[-pacer.window :]).reshape(-1, 3).T
                    threshold, floor, branch = refit(pacer, s, c, t, y_r, y_c, spent)
                    branches[branch] += 1
                    branches["floor"] += floor is not None
                    assert repr(pacer.history[-1][2]) == repr(threshold), j
                    assert repr(pacer.roi_floor_) == repr(floor_before if floor is None else floor), j
                outcomes.append((int(admit), float(admit and gen.random() < 0.3), float(admit and gen.random() < 0.6)))
                pacer.observe_outcome(*outcomes[-1])
        assert all(branches[b] for b in ("lockout", "all_fit", "step", "tie_split", "none_fit", "floor")), branches

    def test_a_nan_score_leaves_every_refresh_finite(self):
        """Regression: ``np.min`` carried one NaN score into the lower
        bracket, the pace gap there read 1.0, and every refresh whose
        window held the NaN stored a NaN threshold.  ``score < NaN``
        never holds, so those refreshes gated nothing: 518 admits over
        arrivals 512-1500 (both included) instead of 313.  The NaN is
        ranked nowhere but counts in the window's length."""
        n = 3000
        gen = np.random.default_rng(7)
        scores, costs = gen.random(n), gen.random(n) * 0.5 + 0.05
        scores[500] = np.nan
        pacer = BudgetPacer(0.3 * float(costs.sum()), n)
        refits = []
        for j in range(n):
            spent, refreshes = pacer.spent, len(pacer.history)
            pacer.offer(scores[j], costs[j])
            if len(pacer.history) > refreshes:
                lo = max(0, j + 1 - pacer.window)
                s, c = scores[lo : j + 1], costs[lo : j + 1]
                expect, _ = brute_threshold(s, c, pace_rate(pacer, spent) * s.shape[0])
                refits.append((j, pacer.threshold_, expect, bool(np.isnan(s).any())))
        assert sum(with_nan for *_, with_nan in refits) == 16
        assert all(math.isfinite(got) for _, got, _, _ in refits)
        for j, got, expect, _ in refits:
            assert repr(got) == repr(expect), j


SCORE_POOL = [-math.inf, -1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 3.0, math.inf, math.nan]
# dyadic costs: every sum of them is exact in any order, so the solve's
# cumulative sum and the reference's fsum meet the limit identically
COST_POOL = [0.125, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0]


@st.composite
def windows(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    scores = np.array(draw(st.lists(st.sampled_from(SCORE_POOL), min_size=n, max_size=n)))
    costs = np.array(draw(st.lists(st.sampled_from(COST_POOL), min_size=n, max_size=n)))
    if draw(st.booleans()):
        # a limit that is some score's at-or-above cost exactly: "at most" holds with equality
        s = draw(st.sampled_from(scores.tolist()))
        limit = math.fsum(costs[scores >= s].tolist())
    else:
        rate = draw(st.one_of(st.sampled_from([1e-300, 1e-12, 1e12, 1e300]), st.floats(min_value=1e-3, max_value=10.0)))
        limit = rate * n
    return scores, costs, limit


class TestPaceThresholdProperty:
    @given(windows())
    @settings(max_examples=300, deadline=None)
    def test_the_solve_is_the_brute_force_threshold(self, window):
        scores, costs, limit = window
        expect, _ = brute_threshold(scores, costs, limit)
        assert repr(pacing._pace_threshold(scores, costs, limit)) == repr(expect)

    @pytest.mark.parametrize(
        "scores, costs, limit, expect",
        [
            ([0.2, 0.5, 0.5, 0.9], [1.0, 1.0, 1.0, 1.0], 2.0, 0.9),  # the 0.5 tie is split: step past it
            ([0.2, 0.5, 0.5, 0.9], [1.0, 1.0, 1.0, 1.0], 3.0, 0.5),  # exactly at the limit fits
            ([0.2, 0.5, 0.5, 0.9], [1.0, 1.0, 1.0, 1.0], 0.5, 0.9 + 1e-9),  # nothing fits
            ([0.9, 0.9, 0.2], [1.0, 1.0, 1.0], 1.0, 0.9 + 1e-9),  # the top tie group is split
            ([0.2, math.nan, 0.9], [1.0, 5.0, 1.0], 2.0, 0.2),  # the NaN's cost is never admitted
            ([math.nan, math.nan], [1.0, 1.0], 10.0, -math.inf),  # nothing ranked
        ],
    )
    def test_named_windows(self, scores, costs, limit, expect):
        got = pacing._pace_threshold(np.array(scores), np.array(costs), limit)
        assert repr(got) == repr(expect)


@st.composite
def outcome_blocks(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    blocks = []
    for m in draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8)):
        t = gen.random(m) < draw(st.sampled_from([0.1, 0.5, 0.9]))
        if draw(st.booleans()):
            t = t.astype(np.int64)
        top = draw(st.sampled_from([1, 5, 2**40]))  # 0/1, small counts, large integers
        y_r = gen.integers(-top if top > 1 else 0, top + 1, m).astype(float)
        y_c = gen.integers(0, top + 1, m).astype(float)
        blocks.append((t, y_r, y_c))
    window = draw(st.integers(min_value=2, max_value=64))
    min_arm = draw(st.integers(min_value=1, max_value=8))
    return blocks, window, min_arm


class TestFloorMatchesBinarySearch:
    @given(outcome_blocks())
    @settings(max_examples=150, deadline=None)
    def test_the_floor_is_binary_search_roi_star_on_the_window(self, case):
        """On integer-valued outcomes the window sums are exact, so the
        floor is ``binary_search_roi_star`` on the window by repr."""
        blocks, window, min_arm = case
        pacer = BudgetPacer(1.0, 100, window=window, min_arm_outcomes=min_arm)
        pacer.offer(0.5, 0.01)  # a traffic window for the threshold half, still in warmup
        seen = [np.empty(0)] * 3
        floor = pacer.roi_floor_
        for block in blocks:
            pacer.observe_outcome(*block)
            seen = [np.concatenate((a, np.asarray(b, dtype=float)))[-window:] for a, b in zip(seen, block)]
            pacer._refresh()
            t, y_r, y_c = seen
            if min(np.sum(t == 1), np.sum(t == 0)) >= min_arm and y_c[t == 1].mean() - y_c[t == 0].mean() > 0:
                floor = binary_search_roi_star(t, y_r, y_c)
            assert repr(pacer.roi_floor_) == repr(floor)


# ---------------------------------------------------------------------------
# outcome validation
# ---------------------------------------------------------------------------
def fed_pacer():
    """A pacer fed 1,500 of 3,000 arrivals with 0/1 outcomes: its floor is live."""
    gen = np.random.default_rng(3)
    scores, costs = traffic(3000, seed=3)
    pacer = BudgetPacer(0.3 * float(costs.sum()), 3000)
    for j in range(1500):
        admit = pacer.offer(scores[j], costs[j])
        pacer.observe_outcome(int(admit), float(admit and gen.random() < 0.3), float(admit and gen.random() < 0.6))
    return pacer, scores, costs


class TestOutcomeValidation:
    @pytest.mark.parametrize(
        "outcome",
        [
            (1, math.nan, 1.0),
            (1, 1.0, math.inf),
            (0, -math.inf, 0.0),
            (0.7, 1.0, 1.0),
            (2, 0.0, 0.0),
            (-1, 0.0, 0.0),
            (math.nan, 0.0, 0.0),
            (np.array([1, 0, 1]), np.array([1.0, math.nan, 0.0]), np.zeros(3)),
            (np.array([True, False]), np.zeros(2), np.array([0.0, -math.inf])),
            (np.array([1.0, 0.7]), np.zeros(2), np.zeros(2)),
            (np.array([0, 2]), np.zeros(2), np.zeros(2)),
            (np.array([1.0, math.nan]), np.zeros(2), np.zeros(2)),
        ],
    )
    def test_a_bad_outcome_is_refused_and_leaves_window_and_floor_alone(self, outcome):
        """Regression: one ``observe_outcome(1, nan, 1.0)`` passed the
        floor's ``tau_c > 0`` guard, the bisection on a NaN ``tau_r``
        ran to the upper clip, and the floor read 0.999 while the NaN
        stayed in the window; ``t = 0.7`` was stored as control."""
        pacer, scores, costs = fed_pacer()
        twin, _, _ = fed_pacer()
        stored, floor = len(pacer._outcomes), pacer.roi_floor_
        assert 0.001 < floor < 0.999
        with pytest.raises(ValueError, match="must be"):
            pacer.observe_outcome(*outcome)
        assert (len(pacer._outcomes), pacer.roi_floor_) == (stored, floor)
        # the window is the twin's: every later floor and decision repeats
        gen = np.random.default_rng(4)
        for j in range(1500, 2600):
            admit = pacer.offer(scores[j], costs[j])
            assert twin.offer(scores[j], costs[j]) == admit
            fed = (int(admit), float(admit and gen.random() < 0.3), float(admit and gen.random() < 0.6))
            pacer.observe_outcome(*fed)
            twin.observe_outcome(*fed)
        assert_same_state(pacer, twin)

    @pytest.mark.parametrize(
        "t",
        [np.array([True, False, True]), np.array([1, 0, 1]), np.array([1.0, 0.0, 1.0]), [1, 0, 1]],
        ids=["bool", "int", "float", "list"],
    )
    def test_binary_t_of_any_dtype_is_stored_as_0_and_1(self, t):
        pacer = BudgetPacer(10.0, 100)
        pacer.observe_outcome(t, np.array([2.0, 0.0, 1.0]), np.ones(3))
        pacer.observe_outcome(True, 1.0, 0.0)
        pacer.observe_outcome(np.int64(0), 0, 0)
        assert pacer._outcomes.view().tolist() == [
            [1.0, 0.0, 1.0, 1.0, 0.0],
            [2.0, 0.0, 1.0, 1.0, 0.0],
            [1.0, 1.0, 1.0, 0.0, 0.0],
        ]


# ---------------------------------------------------------------------------
# the replay against a per-arrival reference
# ---------------------------------------------------------------------------
class PerArrivalReplay(TrafficReplay):
    """The replay decided one arrival at a time: submit it, poll, then
    for each ready request in arrival order take one score, call
    ``offer``, draw ``random(2)`` (unless paired) and report the outcome."""

    def _stream_cohort(self, cohort, pacer, budget):
        engine = self.engine
        n = cohort.n
        treated = np.zeros(n, dtype=bool)
        trajectory = np.zeros(n)
        stats_before = dict(engine.stats)
        waiting = deque()
        decided = 0
        realise = self.feedback or self.promoter is not None or self.retrainer is not None
        uniforms = self._rng.random((n, 2)) if self.paired_outcomes else None

        def drain(force=False):
            nonlocal decided
            if force:
                engine.flush()
                engine.join()
            while waiting and engine.has_result(waiting[0][0]):
                rid, i = waiting.popleft()
                version = engine.version_of(rid) if self.promoter is not None else None
                score = engine.take(rid)
                admit = pacer.offer(score, float(cohort.tau_c[i]))
                treated[i] = admit
                trajectory[decided] = pacer.spent
                decided += 1
                if realise:
                    draw = uniforms[i] if uniforms is not None else self._rng.random(2)
                    y_r = float(draw[0] < cohort.tau_r[i]) if admit else 0.0
                    y_c = float(draw[1] < cohort.tau_c[i]) if admit else 0.0
                    if self.feedback:
                        pacer.observe_outcome(int(admit), y_r, y_c)
                    if self.promoter is not None:
                        self.promoter.observe(version, bool(admit), y_r, y_c)
                    if self.retrainer is not None:
                        self.retrainer.observe(cohort.x[i], bool(admit), y_r, y_c)

        clock = engine.clock if self.interarrival_s is not None else None
        for i, x_row in self.platform.iter_events(cohort):
            if clock is not None:
                target = clock.now() + self.interarrival_s
                due = engine.next_deadline()
                if due is not None and due < target:
                    clock.advance(max(0.0, due - clock.now()))
                    engine.poll()
                    drain()
                clock.advance(max(0.0, target - clock.now()))
            if self.promoter is not None:
                self.promoter.poll()
            if self.retrainer is not None:
                self.retrainer.poll()
            waiting.append((engine.submit(x_row), i))
            engine.poll()
            drain()
        drain(force=True)
        if self.promoter is not None:
            self.promoter.poll()
        if self.retrainer is not None:
            self.retrainer.poll()
        assert decided == n and not waiting
        return ReplayResult(
            n_events=n,
            n_treated=int(treated.sum()),
            budget=float(budget),
            spend=float(pacer.spent),
            incremental_revenue=float(np.sum(cohort.tau_r[treated])),
            oracle_n_treated=0,
            oracle_spend=0.0,
            oracle_revenue=0.0,
            elapsed_seconds=0.0,
            events_per_second=0.0,
            spend_trajectory=trajectory,
            treated=treated,
            engine_stats={k: v - stats_before.get(k, 0) for k, v in engine.stats.items()},
            pacing_history=list(pacer.history),
        )


class LinearROI:
    """Deterministic stub scorer: clipped linear projection of x."""

    def __init__(self, w: np.ndarray) -> None:
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.clip(x @ self.w, 1e-6, 1.0 - 1e-6)


class RepeatingPlatform(Platform):
    """A platform whose cohorts re-present a few users: half the
    arrival slots carry one of 50 earlier rows, so the cache hits."""

    def daily_cohort(self, n, day=1):
        cohort = super().daily_cohort(n, day)
        gen = np.random.default_rng(day)
        index = np.arange(n)
        slots = np.flatnonzero(gen.random(n) < 0.5)
        index[slots] = gen.integers(0, 50, size=slots.size)
        return cohort.subset(index)


@pytest.fixture(scope="module")
def weights():
    probe = criteo_uplift_v2(4000, random_state=5)
    return np.linalg.lstsq(probe.x, probe.roi, rcond=None)[0]


def assert_same_decisions(block: ReplayResult, reference: ReplayResult) -> None:
    np.testing.assert_array_equal(block.treated, reference.treated)
    assert block.spend_trajectory.tobytes() == reference.spend_trajectory.tobytes()
    assert repr(block.pacing_history) == repr(reference.pacing_history)
    assert block.engine_stats == reference.engine_stats
    assert repr((block.spend, block.incremental_revenue)) == repr(
        (reference.spend, reference.incremental_revenue)
    )


def both_replays(build, run):
    """``build(cls)`` returns a fresh replay of class ``cls``; ``run``
    drives it.  Returns (block result, reference result, replays)."""
    block, reference = build(TrafficReplay), build(PerArrivalReplay)
    return run(block), run(reference), (block, reference)


class SlackProbeEngine(ScoringEngine):
    """Counts deadline flushes fired inside ``submit``: a deadline due
    at an arrival (within the 1 ns slack) rather than before it."""

    fired_in_submit = 0

    def submit(self, x_row, key=None):
        before = self.stats["flush_deadline"]
        rid = super().submit(x_row, key)
        self.fired_in_submit += self.stats["flush_deadline"] - before
        return rid


class TimedPromoter(AutoPromoter):
    """Logs the clock time each observation is recorded at, so a test
    sees *when* every arrival was decided, not only how."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.decided_at: list[tuple[float, int]] = []

    def observe(self, version, treated, y_r, y_c) -> None:
        self.decided_at.append((self.clock.now(), version))
        super().observe(version, treated, y_r, y_c)

    def _record_quiet(self, versions, treated, y_r, y_c) -> int:
        n = super()._record_quiet(versions, treated, y_r, y_c)
        self.decided_at.extend((self.clock.now(), version) for version in versions[:n])
        return n


def closed_loop(
    cls,
    weights,
    *,
    gap=0.001,
    max_latency_ms=20.0,
    batch_size=256,
    cache_size=4096,
    step_every_s=0.4,
    check_every=50,
    retrainer=None,
    platform=Platform,
    engine_cls=ScoringEngine,
    challenger=0.8,
):
    """A clocked replay with a promoter ramping a staged challenger
    (``challenger`` times the champion's weights), and a ``retrainer``
    built from the given kwargs, if any."""
    registry = ModelRegistry(random_state=0)
    registry.register(LinearROI(weights), name="champion")
    registry.register(LinearROI(weights * challenger), name="challenger")
    clock = ManualClock()
    engine = engine_cls(
        registry, batch_size=batch_size, cache_size=cache_size, max_latency_ms=max_latency_ms, clock=clock
    )
    promoter = TimedPromoter(
        registry, clock=clock, ramp=(0.1, 0.5, 0.95), step_every_s=step_every_s, min_decided=60,
        check_every=check_every, hold_decided=300,
    )
    if retrainer is not None:
        probe = criteo_uplift_v2(600, random_state=6)
        template = TreatedNetRidge().fit(probe.x, probe.roi, np.ones(probe.n))
        retrainer = Retrainer(registry, template, clock=clock, **retrainer)
    return cls(
        platform(dataset="criteo", random_state=5, drift_day=2),
        engine,
        interarrival_s=gap,
        promoter=promoter,
        retrainer=retrainer,
        feedback=True,
        paired_outcomes=True,
        random_state=11,
    )


def assert_same_loop(got, want, replays) -> None:
    """Decisions, pacer and carry ledgers, latency sketch, promoter and
    retrainer events and every version's ledger repeat the reference."""
    for day_got, day_want in zip(got.days, want.days):
        assert_same_decisions(day_got, day_want)
    assert got.ledger == want.ledger
    block, reference = replays
    assert block.engine.latency_hist.snapshot() == reference.engine.latency_hist.snapshot()
    assert repr(block.promoter.events) == repr(reference.promoter.events)
    assert block.promoter.decided_at == reference.promoter.decided_at
    if block.retrainer is not None:
        assert repr(block.retrainer.events) == repr(reference.retrainer.events)
        assert repr(block.retrainer._reference) == repr(reference.retrainer._reference)
    versions = [[(v.version, v.name, v.stage, v.ledger) for v in r.engine.registry.versions()] for r in replays]
    assert repr(versions[0]) == repr(versions[1])


class TestReplayMatchesPerArrivalReference:
    """The replay against the per-arrival loop: block days, and each
    place a closed loop's run must end, hit on purpose."""

    @pytest.mark.parametrize("feedback", [False, True])
    @pytest.mark.parametrize("paired", [False, True])
    def test_single_engine_day(self, weights, feedback, paired):
        def build(cls):
            engine = ScoringEngine(LinearROI(weights), batch_size=64, cache_size=0)
            return cls(
                Platform(dataset="criteo", random_state=0),
                engine,
                feedback=feedback,
                paired_outcomes=paired,
                random_state=7,
            )

        got, want, _ = both_replays(
            build, lambda r: r.replay_day(2000, pacer_params=dict(min_arm_outcomes=10, refresh_every=32))
        )
        assert_same_decisions(got, want)
        assert got.n_treated > 0

    def test_cache_on_engine_with_repeated_rows(self, weights):
        def build(cls):
            engine = ScoringEngine(LinearROI(weights), batch_size=16, cache_size=64)
            return cls(RepeatingPlatform(dataset="criteo", random_state=1), engine, feedback=True, random_state=3)

        got, want, _ = both_replays(build, lambda r: r.replay_day(1500))
        assert_same_decisions(got, want)
        assert got.engine_stats["cache_hits"] > 300

    def test_sharded_budget_pacer(self, weights):
        def build(cls):
            engine = ScoringEngine(LinearROI(weights), batch_size=32, cache_size=0)
            return cls(Platform(dataset="criteo", random_state=3), engine, feedback=True, random_state=9)

        def run(replay):
            cohort_cost = float(np.sum(Platform(dataset="criteo", random_state=3).daily_cohort(1200, 1).tau_c))
            pacer = ShardedBudgetPacer(0.3 * cohort_cost, 1200, 3, min_arm_outcomes=5, refresh_every=16)
            return replay.replay_day(1200, pacer=pacer)

        got, want, _ = both_replays(build, run)
        assert_same_decisions(got, want)

    def test_sharded_engine_fleet(self, weights):
        def build(cls):
            engine = ShardedScoringEngine(LinearROI(weights), n_shards=2, batch_size=16, cache_size=0)
            return cls(Platform(dataset="criteo", random_state=4), engine, feedback=True, random_state=2)

        got, want, replays = both_replays(build, lambda r: r.replay_day(1000))
        for replay in replays:
            replay.engine.close()
        assert_same_decisions(got, want)

    def test_planned_campaign_with_a_promoter(self, weights):
        def build(cls):
            registry = ModelRegistry(random_state=0)
            registry.register(LinearROI(weights), name="champion")
            registry.register(LinearROI(weights * 0.8), name="challenger")
            clock = ManualClock()
            engine = ScoringEngine(registry, batch_size=256, max_latency_ms=20.0, clock=clock)
            promoter = AutoPromoter(
                registry, clock=clock, ramp=(0.1, 0.5, 0.95), step_every_s=0.4, min_decided=200, check_every=50
            )
            return cls(
                Platform(dataset="criteo", random_state=5, drift_day=2),
                engine,
                interarrival_s=0.001,
                promoter=promoter,
                feedback=True,
                paired_outcomes=True,
                random_state=11,
            )

        def run(replay):
            return replay.replay_days(3, 1200, budget_fraction=0.3, plan_budgets=True)

        got, want, (block, reference) = both_replays(build, run)
        for day_got, day_want in zip(got.days, want.days):
            assert_same_decisions(day_got, day_want)
        assert got.ledger == want.ledger
        # the simulated submit->score waits repeat too
        sketches = [r.engine.latency_hist for r in (block, reference)]
        assert sketches[0].count == sketches[1].count == 3600
        for q in (0.5, 0.999):
            assert sketches[0].quantile(q) == sketches[1].quantile(q)
        events = [[(e.kind, e.at, e.traffic_split) for e in r.promoter.events] for r in (block, reference)]
        assert events[0] == events[1]
        assert len(events[0]) > 1  # the ramp really ran
        versions = [[(v.version, v.ledger.n) for v in r.engine.registry.versions()] for r in (block, reference)]
        assert versions[0] == versions[1]

    def test_planned_campaign_with_a_promoter_and_a_retrainer(self):
        """Deadline flushes on a ManualClock, a promoter ramping and
        killing each staged challenger, and a retrainer refitting every
        0.5 simulated seconds: where each refit stages, or is held and
        staged once the slot frees, repeats too."""
        probe = criteo_uplift_v2(2000, random_state=6)

        def build(cls):
            registry = ModelRegistry(random_state=0)
            registry.register(TreatedNetRidge().fit(probe.x, probe.roi, np.ones(probe.n)), name="champion")
            clock = ManualClock()
            engine = ScoringEngine(registry, batch_size=256, max_latency_ms=20.0, clock=clock)
            promoter = AutoPromoter(
                registry,
                clock=clock,
                ramp=(0.1, 0.5, 0.95),
                step_every_s=0.4,
                metric="revenue",
                min_decided=200,
                check_every=50,
            )
            retrainer = Retrainer(registry, clock=clock, window=1000, min_outcomes=200, every_n_days=0.5 / 86_400)
            return cls(
                Platform(dataset="criteo", random_state=5, drift_day=2),
                engine,
                interarrival_s=0.001,
                promoter=promoter,
                retrainer=retrainer,
                feedback=True,
                paired_outcomes=True,
                random_state=11,
            )

        def run(replay):
            return replay.replay_days(3, 1200, budget_fraction=0.3, plan_budgets=True)

        got, want, (block, reference) = both_replays(build, run)
        for day_got, day_want in zip(got.days, want.days):
            assert_same_decisions(day_got, day_want)
        assert got.ledger == want.ledger
        events = [[(e.kind, e.at, e.traffic_split) for e in r.promoter.events] for r in (block, reference)]
        assert events[0] == events[1]
        refits = [[(e.kind, e.at, e.version) for e in r.retrainer.events] for r in (block, reference)]
        assert refits[0] == refits[1]
        fitted_at = {at for kind, at, _version in refits[0] if kind == "fit"}
        assert any(kind == "hold" for kind, _at, _version in refits[0])
        # a held refit staged by a later poll, once a kill freed the slot
        assert any(kind == "stage" and at not in fitted_at for kind, at, _version in refits[0])
        assert any(kind == "kill" for kind, _at, _split in events[0])
        versions = [[(v.version, v.name, v.ledger.n) for v in r.engine.registry.versions()] for r in (block, reference)]
        assert versions[0] == versions[1]

    def replay_loop(self, n_days=3, n_users=600, **kwargs):
        return both_replays(
            lambda cls: closed_loop(cls, **kwargs),
            lambda r: r.replay_days(n_days, n_users, budget_fraction=0.3, plan_budgets=True),
        )

    def test_a_batch_that_fills_inside_a_run(self, weights):
        """The decisions at a fill kill the challenger and stage refits:
        the rows after the fill route on what they left."""
        got, want, replays = self.replay_loop(
            weights=weights, batch_size=8, check_every=10, challenger=-1.0,
            retrainer=dict(window=300, min_outcomes=100, every_outcomes=150),
        )
        assert_same_loop(got, want, replays)
        kinds = [e.kind for e in replays[0].promoter.events]
        assert "kill" in kinds and kinds.count("start") > 1
        # 8 rows fill before the 20-gap deadline every time
        assert got.days[0].engine_stats["flush_batch_full"] == 600 // 8

    def test_deadlines_due_at_an_arrival_inside_the_slack(self, weights):
        """20 ms after an arrival is 20 gaps of 1 ms summed one by one:
        equal to an arrival's time up to float drift, inside the slack,
        as is each 250-gap ramp boundary."""
        got, want, replays = self.replay_loop(weights=weights, step_every_s=0.25, engine_cls=SlackProbeEngine)
        assert_same_loop(got, want, replays)
        assert replays[0].engine.fired_in_submit == replays[1].engine.fired_in_submit > 0
        ramps = [e for e in replays[0].promoter.events if e.kind in ("start", "ramp")]
        assert len(ramps) > 2
        # each step fires at the arrival on its boundary, not one gap late
        steps = [b.at - a.at for a, b in zip(ramps, ramps[1:]) if b.kind == "ramp"]
        assert steps and all(abs(step - 0.25) < 1e-6 for step in steps)

    def test_cache_on_engine_with_repeated_rows_under_a_clock(self, weights):
        got, want, replays = self.replay_loop(
            weights=weights, batch_size=16, cache_size=64, platform=RepeatingPlatform, check_every=10,
            challenger=-1.0, retrainer=dict(window=300, min_outcomes=100, every_outcomes=150),
        )
        assert_same_loop(got, want, replays)
        assert [e.kind for e in replays[0].promoter.events].count("start") > 1
        assert sum(day.engine_stats["cache_hits"] for day in got.days) > 300

    def test_retrainer_count_drift_and_freeze_inside_blocks(self, weights):
        got, want, replays = self.replay_loop(
            weights=weights,
            n_users=900,
            challenger=-1.0,  # killed, so the held refit stages and ramps
            retrainer=dict(window=400, min_outcomes=110, every_outcomes=170, drift_threshold=0.05),
        )
        assert_same_loop(got, want, replays)
        reasons = {e.reason for e in replays[0].retrainer.events if e.kind == "trigger"}
        assert reasons == {"every_outcomes", "drift"}
        assert any(e.kind == "stage" for e in replays[0].retrainer.events)

    def test_check_every_one_and_no_gap(self, weights):
        """The clock never moves, so runs end only at the batch room, and
        every observation runs the gate."""
        got, want, replays = self.replay_loop(weights=weights, gap=0.0, check_every=1, batch_size=32)
        assert_same_loop(got, want, replays)
        assert got.days[0].engine_stats["flush_batch_full"] == 600 // 32
        ledgers = [v.ledger.n for v in replays[0].engine.registry.versions()]
        assert min(ledgers) >= 60  # both arms past min_decided: the gate ran

    def test_clocked_serial_fleet(self, weights):
        def build(cls):
            clock = ManualClock()
            fleet = ShardedScoringEngine(
                LinearROI(weights), n_shards=2, batch_size=64, cache_size=0, max_latency_ms=20.0, clock=clock
            )
            return cls(Platform(dataset="criteo", random_state=4), fleet, feedback=True, interarrival_s=0.001,
                       random_state=2)

        got, want, replays = both_replays(build, lambda r: r.replay_day(600))
        sketches = [r.engine.latency_hist.snapshot() for r in replays]
        for replay in replays:
            replay.engine.close()
        assert_same_decisions(got, want)
        assert sketches[0] == sketches[1] and sketches[0].count == 600
        assert sketches[0].quantile(0.999) <= 0.020 * (1 + sketches[0].relative_error)

    def test_a_feature_the_retrainer_refuses_stops_both_loops_alike(self, weights):
        """The retrainer raises at a non-finite feature row; the promoter
        has recorded that row and none after it, as per arrival."""

        class NanFeaturePlatform(Platform):
            def daily_cohort(self, n, day=1):
                cohort = super().daily_cohort(n, day).subset(np.arange(n))
                cohort.x[n // 3, 1] = np.nan
                return cohort

        replays = [
            closed_loop(cls, weights, platform=NanFeaturePlatform, check_every=10,
                        retrainer=dict(window=300, min_outcomes=100, every_outcomes=150))
            for cls in (TrafficReplay, PerArrivalReplay)
        ]
        for replay in replays:
            with pytest.raises(ValueError, match="finite"):
                replay.replay_days(2, 600, budget_fraction=0.3, plan_budgets=True)
        block, reference = replays
        assert block.promoter.decided_at == reference.promoter.decided_at
        assert promoter_state(block.promoter) == promoter_state(reference.promoter)
        assert retrainer_state(block.retrainer) == retrainer_state(reference.retrainer)
        assert block.retrainer.n_observed < 600

    @settings(max_examples=12, deadline=None)
    @given(
        gap=st.sampled_from([0.0005, 0.001, 0.0013, 0.0025]),
        max_latency_ms=st.sampled_from([3.0, 10.0, 20.0]),
        step_every_s=st.sampled_from([0.05, 0.1, 0.13]),
        check_every=st.sampled_from([1, 7, 50]),
        batch_size=st.sampled_from([4, 8, 256]),
    )
    def test_property_runs_repeat_the_per_arrival_loop(
        self, weights, gap, max_latency_ms, step_every_s, check_every, batch_size
    ):
        got, want, replays = self.replay_loop(
            weights=weights,
            n_days=2,
            n_users=300,
            gap=gap,
            max_latency_ms=max_latency_ms,
            step_every_s=step_every_s,
            check_every=check_every,
            batch_size=batch_size,
            retrainer=dict(window=200, min_outcomes=60, every_n_days=0.17 / 86_400),
        )
        assert_same_loop(got, want, replays)


# ---------------------------------------------------------------------------
# the block entry points the replay's runs use
# ---------------------------------------------------------------------------
def stamped_engine(*, split=0.0, batch_size=8, cache_size=0, max_latency_ms=5.0):
    registry = ModelRegistry(traffic_split=split, random_state=4)
    tally = [0]
    registry.register(CountingROI(tally), promote=True)
    if split > 0.0:
        registry.register(CountingROI(tally, sign=-1.0))
    return ScoringEngine(
        registry, batch_size=batch_size, cache_size=cache_size, max_latency_ms=max_latency_ms, clock=ManualClock()
    )


def engine_state(engine: ScoringEngine, ids) -> tuple:
    """Everything a stamped block must leave as N ``submit`` calls do."""
    snap = engine.latency_hist.snapshot()
    return (
        list(ids),
        [engine.version_of(rid) for rid in ids],
        engine.stats,
        engine.n_pending,
        engine.next_deadline(),
        (snap.count, snap.sum.hex(), snap.min, snap.max, snap.zero_count, dict(snap.buckets)),
        list(engine._cache.items()),
        [(v.version, v.requests, v.cache_hits) for v in engine.registry.versions()],
    )


def per_row_submits(engine: ScoringEngine, x: np.ndarray, stamps: np.ndarray) -> list[int]:
    clock = engine.clock
    ids = []
    for row, at in zip(x, stamps.tolist()):
        clock.advance(at - clock.now())
        ids.append(engine.submit(row))
    return ids


class TestStampedSubmitBatch:
    """``submit_batch(x, stamps=)`` is N ``submit`` calls made with the
    ``ManualClock`` at each stamp."""

    def twins(self, **kwargs):
        return stamped_engine(**kwargs), stamped_engine(**kwargs)

    def assert_twins(self, block, scalar, x, stamps, ids=None):
        """Run the block on ``block``, the submits on ``scalar``, compare."""
        ref = per_row_submits(scalar, x, stamps)
        block.clock.advance(scalar.clock.now() - block.clock.now())
        got = block.submit_batch(x, stamps=stamps)
        assert engine_state(block, got) == engine_state(scalar, ref)
        block.flush()
        scalar.flush()
        np.testing.assert_array_equal(block.take_block(got), [scalar.take(rid) for rid in ref])
        assert engine_state(block, []) == engine_state(scalar, [])

    @pytest.mark.parametrize(
        "kwargs",
        [dict(cache_size=0), dict(cache_size=4), dict(split=0.4), dict(cache_size=0, max_latency_ms=None)],
        ids=["slab", "cache", "live-split", "no-deadline"],
    )
    def test_a_block_equals_submits_at_its_stamps(self, kwargs):
        block, scalar = self.twins(**kwargs)
        x = np.repeat(np.random.default_rng(1).normal(size=(10, 3)), 2, axis=0)[:19]
        # 0.2 ms apart: the 5 ms deadline the first row arms is not due
        # at the last stamp, and batches of 8 fill inside the block
        stamps = 1.0 + 0.0002 * np.arange(19)
        self.assert_twins(block, scalar, x, stamps)
        assert block.stats["flush_batch_full"] >= 1

    def test_equal_stamps_and_a_pending_head(self):
        block, scalar = self.twins(cache_size=0, batch_size=5)
        x = np.random.default_rng(2).normal(size=(9, 3))
        for engine in (block, scalar):
            engine.clock.advance(0.5)
            engine.submit(x[0])  # arms the deadline at 0.505
        stamps = np.array([0.5, 0.5, 0.501, 0.501, 0.502, 0.503, 0.503, 0.504])
        self.assert_twins(block, scalar, x[1:], stamps)

    @settings(max_examples=60, deadline=None)
    @given(
        pattern=st.lists(st.integers(0, 5), min_size=1, max_size=30),
        gaps=st.lists(st.sampled_from([0.0, 1e-4, 3e-4]), min_size=30, max_size=30),
        head=st.integers(0, 3),
        batch_size=st.integers(1, 9),
        cache_size=st.sampled_from([0, 3]),
        split=st.sampled_from([0.0, 0.5]),
    )
    def test_row_walk_and_slab_match_stamped_submits(self, pattern, gaps, head, batch_size, cache_size, split):
        block, scalar = self.twins(batch_size=batch_size, cache_size=cache_size, split=split, max_latency_ms=None)
        rows = np.random.default_rng(0).normal(size=(6, 2))
        x = rows[pattern]
        for engine in (block, scalar):
            for row in rows[:head]:
                engine.submit(row)
        stamps = np.cumsum(gaps[: len(pattern)])
        self.assert_twins(block, scalar, x, stamps)

    def test_a_stamped_block_on_a_deadline_engine_at_the_slack(self):
        """A deadline a hair (inside the 1 ns slack) past the last
        stamp is due there: refused.  One a little further is not."""
        engine = stamped_engine(cache_size=0, batch_size=64, max_latency_ms=1.0)
        engine.clock.advance(1.0)
        engine.submit(np.zeros(3))  # deadline 1.001
        engine.clock.advance(0.01)
        with pytest.raises(ValueError, match="deadline"):
            engine.submit_batch(np.ones((2, 3)), stamps=[1.0005, 1.001 - 5e-10])
        assert engine.submit_batch(np.ones((2, 3)), stamps=[1.0005, 1.001 - 5e-9]) == range(1, 3)

    @pytest.mark.parametrize(
        "stamps, match",
        [
            ([0.1, np.nan, 0.3], "finite"),
            ([0.1, np.inf, 0.3], "finite"),
            ([0.2, 0.1, 0.3], "non-decreasing"),
            ([0.1, 0.2, 7.0], "later than the clock"),
            ([0.1, 0.2], "shape"),
            ([[0.1, 0.2, 0.3]], "shape"),
            # the armed deadline (0.005 + 0.01) falls before the last stamp
            ([0.006, 0.01, 0.0151], "deadline"),
        ],
    )
    def test_refused_stamps_move_nothing(self, stamps, match):
        engine = stamped_engine(cache_size=4, max_latency_ms=10.0)
        engine.clock.advance(0.005)
        engine.submit(np.full(2, 9.0))
        engine.clock.advance(1.0)
        before = engine_state(engine, [0])
        with pytest.raises(ValueError, match=match):
            engine.submit_batch(np.arange(6.0).reshape(3, 2), stamps=stamps)
        assert engine_state(engine, [0]) == before
        assert engine._next_id == 1

    def test_a_deadline_the_block_would_arm_is_refused(self):
        """No stamp may reach ``stamps[0] + max_latency``: the deadline
        row 0 arms into an empty buffer, and no later than any a row
        arms after a batch fill."""
        engine = stamped_engine(cache_size=0, batch_size=4, max_latency_ms=10.0)
        engine.clock.advance(1.0)
        with pytest.raises(ValueError, match="deadline"):
            engine.submit_batch(np.ones((2, 2)), stamps=[0.0, 0.0101])
        assert engine.stats["requests"] == 0 and engine.next_deadline() is None
        engine.submit_batch(np.ones((2, 2)), stamps=[0.0, 0.0099])  # armed at 0.01
        assert engine.next_deadline() == 0.0 + 0.01
        with pytest.raises(ValueError, match="deadline"):
            # the armed deadline falls at the last stamp
            engine.submit_batch(np.ones((3, 2)), stamps=[0.0099, 0.0099, 0.01])
        # rows 0-1 fill the batch, and row 2 arms 0.0099 + 0.01
        engine.submit_batch(np.ones((3, 2)), stamps=[0.0099, 0.0099, 0.00999])
        assert engine.next_deadline() == 0.00999 + 0.01 and engine.stats["flush_batch_full"] == 1

    def test_an_engine_without_a_clock_refuses_stamps(self):
        engine = ScoringEngine(CountingROI([0]), batch_size=4, cache_size=0)
        with pytest.raises(ValueError, match="clock"):
            engine.submit_batch(np.ones((2, 2)), stamps=[0.0, 0.0])
        assert engine.stats["requests"] == 0

    @pytest.mark.parametrize("max_latency_ms", [20.0, None])
    def test_a_clocked_serial_fleet_forwards_each_shards_stamps(self, max_latency_ms):
        """A deadline-driven fleet ships every row at its arrival; one
        without deadlines ships a feed when its batch's last row comes."""

        def fleet():
            tally = [0]
            return ShardedScoringEngine(
                CountingROI(tally), n_shards=2, batch_size=4, cache_size=0,
                max_latency_ms=max_latency_ms, clock=ManualClock(),
            )

        block, scalar = fleet(), fleet()
        x = np.random.default_rng(3).normal(size=(11, 3))
        stamps = 0.3 + 0.001 * np.arange(11)
        ref = per_row_submits(scalar, x, stamps)
        block.clock.advance(scalar.clock.now())
        got = block.submit_batch(x, stamps=stamps)
        assert list(got) == ref
        for engine in (block, scalar):
            engine.clock.advance(0.05)
            engine.flush()
        np.testing.assert_array_equal(block.take_block(got), [scalar.take(rid) for rid in ref])
        assert block.stats == scalar.stats
        sketches = [engine.latency_hist.snapshot() for engine in (block, scalar)]
        assert sketches[0] == sketches[1] and sketches[0].count == 11
        for engine in (block, scalar):
            engine.close()


# ---------------------------------------------------------------------------
# block records: Histogram.record_many, OutcomeLedger.record_many
# ---------------------------------------------------------------------------
def histogram_state(hist) -> tuple:
    snap = hist.snapshot()
    return snap.count, snap.sum.hex(), snap.min, snap.max, snap.zero_count, dict(snap.buckets)


class TestRecordMany:
    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e-8), st.sampled_from([0.0, 1e-9, 5e-324])),
            max_size=40,
        ),
        cut=st.integers(0, 40),
    )
    def test_histogram_record_many_is_the_record_loop(self, values, cut):
        block, loop = Histogram("h"), Histogram("h")
        block.record_many(values[:cut])
        block.record_many(np.array(values[cut:]))
        for value in values:
            loop.record(value)
        assert histogram_state(block) == histogram_state(loop)

    @pytest.mark.parametrize("bad", [float("nan"), -1e-12, -3.0])
    def test_histogram_refuses_a_bad_value_where_record_does(self, bad):
        values = [0.5, 2.0, bad, 7.0]
        block, loop = Histogram("h"), Histogram("h")
        with pytest.raises(ValueError, match="non-negative"):
            block.record_many(values)
        with pytest.raises(ValueError, match="non-negative"):
            for value in values:
                loop.record(value)
        assert histogram_state(block) == histogram_state(loop) and block.count == 2

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.booleans(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), max_size=40
        )
    )
    def test_ledger_record_many_is_the_record_loop(self, rows):
        block, loop = OutcomeLedger(), OutcomeLedger()
        loop.record(True, 0.1, 0.3)
        block.record(True, 0.1, 0.3)
        treated = [t for t, _r, _c in rows]
        block.record_many(treated, [r for _t, r, _c in rows], [c for _t, _r, c in rows])
        for t, r, c in rows:
            loop.record(t, r, c)
        assert repr(block) == repr(loop)


# ---------------------------------------------------------------------------
# block observes: AutoPromoter.observe_block, Retrainer.observe_block
# ---------------------------------------------------------------------------
def promoter_twin(check_every=7, auto_start=True):
    registry = ModelRegistry(random_state=0)
    registry.register(LinearROI(np.zeros(4)), name="champion")
    registry.register(LinearROI(np.ones(4)), name="challenger")
    clock = ManualClock()
    promoter = AutoPromoter(
        registry, clock=clock, ramp=(0.2, 0.6), min_decided=6, check_every=check_every,
        hold_decided=12, auto_start=auto_start, metric="revenue",
    )
    return promoter


def promoter_state(promoter) -> str:
    registry = promoter.registry
    return repr(
        (
            [(v.version, v.stage, v.ledger) for v in registry.versions()],
            registry.traffic_split,
            promoter.state,
            promoter._since_check,
            promoter._c_observations.value,
            promoter.events,
        )
    )


def outcome_rows(seed, n, versions=(1, 2)):
    """Non-0/1 float outcomes, so every ledger sum depends on its order."""
    gen = np.random.default_rng(seed)
    return (
        [int(v) for v in gen.choice(versions, size=n)],
        (gen.random(n) < 0.6).tolist(),
        (gen.normal(size=n) * 3.7 + 0.1).tolist(),
        (gen.random(n) * 0.9).tolist(),
    )


class TestPromoterObserveBlock:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        cuts=st.lists(st.integers(0, 120), max_size=6),
        check_every=st.integers(1, 9),
        auto_start=st.booleans(),
    )
    def test_blocks_are_the_observe_loop(self, seed, cuts, check_every, auto_start):
        block, loop = promoter_twin(check_every, auto_start), promoter_twin(check_every, auto_start)
        rows = outcome_rows(seed, 120)
        bounds = [0, *sorted(cuts), 120]
        for lo, hi in zip(bounds, bounds[1:]):
            block.observe_block(*(column[lo:hi] for column in rows))
        for row in zip(*rows):
            loop.observe(*row)
        assert promoter_state(block) == promoter_state(loop)

    def test_quiet_rows_end_before_each_gate_check(self):
        promoter = promoter_twin(check_every=5)
        assert promoter.rows_until_event() == 0  # the first row auto-starts
        promoter.observe(1, True, 1.0, 0.5)
        assert promoter.state == "ramping" and promoter.rows_until_event() == 3
        promoter.observe_block([1, 2, 1], [True, False, True], [0.5, 0.0, 2.5], [0.1, 0.0, 0.2])
        assert promoter.rows_until_event() == 0

    @pytest.mark.parametrize(
        "bad, error",
        [((2, True, float("nan"), 0.0), ValueError), ((1, True, 0.0, float("inf")), ValueError), ((9, True, 0.0, 0.0), KeyError)],
    )
    def test_a_bad_row_raises_where_observe_does(self, bad, error):
        block, loop = promoter_twin(check_every=50), promoter_twin(check_every=50)
        versions, treated, y_r, y_c = outcome_rows(3, 12)
        for column, value in zip((versions, treated, y_r, y_c), bad):
            column[8] = value
        with pytest.raises(error):
            block.observe_block(versions, treated, y_r, y_c)
        with pytest.raises(error):
            for row in zip(versions, treated, y_r, y_c):
                loop.observe(*row)
        assert promoter_state(block) == promoter_state(loop)
        assert block.registry.get(1).ledger.n + block.registry.get(2).ledger.n == 8


def retrainer_twin(**triggers):
    probe = criteo_uplift_v2(400, random_state=6)
    registry = ModelRegistry(random_state=0)
    registry.register(TreatedNetRidge().fit(probe.x, probe.roi, np.ones(probe.n)), name="champion")
    clock = ManualClock()
    return Retrainer(registry, clock=clock, window=60, **triggers), probe


def retrainer_state(retrainer) -> str:
    return repr(
        (
            list(retrainer._buffer),
            retrainer._reference,
            retrainer.n_observed,
            retrainer._since_count_trigger,
            retrainer.n_refits,
            retrainer.refit_pending,
            retrainer.events,
            retrainer._c_outcomes.value,
            retrainer._g_fill.value,
            [(v.version, v.name, v.stage) for v in retrainer.registry.versions()],
        )
    )


class TestRetrainerObserveBlock:
    TRIGGERS = [
        dict(min_outcomes=20, every_outcomes=45),
        dict(min_outcomes=30, drift_threshold=0.05),
        dict(min_outcomes=10, every_outcomes=25, drift_threshold=0.2, every_n_days=1.0),
    ]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        cuts=st.lists(st.integers(0, 200), max_size=8),
        triggers=st.sampled_from(TRIGGERS),
    )
    def test_blocks_are_the_observe_loop(self, seed, cuts, triggers):
        (block, probe), (loop, _probe) = retrainer_twin(**triggers), retrainer_twin(**triggers)
        gen = np.random.default_rng(seed)
        x = probe.x[gen.integers(0, probe.n, size=200)] + gen.normal(size=(200, probe.x.shape[1])) * np.linspace(0, 2, 200)[:, None]
        _versions, treated, y_r, y_c = outcome_rows(seed, 200)
        bounds = [0, *sorted(cuts), 200]
        for lo, hi in zip(bounds, bounds[1:]):
            block.observe_block(x[lo:hi], treated[lo:hi], y_r[lo:hi], y_c[lo:hi])
        for row in zip(x, treated, y_r, y_c):
            loop.observe(*row)
        assert retrainer_state(block) == retrainer_state(loop)

    def test_quiet_rows_end_at_each_freeze_trigger_and_drift_check(self):
        retrainer, probe = retrainer_twin(min_outcomes=10, every_outcomes=70, drift_threshold=9.0)
        assert retrainer.rows_until_event() == 9  # row 10 freezes the reference
        retrainer.observe_block(probe.x[:10], [True] * 10, [1.0] * 10, [0.5] * 10)
        assert retrainer._reference is not None
        assert retrainer.rows_until_event() == 53  # row 64 is a drift check
        retrainer.observe_block(probe.x[10:64], [True] * 54, [1.0] * 54, [0.5] * 54)
        assert retrainer.rows_until_event() == 5  # row 70 is the count trigger
        retrainer.observe_block(probe.x[64:70], [True] * 6, [1.0] * 6, [0.5] * 6)
        assert retrainer.n_refits == 1 and retrainer.n_staged == 1
        retrainer.observe_block(probe.x[70:140], [True] * 70, [1.0] * 70, [0.5] * 70)
        # the second refit finds the slot taken: no drift checks while held
        assert retrainer.refit_pending and retrainer.rows_until_event() == 69

    def test_a_due_timer_or_a_free_slot_ends_the_quiet_rows_at_once(self):
        retrainer, probe = retrainer_twin(min_outcomes=5, every_n_days=1 / 86_400)
        retrainer.observe_block(probe.x[:6], [True] * 6, [1.0] * 6, [0.5] * 6)
        assert retrainer.rows_until_event() == math.inf
        retrainer.clock.advance(1.0)
        assert retrainer.rows_until_event() == 0
        retrainer.observe_block(probe.x[6:8], [True] * 2, [1.0] * 2, [0.5] * 2)
        assert [e.kind for e in retrainer.events] == ["trigger", "fit", "stage"]

    def test_a_held_refit_stages_at_the_first_row_after_the_slot_frees(self):
        (block, probe), (loop, _probe) = (retrainer_twin(min_outcomes=5, every_outcomes=6) for _ in range(2))
        rows = (probe.x[:20], [True] * 20, [1.0] * 20, [0.5] * 20)
        for retrainer in (block, loop):
            for row in zip(*(column[:12] for column in rows)):
                retrainer.observe(*row)
            assert retrainer.refit_pending  # the second refit found the slot taken
            retrainer.registry.demote()
        assert block.rows_until_event() == 0
        block.observe_block(*(column[12:] for column in rows))
        for row in zip(*(column[12:] for column in rows)):
            loop.observe(*row)
        assert retrainer_state(block) == retrainer_state(loop)
        stage = [e for e in block.events if e.kind == "stage"][-1]
        assert stage.n_outcomes == 13 and block.n_staged == 2

    @pytest.mark.parametrize("column", ["x", "y_r", "y_c"])
    def test_a_bad_row_raises_where_observe_does(self, column):
        (block, probe), (loop, _probe) = retrainer_twin(min_outcomes=4, every_outcomes=5), retrainer_twin(
            min_outcomes=4, every_outcomes=5
        )
        x, treated, y_r, y_c = probe.x[:12].copy(), [True] * 12, [1.0] * 12, [0.25] * 12
        if column == "x":
            x[7, 2] = np.nan
        else:
            {"y_r": y_r, "y_c": y_c}[column][7] = float("inf")
        with pytest.raises(ValueError, match="finite"):
            block.observe_block(x, treated, y_r, y_c)
        with pytest.raises(ValueError, match="finite"):
            for row in zip(x, treated, y_r, y_c):
                loop.observe(*row)
        assert retrainer_state(block) == retrainer_state(loop)
        assert block.n_observed == 7
