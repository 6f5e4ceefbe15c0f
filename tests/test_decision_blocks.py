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
from repro.runtime import ManualClock, ThreadBackend
from repro.serving import pacing
from repro.serving.engine import ScoringEngine
from repro.serving.pacing import BudgetPacer, EmpiricalCurve, MultiDayPacer
from repro.serving.promotion import AutoPromoter
from repro.serving.registry import ModelRegistry
from repro.serving.sharding import ShardedBudgetPacer, ShardedScoringEngine
from repro.serving.simulator import ReplayResult, TrafficReplay


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
        """Day 2 of an ``"early"`` campaign paces on the tilted curve;
        ``MultiDayPacer.offer_batch`` delegates to the open day."""
        scores, costs = traffic(900, seed=8)

        def make():
            multi = MultiDayPacer(20.0, 300, carryover_mode="early", pacer_params=dict(warmup=20, refresh_every=10))
            multi.start_day()
            for s, c in zip(scores[:300], costs[:300] * 3.0):
                multi.offer(s, c)
            multi.end_day()
            multi.start_day()
            assert multi.carry > 0.0
            return multi

        block, scalar = make(), make()
        pos = 300
        while pos < 900:
            got = block.offer_batch(scores[pos:], costs[pos:])
            for j, admit in enumerate(got.tolist()):
                assert scalar.offer(scores[pos + j], costs[pos + j]) == admit
            pos += got.shape[0]
        assert_same_state(block.current, scalar.current)

    def test_nan_scores_follow_offers_own_threshold_test(self):
        """``score < threshold_`` is False for NaN: offer() admits a NaN
        score whenever the cap allows, lockout included."""
        scores, costs = traffic(300, seed=9)
        scores[::7] = np.nan
        admits, _ = run_twins(
            pacer_factory(0.3 * float(costs.sum()), 300, warmup=10, refresh_every=9, min_arm_outcomes=3),
            scores,
            costs,
            [64, 1, 235],
        )
        assert admits[np.isnan(scores)].any()

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


class TestReplayMatchesPerArrivalReference:
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

    def test_thread_backend_engine(self, weights):
        with ThreadBackend(2) as backend:

            def build(cls):
                engine = ScoringEngine(LinearROI(weights), batch_size=32, cache_size=0, backend=backend)
                return cls(Platform(dataset="criteo", random_state=2), engine, feedback=True, random_state=5)

            got, want, _ = both_replays(build, lambda r: r.replay_day(1500))
        assert_same_decisions(got, want)

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
