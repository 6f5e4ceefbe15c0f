"""Tests for the A/B-test platform simulator and harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ab.experiment import RANDOM_ARM, ABTest
from repro.ab.platform import Platform
from repro.data.rct import RCTDataset
from repro.runtime import SerialBackend


@pytest.fixture
def platform():
    return Platform(dataset="criteo", random_state=0)


def make_cohort(n=80, seed=0, tau_c=None):
    """A small hand-built cohort with controllable ground-truth costs."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    tau_c = np.full(n, 0.4) if tau_c is None else np.broadcast_to(tau_c, (n,)).copy()
    tau_r = 0.5 * tau_c
    return RCTDataset(
        x=x,
        t=np.zeros(n, dtype=np.int64),
        y_r=np.zeros(n),
        y_c=np.zeros(n),
        tau_r=tau_r,
        tau_c=tau_c,
        roi=tau_r / tau_c,
        name="toy",
    )


class TestPlatform:
    def test_daily_cohort_shape(self, platform):
        cohort = platform.daily_cohort(500, day=1)
        assert cohort.n == 500
        assert cohort.n_features == 12

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("dataset", ["criteo", "meituan", "alibaba"])
    def test_every_cohort_size_from_three_draws(self, dataset, shifted):
        """Regression: sizes 3-8 (3-4 shifted) asked the generator for a
        pool below its minimum and raised its error, which named a pool
        size the caller never asked for."""
        p = Platform(dataset=dataset, shifted=shifted, random_state=0)
        for n in range(3, 12):
            assert p.daily_cohort(n, day=1).n == n

    def test_day_effect_modulates_effects(self):
        p = Platform(dataset="criteo", day_effect=0.3, random_state=0)
        day2 = p.daily_cohort(4000, day=2)  # sin(4pi/7) > 0 -> boosted
        day5 = p.daily_cohort(4000, day=5)  # sin(10pi/7) < 0 -> damped
        assert day2.tau_r.mean() > day5.tau_r.mean()

    def test_shifted_platform_tilts_cohorts(self):
        from repro.data.shift import shift_direction

        base = Platform(dataset="criteo", shifted=False, random_state=0)
        shifted = Platform(dataset="criteo", shifted=True, random_state=0)
        c_base = base.daily_cohort(4000, day=1)
        c_shift = shifted.daily_cohort(4000, day=1)
        d = shift_direction(c_base)
        assert float((c_shift.x @ d).mean()) > float((c_base.x @ d).mean()) + 0.2

    def test_realize_arm_budget(self, platform):
        cohort = platform.daily_cohort(400, day=1)
        order = np.arange(400)
        outcome = platform.realize_arm(cohort, order, budget=10.0)
        assert outcome["spend"] <= 10.0 + 1e-9
        assert outcome["n_treated"] >= 1
        assert outcome["revenue"] >= outcome["baseline_revenue"]

    def test_realize_arm_budget_zero_treats_nobody(self, platform):
        """Regression: budget=0 used to still treat the first user."""
        cohort = make_cohort(50)
        out = platform.realize_arm(cohort, np.arange(50), budget=0.0)
        assert out["n_treated"] == 0
        assert out["spend"] == 0.0
        assert out["incremental_revenue"] == 0.0
        assert out["revenue"] == out["baseline_revenue"]

    def test_realize_arm_exact_boundary_stops_before_crossing(self, platform):
        """Regression: the draw that reaches B is not made (spend < B)."""
        # near-certain unit costs make the spend-down deterministic
        cohort = make_cohort(40, tau_c=1.0 - 1e-12)
        out = platform.realize_arm(cohort, np.arange(40), budget=5.0)
        assert out["n_treated"] == 4  # the 5th draw would hit B exactly
        assert out["spend"] == 4.0

    @settings(max_examples=40, deadline=None)
    @given(
        budget=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_realize_arm_never_overspends(self, budget, seed):
        """Property: spend <= budget always; strictly below when B > 0."""
        rng = np.random.default_rng(seed)
        platform = Platform(dataset="criteo", random_state=seed)
        cohort = make_cohort(60, seed=seed, tau_c=rng.uniform(0.05, 0.95, 60))
        order = rng.permutation(60)
        out = platform.realize_arm(cohort, order, budget=budget)
        assert out["spend"] <= budget
        if budget == 0.0:
            assert out["n_treated"] == 0
        if budget > 0.0:
            assert out["spend"] < budget

    def test_realize_arm_bad_order(self, platform):
        cohort = platform.daily_cohort(50, day=1)
        with pytest.raises(ValueError, match="permutation"):
            platform.realize_arm(cohort, np.zeros(50, dtype=int), budget=1.0)

    def test_realize_arm_negative_budget(self, platform):
        cohort = platform.daily_cohort(50, day=1)
        with pytest.raises(ValueError, match="budget"):
            platform.realize_arm(cohort, np.arange(50), budget=-1.0)

    def test_realize_arm_nan_budget_rejected(self, platform):
        """NaN would searchsort past every cost and treat the whole arm."""
        cohort = make_cohort(20)
        with pytest.raises(ValueError, match="budget"):
            platform.realize_arm(cohort, np.arange(20), budget=float("nan"))
        with pytest.raises(ValueError, match="budgets"):
            platform.realize_arms(cohort, [np.arange(20)], [float("nan")])

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="day_effect"):
            Platform(day_effect=1.5)
        with pytest.raises(ValueError, match="base_revenue_rate"):
            Platform(base_revenue_rate=0.0)

    def test_daily_cohort_retries_with_larger_oversample(self, monkeypatch):
        """An under-producing draw doubles the oversample and retries."""
        from repro.ab import platform as platform_module

        real = platform_module.load_dataset
        requested = []

        def flaky(name, n, random_state=None):
            requested.append(n)
            if len(requested) == 1:
                return real(name, 50, random_state=random_state)
            return real(name, n, random_state=random_state)

        monkeypatch.setattr(platform_module, "load_dataset", flaky)
        cohort = Platform(dataset="criteo", random_state=0).daily_cohort(200, day=1)
        assert cohort.n == 200
        assert len(requested) == 2
        assert requested[1] == 2 * requested[0]

    def test_shifted_cohort_retries_on_short_pool(self, monkeypatch):
        """A pool too small to tilt retries instead of raising ValueError."""
        from repro.ab import platform as platform_module

        real = platform_module.load_dataset
        requested = []

        def flaky(name, n, random_state=None):
            requested.append(n)
            if len(requested) == 1:
                return real(name, 50, random_state=random_state)  # < n: can't tilt
            return real(name, n, random_state=random_state)

        monkeypatch.setattr(platform_module, "load_dataset", flaky)
        p = Platform(dataset="criteo", shifted=True, random_state=0)
        cohort = p.daily_cohort(200, day=1)
        assert cohort.n == 200
        assert len(requested) == 2
        assert requested[1] == 2 * requested[0]

    def test_daily_cohort_gives_up_after_three_attempts(self, monkeypatch):
        from repro.ab import platform as platform_module

        real = platform_module.load_dataset
        requested = []

        def starved(name, n, random_state=None):
            requested.append(n)
            return real(name, 10, random_state=random_state)

        monkeypatch.setattr(platform_module, "load_dataset", starved)
        with pytest.raises(RuntimeError, match="oversample"):
            Platform(dataset="criteo", random_state=0).daily_cohort(200, day=1)
        assert len(requested) == 3

    def test_iter_events_streams_whole_cohort(self, platform):
        cohort = platform.daily_cohort(120, day=1)
        events = list(platform.iter_events(cohort, random_state=4))
        assert sorted(i for i, _x in events) == list(range(120))
        for i, x_row in events[:5]:
            np.testing.assert_array_equal(x_row, cohort.x[i])


class TestRealizeArms:
    def _partition(self, n, n_arms, rng):
        perm = rng.permutation(n)
        return np.array_split(perm, n_arms)

    def test_matches_realize_arm_contract(self, platform):
        cohort = make_cohort(90, seed=1, tau_c=np.linspace(0.1, 0.9, 90))
        rng = np.random.default_rng(2)
        orders = self._partition(90, 3, rng)
        budgets = [3.0, 0.0, 1e9]
        outs = platform.realize_arms(cohort, orders, budgets)
        assert len(outs) == 3
        for out, order, budget in zip(outs, orders, budgets):
            assert set(out) == {
                "revenue",
                "baseline_revenue",
                "incremental_revenue",
                "spend",
                "n_treated",
            }
            assert out["spend"] <= budget
            assert 0 <= out["n_treated"] <= len(order)
            assert out["revenue"] == pytest.approx(
                out["baseline_revenue"] + out["incremental_revenue"]
            )
        assert outs[1]["n_treated"] == 0  # budget=0 arm treats nobody
        assert outs[2]["n_treated"] == len(orders[2])  # unbounded arm treats all

    def test_partial_coverage_allowed(self, platform):
        cohort = make_cohort(100)
        orders = [np.arange(10), np.arange(50, 70)]
        outs = platform.realize_arms(cohort, orders, [5.0, 5.0])
        assert outs[0]["baseline_revenue"] == pytest.approx(10 * platform.base_revenue_rate)
        assert outs[1]["baseline_revenue"] == pytest.approx(20 * platform.base_revenue_rate)

    def test_overlapping_arms_rejected(self, platform):
        cohort = make_cohort(30)
        with pytest.raises(ValueError, match="disjoint"):
            platform.realize_arms(cohort, [np.arange(10), np.arange(5, 15)], [1.0, 1.0])

    def test_out_of_range_rejected(self, platform):
        cohort = make_cohort(30)
        with pytest.raises(ValueError, match="range"):
            platform.realize_arms(cohort, [np.array([0, 30])], [1.0])

    def test_mismatched_budgets_rejected(self, platform):
        cohort = make_cohort(30)
        with pytest.raises(ValueError, match="budgets"):
            platform.realize_arms(cohort, [np.arange(10)], [1.0, 2.0])

    def test_negative_budget_rejected(self, platform):
        cohort = make_cohort(30)
        with pytest.raises(ValueError, match="budgets"):
            platform.realize_arms(cohort, [np.arange(10)], [-1.0])

    def test_spend_semantics_match_realize_arm(self):
        """Both paths enforce the same strict boundary on the same draws."""
        cohort = make_cohort(64, tau_c=1.0 - 1e-12)  # deterministic unit costs
        p = Platform(dataset="criteo", random_state=0)
        outs = p.realize_arms(cohort, [np.arange(32), np.arange(32, 64)], [7.0, 3.0])
        assert [o["n_treated"] for o in outs] == [6, 2]
        assert [o["spend"] for o in outs] == [6.0, 2.0]


class TestChunkedCohorts:
    def test_chunked_matches_requested_size(self):
        p = Platform(dataset="criteo", chunk_size=400, random_state=0)
        cohort = p.daily_cohort(1500, day=2)
        assert cohort.n == 1500
        assert cohort.n_features == 12
        assert np.all(cohort.tau_c > 0)

    def test_chunked_low_yield_generator(self):
        """meituan keeps ~40% of generated rows; chunking must adapt."""
        p = Platform(dataset="meituan", chunk_size=300, random_state=0)
        cohort = p.daily_cohort(1000, day=1)
        assert cohort.n == 1000

    def test_chunked_shifted_cohort_is_tilted(self):
        from repro.data.shift import shift_direction

        base = Platform(dataset="criteo", chunk_size=500, random_state=0)
        shifted = Platform(dataset="criteo", shifted=True, chunk_size=500, random_state=0)
        c_base = base.daily_cohort(2000, day=1)
        c_shift = shifted.daily_cohort(2000, day=1)
        assert c_shift.n == 2000
        d = shift_direction(c_base)
        assert float((c_shift.x @ d).mean()) > float((c_base.x @ d).mean()) + 0.15

    def test_chunked_day_effect_applied(self):
        p = Platform(dataset="criteo", day_effect=0.3, chunk_size=500, random_state=0)
        day2 = p.daily_cohort(2000, day=2)  # sin(4pi/7) > 0 -> boosted
        day5 = p.daily_cohort(2000, day=5)  # sin(10pi/7) < 0 -> damped
        assert day2.tau_r.mean() > day5.tau_r.mean()

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            Platform(chunk_size=5)


class TestCRNUniforms:
    """Externally-supplied per-user uniforms (the CRN hook)."""

    def test_supplied_uniforms_are_deterministic(self, platform):
        cohort = make_cohort(60, tau_c=np.linspace(0.1, 0.9, 60))
        rng = np.random.default_rng(3)
        cost_u, reward_u = rng.random(60), rng.random(60)
        order = np.arange(60)
        a = platform.realize_arm(cohort, order, 8.0, cost_uniforms=cost_u, reward_uniforms=reward_u)
        b = platform.realize_arm(cohort, order, 8.0, cost_uniforms=cost_u, reward_uniforms=reward_u)
        assert a == b

    def test_supplied_uniforms_leave_platform_stream_untouched(self):
        p1 = Platform(dataset="criteo", random_state=42)
        p2 = Platform(dataset="criteo", random_state=42)
        cohort = make_cohort(40)
        u = np.random.default_rng(0).random(40)
        p1.realize_arm(cohort, np.arange(40), 5.0, cost_uniforms=u, reward_uniforms=u)
        # p1 realised a full arm with supplied draws; p2 did nothing —
        # their streams must still coincide
        assert p1._rng.random() == p2._rng.random()

    def test_same_user_same_outcome_under_any_order(self, platform):
        """The CRN property: a user's realised cost/reward is a function
        of the user, not of the position a policy treats them in."""
        cohort = make_cohort(50, tau_c=np.linspace(0.05, 0.95, 50))
        u = np.random.default_rng(1).random(50)
        big = 1e9  # everyone treated under both orders
        fwd = platform.realize_arm(
            cohort, np.arange(50), big, cost_uniforms=u, reward_uniforms=u
        )
        rev = platform.realize_arm(
            cohort, np.arange(50)[::-1], big, cost_uniforms=u, reward_uniforms=u
        )
        assert fwd["spend"] == rev["spend"]
        assert fwd["incremental_revenue"] == rev["incremental_revenue"]
        assert fwd["n_treated"] == rev["n_treated"] == 50

    def test_wrong_length_rejected(self, platform):
        cohort = make_cohort(30)
        with pytest.raises(ValueError, match="cost_uniforms"):
            platform.realize_arms(cohort, [np.arange(30)], [1.0], cost_uniforms=np.zeros(29))
        with pytest.raises(ValueError, match="reward_uniforms"):
            platform.realize_arms(cohort, [np.arange(30)], [1.0], reward_uniforms=np.zeros(31))

    def test_out_of_range_rejected(self, platform):
        cohort = make_cohort(30)
        bad = np.zeros(30)
        bad[4] = 1.0  # uniforms live in [0, 1)
        with pytest.raises(ValueError, match="cost_uniforms"):
            platform.realize_arms(cohort, [np.arange(30)], [1.0], cost_uniforms=bad)
        with pytest.raises(ValueError, match="reward_uniforms"):
            platform.realize_arms(cohort, [np.arange(30)], [1.0], reward_uniforms=-bad)


class TestParallelGeneration:
    """A worker-pool ``backend=`` must change wall time only, never output."""

    def test_daily_cohort_bit_identical(self, process_pool):
        serial = Platform(dataset="criteo", chunk_size=300, random_state=9)
        pooled = Platform(dataset="criteo", chunk_size=300, backend=process_pool, random_state=9)
        a = serial.daily_cohort(1000, day=2)
        b = pooled.daily_cohort(1000, day=2)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.tau_r, b.tau_r)
        np.testing.assert_array_equal(a.tau_c, b.tau_c)

    def test_shifted_daily_cohort_bit_identical(self, process_pool):
        serial = Platform(dataset="criteo", shifted=True, chunk_size=300, random_state=9)
        pooled = Platform(
            dataset="criteo", shifted=True, chunk_size=300, backend=process_pool, random_state=9
        )
        a = serial.daily_cohort(800, day=1)
        b = pooled.daily_cohort(800, day=1)
        np.testing.assert_array_equal(a.x, b.x)

    def test_per_call_override_wins(self, process_pool):
        pooled = Platform(dataset="criteo", chunk_size=300, backend=process_pool, random_state=9)
        serial = Platform(dataset="criteo", chunk_size=300, random_state=9)
        a = pooled.daily_cohort(700, day=1, backend=SerialBackend())
        b = serial.daily_cohort(700, day=1)
        np.testing.assert_array_equal(a.x, b.x)

    def test_abtest_run_bit_identical(self, process_pool):
        """End-to-end: partitions, orders, and realised outcomes match
        because the platform stream advances identically either way."""
        def run(backend):
            platform = Platform(dataset="criteo", chunk_size=300, random_state=5)
            test = ABTest(
                platform,
                {"m": lambda x: x[:, 0]},
                budget_fraction=0.3,
                random_state=5,
                backend=backend,
            )
            return test.run(n_days=2, cohort_size=700)

        serial, pooled = run(None), run(process_pool)
        for day_s, day_p in zip(serial.days, pooled.days):
            assert day_s == day_p

    def test_invalid_n_workers(self):
        """The pool size belongs to the backend, not the platform."""
        with pytest.raises(TypeError, match="n_workers"):
            Platform(n_workers=0)


class TestABTest:
    def test_runs_and_reports(self, platform):
        policies = {"constant": lambda x: np.ones(x.shape[0])}
        test = ABTest(platform, policies, budget_fraction=0.3, random_state=0)
        result = test.run(n_days=3, cohort_size=600)
        assert len(result.days) == 3
        assert set(result.days[0].revenue) == {"constant", RANDOM_ARM}
        uplift = result.uplift_vs_random
        assert list(uplift) == ["constant"]
        assert len(uplift["constant"]) == 3

    def test_good_policy_beats_random(self):
        """A policy ranking by a noisy view of the true ROI must win."""
        platform = Platform(dataset="criteo", random_state=1)
        # build a 'semi-oracle' policy: the first features drive the true
        # ROI in the analogs, so their projection correlates with it
        from repro.data import criteo_uplift_v2

        probe = criteo_uplift_v2(4000, random_state=5)
        weights = np.linalg.lstsq(probe.x, probe.roi, rcond=None)[0]

        policies = {"semi_oracle": lambda x: x @ weights}
        test = ABTest(platform, policies, budget_fraction=0.3, random_state=0)
        result = test.run(n_days=5, cohort_size=3000)
        mean_uplift = result.mean_uplift()["semi_oracle"]
        assert mean_uplift > 0.0

    def test_reserved_arm_name(self, platform):
        with pytest.raises(ValueError, match="reserved"):
            ABTest(platform, {RANDOM_ARM: lambda x: np.ones(len(x))})

    def test_empty_policies(self, platform):
        with pytest.raises(ValueError, match="At least one"):
            ABTest(platform, {})

    def test_cohort_too_small(self, platform):
        policies = {"a": lambda x: np.ones(x.shape[0])}
        test = ABTest(platform, policies)
        with pytest.raises(ValueError, match="too small"):
            test.run(n_days=1, cohort_size=15)

    def test_policy_returning_wrong_length_rejected(self, platform):
        policies = {"broken": lambda x: np.ones(3)}
        test = ABTest(platform, policies, random_state=0)
        with pytest.raises(ValueError, match="scores"):
            test.run(n_days=1, cohort_size=600)

    def test_invalid_budget_fraction(self, platform):
        with pytest.raises(ValueError, match="budget_fraction"):
            ABTest(platform, {"a": lambda x: np.ones(len(x))}, budget_fraction=0.0)

    def test_remainder_users_not_discarded(self, platform):
        """Regression: cohort_size % n_arms users used to be dropped."""
        policies = {
            "a": lambda x: np.ones(x.shape[0]),
            "b": lambda x: -np.ones(x.shape[0]),
        }
        test = ABTest(platform, policies, random_state=0)
        result = test.run(n_days=1, cohort_size=100)  # 100 % 3 == 1
        day = result.days[0]
        assert sum(day.n_users.values()) == 100
        assert sorted(day.n_users.values()) == [33, 33, 34]
        # the recorded sizes match the realised (expected) baselines
        for arm in day.revenue:
            baseline = day.revenue[arm] - day.incremental_revenue[arm]
            assert baseline == pytest.approx(day.n_users[arm] * platform.base_revenue_rate)

    def test_uplift_normalised_per_user(self):
        """A remainder user must not bias uplift_vs_random upward."""
        from repro.ab.experiment import ABTestResult, DayResult

        # identical per-user revenue, one extra user in the model arm:
        # raw revenue differs, per-user uplift must be exactly zero
        day = DayResult(
            day=1,
            revenue={"m": 50.5, RANDOM_ARM: 50.0},
            incremental_revenue={"m": 0.0, RANDOM_ARM: 0.0},
            spend={"m": 0.0, RANDOM_ARM: 0.0},
            n_treated={"m": 0, RANDOM_ARM: 0},
            n_users={"m": 101, RANDOM_ARM: 100},
        )
        result = ABTestResult(days=[day])
        assert result.uplift_vs_random["m"][0] == pytest.approx(0.0)

    def test_run_day_on_fixed_cohort(self, platform):
        policies = {"constant": lambda x: np.ones(x.shape[0])}
        test = ABTest(platform, policies, random_state=0)
        cohort = platform.daily_cohort(300, day=1)
        day = test.run_day(cohort, day=7)
        assert day.day == 7
        assert set(day.revenue) == {"constant", RANDOM_ARM}
        assert all(s >= 0 for s in day.spend.values())

    def test_arm_spend_never_exceeds_budget(self, platform, monkeypatch):
        """The harness-level view of the strict C-BTAP constraint."""
        seen_budgets = []
        real = platform.realize_arms

        def spy(cohort, orders, budgets):
            seen_budgets.append(list(budgets))
            return real(cohort, orders, budgets)

        monkeypatch.setattr(platform, "realize_arms", spy)
        policies = {"a": lambda x: x[:, 0]}
        test = ABTest(platform, policies, budget_fraction=0.2, random_state=0)
        result = test.run(n_days=2, cohort_size=400)
        assert len(seen_budgets) == 2
        for day, budgets in zip(result.days, seen_budgets):
            spends = [day.spend[arm] for arm in list(test.policies) + [RANDOM_ARM]]
            for spend, budget in zip(spends, budgets):
                assert spend <= budget
