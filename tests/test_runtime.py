"""Tests for the execution layer (``repro.runtime``) and its consumers.

Covers the backend contract (lazy start, reuse, restart, exception
transport), the clock/deadline primitives, and the cross-layer
guarantees the runtime refactor exists for: chunked generation on a
*shared* pool stays bit-identical to serial, and a multi-day parallel
``ABTest``/``PolicyReplay`` run starts **exactly one** worker pool.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ab.experiment import ABTest
from repro.ab.platform import Platform
from repro.ab.replay import PolicyReplay
from repro.data.settings import iter_dataset_chunks
from repro.runtime import (
    DeadlineLoop,
    ExecutionBackend,
    ManualClock,
    ProcessBackend,
    SerialBackend,
    SystemClock,
    resolve_n_workers,
)


def _square(v):
    """Module-level so ProcessBackend can pickle it."""
    return v * v


def _boom():
    raise RuntimeError("worker exploded")


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------
class TestSerialBackend:
    def test_submit_runs_inline_and_future_is_done(self):
        backend = SerialBackend()
        future = backend.submit(_square, 7)
        assert future.done()
        assert future.result() == 49

    def test_exception_is_carried_not_raised_at_submit(self):
        backend = SerialBackend()
        future = backend.submit(_boom)
        assert future.done()
        with pytest.raises(RuntimeError, match="exploded"):
            future.result()

    def test_no_pool_ever_starts(self):
        backend = SerialBackend()
        for v in range(5):
            backend.submit(_square, v)
        assert backend.start_count == 0
        assert backend.n_workers == 1

    def test_context_manager_and_protocol(self):
        with SerialBackend() as backend:
            assert isinstance(backend, ExecutionBackend)
            assert backend.submit(_square, 3).result() == 9


@pytest.mark.parametrize("backend_cls", [ProcessBackend])
class TestPoolBackends:
    def test_lazy_start_and_reuse(self, backend_cls):
        with backend_cls(2) as backend:
            assert backend.start_count == 0  # constructing costs nothing
            assert not backend.running
            results = [backend.submit(_square, v).result() for v in range(6)]
            assert results == [v * v for v in range(6)]
            assert backend.start_count == 1  # every submit shared one pool
            assert backend.running

    def test_shutdown_then_restart_counts_again(self, backend_cls):
        backend = backend_cls(2)
        backend.submit(_square, 2).result()
        backend.shutdown()
        assert not backend.running
        assert backend.submit(_square, 3).result() == 9  # usable again
        assert backend.start_count == 2
        backend.shutdown()

    def test_shutdown_idempotent(self, backend_cls):
        backend = backend_cls(1)
        backend.shutdown()  # never started: fine
        backend.submit(_square, 2).result()
        backend.shutdown()
        backend.shutdown()

    def test_worker_exception_carried_by_future(self, backend_cls):
        with backend_cls(1) as backend:
            with pytest.raises(RuntimeError, match="exploded"):
                backend.submit(_boom).result()

    def test_invalid_n_workers(self, backend_cls):
        with pytest.raises(ValueError, match="n_workers"):
            backend_cls(0)


class TestResolveNWorkers:
    def test_none_means_all_cpus(self):
        assert resolve_n_workers(None) >= 1

    def test_passthrough_and_validation(self):
        assert resolve_n_workers(3) == 3
        with pytest.raises(ValueError, match="n_workers"):
            resolve_n_workers(-1)


# ---------------------------------------------------------------------------
# clocks and the deadline loop
# ---------------------------------------------------------------------------
class TestClocks:
    def test_manual_clock_only_moves_when_told(self):
        clock = ManualClock(start=10.0)
        assert clock.now() == 10.0
        assert clock.advance(2.5) == 12.5
        assert clock.now() == 12.5

    def test_manual_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError, match="negative"):
            ManualClock().advance(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_manual_clock_refuses_non_finite_time(self, bad):
        """A NaN or infinite time used to be accepted: after advance(nan)
        the clock read NaN for ever and no deadline fired again."""
        with pytest.raises(ValueError, match="finite"):
            ManualClock(start=bad)
        clock = ManualClock()
        fired: list[float] = []
        loop = DeadlineLoop(clock, lambda: fired.append(clock.now()))
        loop.schedule(1.0)
        with pytest.raises(ValueError, match="non-finite"):
            clock.advance(bad)
        assert clock.now() == 0.0  # refused before the clock moved
        clock.advance(5.0)
        assert loop.poll() == 1
        assert fired == [5.0]

    def test_system_clock_is_monotone(self):
        clock = SystemClock()
        a = clock.now()
        b = clock.now()
        assert b >= a


class TestDeadlineLoop:
    def test_fires_once_when_due(self):
        clock = ManualClock()
        fired: list[float] = []
        loop = DeadlineLoop(clock, lambda: fired.append(clock.now()))
        loop.schedule(1.0)
        assert loop.poll() == 0  # nothing due yet
        clock.advance(1.5)
        assert loop.poll() == 1
        assert fired == [1.5]
        assert loop.next_deadline() is None
        assert loop.poll() == 0  # fired once, then disarmed

    def test_a_deadline_within_the_slack_is_due(self):
        loop = DeadlineLoop(ManualClock(1.0), lambda: None)
        loop.schedule(1.0 + 5e-10)  # float drift past the deadline
        assert loop.poll() == 1

    def test_schedule_replaces_the_armed_deadline(self):
        clock = ManualClock()
        loop = DeadlineLoop(clock, lambda: None)
        loop.schedule(1.0)
        loop.schedule(5.0)
        assert loop.next_deadline() == 5.0
        clock.advance(2.0)
        assert loop.poll() == 0  # the 1.0 deadline no longer exists
        clock.advance(4.0)
        assert loop.poll() == 1

    def test_cancel(self):
        clock = ManualClock()
        loop = DeadlineLoop(clock, lambda: None)
        loop.schedule_in(1.0)
        assert loop.next_deadline() == 1.0
        loop.cancel()
        loop.cancel()  # a no-op when nothing is armed
        clock.advance(2.0)
        assert loop.poll() == 0
        assert loop.next_deadline() is None

    def test_the_owner_passes_its_callback_once(self):
        loop = DeadlineLoop(ManualClock(), lambda: None)
        with pytest.raises(TypeError):
            loop.schedule("k", 1.0)
        with pytest.raises(TypeError):
            loop.schedule_in("k", 1.0)
        assert loop.next_deadline() is None

    def test_schedule_in_rejects_negative_delay(self):
        loop = DeadlineLoop(ManualClock(), lambda: None)
        loop.schedule(5.0)
        with pytest.raises(ValueError, match="delay"):
            loop.schedule_in(-0.1)
        assert loop.next_deadline() == 5.0

    @pytest.mark.parametrize("call", ["schedule", "schedule_in"])
    def test_nan_deadline_is_refused_before_anything_is_stored(self, call):
        """Regression: a NaN delay passed the ``delay < 0`` check and
        stored a deadline that never fires."""
        clock = ManualClock(10.0)
        loop = DeadlineLoop(clock, lambda: None)
        loop.schedule(50.0)
        with pytest.raises(ValueError, match="NaN|delay"):
            getattr(loop, call)(math.nan)
        assert loop.next_deadline() == 50.0
        clock.advance(100.0)
        assert loop.poll() == 1
        assert loop.next_deadline() is None

    def test_callback_may_reschedule_itself(self):
        clock = ManualClock()
        ticks: list[float] = []

        def tick():
            ticks.append(clock.now())
            if len(ticks) < 3:
                loop.schedule_in(1.0)

        loop = DeadlineLoop(clock, tick)
        loop.schedule_in(1.0)
        for _ in range(5):
            clock.advance(1.0)
            loop.poll()
        assert ticks == [1.0, 2.0, 3.0]

    def test_a_later_deadline_already_due_fires_in_the_same_poll(self):
        """A late poll catches up: a callback re-arming one period after
        the deadline it fired fires again while that is still due."""
        clock = ManualClock()
        fired: list[float | None] = []

        def step():
            fired.append(loop.next_deadline())  # None: disarmed while firing
            if len(fired) < 5:
                loop.schedule(10.0 * (len(fired) + 1))

        loop = DeadlineLoop(clock, step)
        loop.schedule(10.0)
        clock.advance(31.0)
        assert loop.poll() == 3  # 10, 20 and 30 are due at 31
        assert loop.next_deadline() == 40.0
        assert fired == [None] * 3

    @pytest.mark.parametrize("start", [0.0, 1e17])
    def test_a_rearm_at_or_before_the_fired_deadline_waits(self, start):
        """Regression: a callback re-arming within the 1 ns slack (or
        by a period a large clock value absorbs) fired again in the same
        poll without end."""
        clock = ManualClock(start)
        fired: list[float] = []

        def tick():
            fired.append(clock.now())
            if len(fired) > 50:
                raise RuntimeError("poll is spinning")
            loop.schedule_in(1e-10)

        loop = DeadlineLoop(clock, tick)
        loop.schedule_in(1e-10)
        assert loop.poll() == 1
        assert loop.next_deadline() == start + 1e-10
        assert loop.poll() == 1  # armed for the next poll, not lost
        assert fired == [start, start]

    def test_idle_poll_reads_the_clock_once(self):
        reads = []

        class CountingClock(ManualClock):
            def now(self):
                reads.append(1)
                return super().now()

        loop = DeadlineLoop(CountingClock(), lambda: None)
        assert loop.poll() == 0 and reads == []  # nothing armed
        loop.schedule(5.0)
        assert loop.poll() == 0
        assert len(reads) == 1


# ---------------------------------------------------------------------------
# shared-backend chunk generation
# ---------------------------------------------------------------------------
def _assert_datasets_equal(a, b):
    assert a.n == b.n
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.tau_r, b.tau_r)
    np.testing.assert_array_equal(a.tau_c, b.tau_c)


class TestSharedBackendChunks:
    def test_backend_bit_identical_to_serial(self):
        serial = list(iter_dataset_chunks("criteo", 1200, chunk_size=300, random_state=7))
        with ProcessBackend(2) as backend:
            shared = list(
                iter_dataset_chunks(
                    "criteo", 1200, chunk_size=300, random_state=7, backend=backend
                )
            )
        assert [c.n for c in serial] == [c.n for c in shared]
        for a, b in zip(serial, shared):
            _assert_datasets_equal(a, b)

    def test_one_pool_serves_many_calls(self):
        """The whole point: no churn — two draws, one pool startup."""
        with ProcessBackend(2) as backend:
            list(iter_dataset_chunks("criteo", 900, chunk_size=300, random_state=1, backend=backend))
            list(iter_dataset_chunks("criteo", 900, chunk_size=300, random_state=2, backend=backend))
            assert backend.start_count == 1

    def test_backend_not_shut_down_by_iterator(self):
        with ProcessBackend(2) as backend:
            list(iter_dataset_chunks("criteo", 700, chunk_size=300, random_state=0, backend=backend))
            assert backend.running  # the iterator borrowed, not owned
            assert backend.submit(_square, 4).result() == 16

    def test_explicit_serial_backend_disables_platform_backend(self):
        """A per-draw ``backend=SerialBackend()`` must force a fully
        in-process draw even when the platform carries a configured
        backend (nested pools inside a worker process are forbidden)."""
        with ProcessBackend(2) as backend:
            platform = Platform(
                dataset="criteo", chunk_size=300, random_state=9, backend=backend
            )
            cohort = platform.daily_cohort(700, day=1, backend=SerialBackend())
            assert backend.start_count == 0  # the pool never started
        serial = Platform(dataset="criteo", chunk_size=300, random_state=9)
        np.testing.assert_array_equal(cohort.x, serial.daily_cohort(700, day=1).x)

    def test_serial_width_backend_takes_serial_path(self):
        backend = SerialBackend()
        serial = list(iter_dataset_chunks("criteo", 700, chunk_size=300, random_state=4))
        via = list(
            iter_dataset_chunks("criteo", 700, chunk_size=300, random_state=4, backend=backend)
        )
        for a, b in zip(serial, via):
            _assert_datasets_equal(a, b)


# ---------------------------------------------------------------------------
# pool reuse across a multi-day experiment (ISSUE satellite)
# ---------------------------------------------------------------------------
def _score_first_feature(x):
    return x[:, 0]


class TestExperimentPoolReuse:
    def _make_platform(self, **kwargs):
        # chunk_size below the cohort so every daily draw is chunked
        return Platform(dataset="criteo", chunk_size=120, random_state=0, **kwargs)

    def _day_tuple(self, day):
        return (
            day.revenue,
            day.incremental_revenue,
            day.spend,
            day.n_treated,
            day.n_users,
        )

    def test_abtest_multi_day_starts_exactly_one_pool(self):
        serial = ABTest(
            self._make_platform(), {"m": _score_first_feature}, random_state=0
        ).run(n_days=3, cohort_size=400)
        with ProcessBackend(2) as backend:
            shared = ABTest(
                self._make_platform(),
                {"m": _score_first_feature},
                random_state=0,
                backend=backend,
            ).run(n_days=3, cohort_size=400)
            # one pool startup across all three days' chunked generation
            assert backend.start_count == 1
        # and the realised experiment is bit-identical to the serial path
        for day_s, day_p in zip(serial.days, shared.days):
            assert self._day_tuple(day_s) == self._day_tuple(day_p)

    def test_platform_level_backend_serves_every_day(self):
        """A backend configured on the platform serves every day of an
        ``ABTest.run`` with one pool startup, and the caller keeps it."""
        serial = ABTest(
            self._make_platform(), {"m": _score_first_feature}, random_state=0
        ).run(n_days=3, cohort_size=400)
        with ProcessBackend(2) as backend:
            pooled = ABTest(
                self._make_platform(backend=backend),
                {"m": _score_first_feature},
                random_state=0,
            ).run(n_days=3, cohort_size=400)
            assert backend.start_count == 1  # one pool across 3 days
            assert backend.running  # borrowed, not shut down by the run
        for day_s, day_p in zip(serial.days, pooled.days):
            assert self._day_tuple(day_s) == self._day_tuple(day_p)

    def test_experiment_serial_backend_forces_serial(self):
        """``ABTest(backend=SerialBackend())`` runs fully in-process
        even over a platform configured with a process pool."""
        with ProcessBackend(2) as backend:
            serial = ABTest(
                self._make_platform(backend=backend),
                {"m": _score_first_feature},
                random_state=0,
                backend=SerialBackend(),
            ).run(n_days=2, cohort_size=400)
            assert backend.start_count == 0  # the platform's pool never started
        plain = ABTest(
            self._make_platform(), {"m": _score_first_feature}, random_state=0
        ).run(n_days=2, cohort_size=400)
        for day_s, day_p in zip(serial.days, plain.days):
            assert self._day_tuple(day_s) == self._day_tuple(day_p)

    def test_policy_replay_shares_the_backend(self):
        sets = {
            "a": {"m": _score_first_feature},
            "b": {"m": lambda x: -x[:, 0]},
        }
        serial = PolicyReplay(
            self._make_platform(), sets, random_state=5
        ).run(n_days=2, cohort_size=400)
        with ProcessBackend(2) as backend:
            shared = PolicyReplay(
                self._make_platform(), sets, random_state=5, backend=backend
            ).run(n_days=2, cohort_size=400)
            assert backend.start_count == 1
        for name in sets:
            for day_s, day_p in zip(
                serial.results[name].days, shared.results[name].days
            ):
                assert day_s == day_p


class TestLegacyParallelKwargDeprecation:
    """``parallel=``/``n_workers=`` were deprecated in favour of
    ``backend=`` and are now gone: ``backend=`` is the only spelling.
    """

    @staticmethod
    def _policy():
        # a Policy is any callable x -> scores
        return {"first-feature": lambda x: x[:, 0]}

    @staticmethod
    def _assert_rejected(call):
        for name, value in (("parallel", True), ("n_workers", 2)):
            with pytest.raises(TypeError, match=name):
                call(**{name: value})

    def test_platform_rejects_legacy_kwargs(self):
        platform = Platform(dataset="criteo", random_state=0)
        self._assert_rejected(lambda **kw: Platform(dataset="criteo", **kw))
        self._assert_rejected(lambda **kw: platform.daily_cohort(300, day=1, **kw))

    def test_abtest_and_policy_replay_reject_legacy_kwargs(self):
        platform = Platform(dataset="criteo", random_state=0)
        self._assert_rejected(lambda **kw: ABTest(platform, self._policy(), **kw))
        self._assert_rejected(
            lambda **kw: PolicyReplay(platform, {"set": self._policy()}, **kw)
        )

    def test_iter_dataset_chunks_rejects_legacy_kwargs(self):
        self._assert_rejected(lambda **kw: iter_dataset_chunks("criteo", n=300, **kw))

    def test_backend_spelling_stays_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with SerialBackend() as backend:
                platform = Platform(dataset="criteo", random_state=0, backend=backend)
                ABTest(platform, self._policy(), backend=backend)
                PolicyReplay(platform, {"set": self._policy()}, backend=backend)
                for _ in iter_dataset_chunks(
                    "criteo", n=300, chunk_size=100, random_state=0, backend=backend
                ):
                    pass
