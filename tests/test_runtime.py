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
from hypothesis import given, settings
from hypothesis import strategies as st

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
        loop = DeadlineLoop(clock)
        fired: list[float] = []
        loop.schedule("k", 1.0, lambda: fired.append(clock.now()))
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
    def test_fires_only_once_due_and_in_deadline_order(self):
        clock = ManualClock()
        loop = DeadlineLoop(clock)
        fired: list[str] = []
        loop.schedule("b", 2.0, lambda: fired.append("b"))
        loop.schedule("a", 1.0, lambda: fired.append("a"))
        assert loop.poll() == 0  # nothing due yet
        assert fired == []
        clock.advance(1.5)
        assert loop.poll() == 1
        assert fired == ["a"]
        clock.advance(1.0)
        assert loop.poll() == 1
        assert fired == ["a", "b"]
        assert len(loop) == 0

    def test_reschedule_same_key_replaces(self):
        clock = ManualClock()
        loop = DeadlineLoop(clock)
        fired: list[int] = []
        loop.schedule("k", 1.0, lambda: fired.append(1))
        loop.schedule("k", 5.0, lambda: fired.append(2))
        clock.advance(2.0)
        assert loop.poll() == 0  # the 1.0 deadline no longer exists
        clock.advance(4.0)
        assert loop.poll() == 1
        assert fired == [2]

    def test_cancel(self):
        clock = ManualClock()
        loop = DeadlineLoop(clock)
        loop.schedule_in("k", 1.0, lambda: None)
        assert loop.next_deadline() == 1.0
        assert loop.cancel("k") is True
        assert loop.cancel("k") is False
        clock.advance(2.0)
        assert loop.poll() == 0
        assert loop.next_deadline() is None

    def test_schedule_in_rejects_negative_delay(self):
        loop = DeadlineLoop(ManualClock())
        with pytest.raises(ValueError, match="delay"):
            loop.schedule_in("k", -0.1, lambda: None)

    def test_callback_may_reschedule_itself(self):
        clock = ManualClock()
        loop = DeadlineLoop(clock)
        ticks: list[float] = []

        def tick():
            ticks.append(clock.now())
            if len(ticks) < 3:
                loop.schedule_in("tick", 1.0, tick)

        loop.schedule_in("tick", 1.0, tick)
        for _ in range(5):
            clock.advance(1.0)
            loop.poll()
        assert ticks == [1.0, 2.0, 3.0]


    @pytest.mark.parametrize("call", ["schedule", "schedule_in"])
    def test_nan_deadline_is_refused_before_anything_is_stored(self, call):
        """Regression: a NaN delay passed the ``delay < 0`` check and
        stored a key that never fires; ``next_deadline`` then read NaN
        or a real time depending on insertion order."""
        clock = ManualClock(10.0)
        loop = DeadlineLoop(clock)
        loop.schedule("real", 50.0, lambda: None)
        with pytest.raises(ValueError, match="NaN|delay"):
            if call == "schedule":
                loop.schedule("nan", math.nan, lambda: None)
            else:
                loop.schedule_in("nan", math.nan, lambda: None)
        assert len(loop) == 1
        assert loop.next_deadline() == 50.0
        clock.advance(100.0)
        assert loop.poll() == 1
        assert len(loop) == 0 and loop.next_deadline() is None

    def test_a_key_moved_later_by_a_callback_stays_scheduled(self):
        """Regression: ``poll`` popped each key of its due list in turn,
        so when ``a``'s callback moved ``b`` (due in the same round) to
        100.0, the poll at 1.0 fired ``b``'s new callback at once, its
        old one never ran, and ``next_deadline()`` read None."""
        clock = ManualClock(1.0)
        loop = DeadlineLoop(clock)
        fired = []

        def move_b():
            fired.append(("a", clock.now()))
            loop.schedule("b", 100.0, lambda: fired.append(("b-new", clock.now())))

        loop.schedule("a", 1.0, move_b)
        loop.schedule("b", 1.0, lambda: fired.append(("b-old", clock.now())))
        assert loop.poll() == 1
        assert fired == [("a", 1.0)]
        assert len(loop) == 1 and loop.next_deadline() == 100.0
        clock.advance(99.0)
        assert loop.poll() == 1
        assert fired == [("a", 1.0), ("b-new", 100.0)]
        assert len(loop) == 0 and loop.next_deadline() is None

    def test_idle_poll_reads_the_clock_once(self):
        reads = []

        class CountingClock(ManualClock):
            def now(self):
                reads.append(1)
                return super().now()

        loop = DeadlineLoop(CountingClock())
        for key in range(3):
            loop.schedule(key, 5.0 + key, lambda: None)
        reads.clear()
        assert loop.poll() == 0
        assert len(reads) == 1


class ScanningLoop:
    """The deadline loop as it was before it cached its earliest
    deadline: every ``poll`` and ``next_deadline`` scans the dict.  The
    reference :class:`DeadlineLoop` must match call for call."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self._deadlines: dict = {}

    def __len__(self) -> int:
        return len(self._deadlines)

    def schedule(self, key, at, callback) -> None:
        self._deadlines[key] = (float(at), callback)

    def schedule_in(self, key, delay, callback) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.schedule(key, self.clock.now() + float(delay), callback)

    def cancel(self, key) -> bool:
        return self._deadlines.pop(key, None) is not None

    def next_deadline(self):
        if not self._deadlines:
            return None
        return min(at for at, _cb in self._deadlines.values())

    def poll(self) -> int:
        fired = 0
        while self._deadlines:
            now = self.clock.now() + 1e-9
            due = [(at, key) for key, (at, _cb) in self._deadlines.items() if at <= now]
            if not due:
                break
            due.sort(key=lambda pair: pair[0])
            for _at, key in due:
                entry = self._deadlines.get(key)
                if entry is None or entry[0] > now:  # cancelled or moved later
                    continue
                del self._deadlines[key]
                entry[1]()
                fired += 1
        return fired


# a callback: (kind, other key, delay); "resched" re-arms its own key,
# "cancel" drops another key, "new" schedules another key (plain)
_KEYS = st.integers(0, 4)
_OFFSETS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0])
_CALLBACKS = st.tuples(
    st.sampled_from(["plain", "resched", "cancel", "new"]),
    _KEYS,
    st.sampled_from([0.5, 1.0, 1.0, 2.0]),
)
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _KEYS, _OFFSETS, _CALLBACKS),
    st.tuples(st.just("schedule_in"), _KEYS, st.sampled_from([0.0, 0.5, 1.0, 2.0]), _CALLBACKS),
    st.tuples(st.just("cancel"), _KEYS),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5])),
    st.tuples(st.just("poll")),
)


def _drive(loop_cls, ops) -> list:
    """Run ``ops`` on a fresh ``loop_cls`` and return everything observable."""
    clock = ManualClock()
    loop = loop_cls(clock)
    seen: list = []

    def callback(key, spec):
        kind, other, delay = spec

        def fire():
            # what the loop shows from inside a callback counts too
            seen.append(("fired", key, clock.now(), len(loop), loop.next_deadline()))
            if kind == "resched":
                loop.schedule(key, clock.now() + delay, callback(key, spec))
            elif kind == "cancel":
                seen.append(("cancelled", loop.cancel(other)))
            elif kind == "new":
                loop.schedule_in(other, delay, callback(other, ("plain", other, delay)))

        return fire

    for op in ops:
        name = op[0]
        if name == "schedule":
            _name, key, offset, spec = op
            loop.schedule(key, clock.now() + offset, callback(key, spec))
        elif name == "schedule_in":
            _name, key, delay, spec = op
            loop.schedule_in(key, delay, callback(key, spec))
        elif name == "cancel":
            seen.append(("cancel", loop.cancel(op[1])))
        elif name == "advance":
            clock.advance(op[1])
        else:
            seen.append(("poll", loop.poll()))
        seen.append(("state", len(loop), loop.next_deadline()))
    return seen


class TestDeadlineLoopMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_OPS, max_size=40))
    def test_cached_earliest_matches_the_scanning_loop(self, ops):
        """Schedules that replace an earlier or later deadline, cancels,
        clock advances and polls whose callbacks re-arm themselves,
        cancel another key or schedule a new one: the fired order,
        return values, ``len`` and ``next_deadline`` (also read from
        inside callbacks) equal the scanning loop's."""
        assert _drive(DeadlineLoop, ops) == _drive(ScanningLoop, ops)

    def test_replacing_the_earliest_with_a_later_deadline(self):
        ops = [
            ("schedule", 0, 1.0, ("plain", 0, 1.0)),
            ("schedule", 1, 2.0, ("plain", 1, 1.0)),
            ("schedule", 0, 3.0, ("plain", 0, 1.0)),  # the earliest moves later
            ("advance", 1.5),
            ("poll",),
            ("advance", 1.0),
            ("poll",),
            ("advance", 1.0),
            ("poll",),
        ]
        seen = _drive(DeadlineLoop, ops)
        assert seen == _drive(ScanningLoop, ops)
        assert seen[2] == ("state", 2, 2.0)


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
