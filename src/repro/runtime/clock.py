"""Time as a dependency: clocks and the deadline loop.

The serving layer's latency story ("flush this batch no later than
``max_latency_ms`` after its first request") needs a notion of *now*
that tests and simulators can control.  A :class:`Clock` is just
``now() -> float`` seconds: :class:`SystemClock` reads the monotonic
wall clock for production use, :class:`ManualClock` is advanced
explicitly — the simulator steps it by the inter-arrival gap, so a
whole simulated day of deadline-driven flushing runs in microseconds
and asserts exact waiting-time bounds.

:class:`DeadlineLoop` is the scheduling primitive on top: keyed
callbacks with absolute deadlines, fired in deadline order whenever
``poll()`` observes that the clock has passed them.  It is
deliberately *pull*-based — no background timer thread — so behaviour
is deterministic under a :class:`ManualClock` and adds zero overhead
when nothing is due: the loop caches its earliest deadline, so a poll
that finds nothing due costs one clock read and one comparison.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Protocol, runtime_checkable

__all__ = ["Clock", "DeadlineLoop", "ManualClock", "SystemClock"]


@runtime_checkable
class Clock(Protocol):
    """Anything with ``now() -> float`` (seconds, any fixed origin)."""

    def now(self) -> float: ...


class SystemClock:
    """The monotonic wall clock (production default)."""

    def now(self) -> float:
        return time.monotonic()


class ManualClock:
    """A clock that only moves when told to — the simulator's time source."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` (never backward); returns now."""
        if seconds < 0:
            raise ValueError(f"cannot advance by a negative duration, got {seconds}")
        self._now += float(seconds)
        return self._now

    def __repr__(self) -> str:
        return f"ManualClock(t={self._now:.6f})"


class DeadlineLoop:
    """Keyed deadlines against a :class:`Clock`, fired on ``poll()``.

    ``schedule`` registers (or replaces) a callback under a key with an
    absolute deadline; ``poll`` fires every callback whose deadline has
    passed, in deadline order, and returns how many fired.  Callbacks
    may re-schedule themselves.  No threads, no signals: the owner
    decides when to look at the clock, which is what makes the loop
    exact under simulated time.

    ``epsilon`` (default one nanosecond) widens the firing comparison
    to ``at <= now + epsilon``: a :class:`ManualClock` advanced in
    repeated float increments accumulates ~1e-15 of drift, which would
    otherwise push a poll landing exactly on the deadline to the
    *next* poll.  One nanosecond is far below any meaningful latency
    bound and far above any double-precision drift.

    The earliest deadline is cached (``schedule``, ``cancel`` and
    ``poll`` keep it current), so ``next_deadline`` reads it and a
    ``poll`` with nothing due returns after one clock read.  A NaN
    deadline or delay raises ValueError before anything is stored: it
    would never fire, and no earliest deadline is defined beside it.
    """

    def __init__(self, clock: Clock, epsilon: float = 1e-9) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        self.clock = clock
        self.epsilon = float(epsilon)
        self._deadlines: dict[object, tuple[float, Callable[[], None]]] = {}
        self._earliest = math.inf  # min deadline in _deadlines, inf when empty

    def __len__(self) -> int:
        return len(self._deadlines)

    def _reset_earliest(self) -> None:
        # the loops hold one to three keys: a scan per change is enough
        self._earliest = min((at for at, _cb in self._deadlines.values()), default=math.inf)

    def schedule(self, key: object, at: float, callback: Callable[[], None]) -> None:
        """Register ``callback`` to fire once ``clock.now() >= at``.

        A second ``schedule`` under the same key replaces the first —
        the scoring engine re-arms its single ``"flush"`` deadline this
        way.  A NaN ``at`` raises ValueError.
        """
        at = float(at)
        if at != at:
            raise ValueError(f"deadline must not be NaN, got {at} for key {key!r}")
        old = self._deadlines.get(key)
        self._deadlines[key] = (at, callback)
        if at < self._earliest:
            self._earliest = at
        elif old is not None and old[0] == self._earliest and at > old[0]:
            self._reset_earliest()  # the earliest moved later

    def schedule_in(self, key: object, delay: float, callback: Callable[[], None]) -> None:
        """Relative-time convenience: fire ``delay`` seconds from now."""
        if not delay >= 0:  # rejects NaN too
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.schedule(key, self.clock.now() + float(delay), callback)

    def cancel(self, key: object) -> bool:
        """Drop a scheduled deadline; True when one existed."""
        entry = self._deadlines.pop(key, None)
        if entry is None:
            return False
        if entry[0] == self._earliest:
            self._reset_earliest()
        return True

    def next_deadline(self) -> float | None:
        """The earliest scheduled time, or None when nothing is pending."""
        return self._earliest if self._deadlines else None

    def poll(self) -> int:
        """Fire every overdue callback (deadline order); return the count."""
        if self._earliest > self.clock.now() + self.epsilon:
            return 0  # nothing due: the idle path
        fired = 0
        while self._deadlines:
            now = self.clock.now() + self.epsilon
            due = [(at, key) for key, (at, _cb) in self._deadlines.items() if at <= now]
            if not due:
                break
            # keys are arbitrary objects (possibly non-comparable): order
            # by deadline only, ties in insertion order
            due.sort(key=lambda pair: pair[0])
            for _at, key in due:
                entry = self._deadlines.pop(key, None)
                if entry is None:  # an earlier callback cancelled it
                    continue
                if entry[0] == self._earliest:
                    self._reset_earliest()
                entry[1]()
                fired += 1
        return fired
