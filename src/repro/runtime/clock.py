"""Time as a dependency: clocks and the deadline loop.

The serving layer's latency story ("flush this batch no later than
``max_latency_ms`` after its first request") needs a notion of *now*
that tests and simulators can control.  A :class:`Clock` is just
``now() -> float`` seconds: :class:`SystemClock` reads the monotonic
wall clock for production use, :class:`ManualClock` is advanced
explicitly — the simulator steps it by the inter-arrival gap, so a
whole simulated day of deadline-driven flushing runs in microseconds
and asserts exact waiting-time bounds.

:class:`DeadlineLoop` is the scheduling primitive on top: one
deadline and the callback its owner gave it, fired whenever ``poll()``
observes that the clock has passed the deadline.  It is deliberately
*pull*-based — no background timer thread — so behaviour is
deterministic under a :class:`ManualClock` and adds zero overhead when
nothing is due: a poll that finds nothing due costs at most one clock
read and one comparison.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Protocol, runtime_checkable

__all__ = ["DUE_SLACK", "Clock", "DeadlineLoop", "ManualClock", "SystemClock"]

# how far past ``now`` a deadline still counts as due: a ManualClock
# advanced in repeated float increments drifts by ~1e-15, which would
# otherwise push a poll landing exactly on a deadline to the next poll.
# One nanosecond is far below any latency bound and far above the drift.
# A deadline ``at`` is due at clock time ``t`` when ``at <= t + DUE_SLACK``
DUE_SLACK = 1e-9


@runtime_checkable
class Clock(Protocol):
    """Anything with ``now() -> float`` (seconds, any fixed origin)."""

    def now(self) -> float: ...


class SystemClock:
    """The monotonic wall clock (production default)."""

    def now(self) -> float:
        return time.monotonic()


class ManualClock:
    """A clock that only moves when told to — the simulator's time source.

    Its time stays finite: a non-finite ``start``, or an ``advance`` to
    a non-finite time, raises ValueError before the clock moves."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        if not math.isfinite(self._now):
            raise ValueError(f"start must be a finite time, got {start}")

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` (never backward); returns now."""
        now = self._now + float(seconds)
        if not (seconds >= 0 and math.isfinite(now)):
            raise ValueError(f"cannot advance by a negative duration or to a non-finite time, got {seconds}")
        self._now = now
        return now

    def __repr__(self) -> str:
        return f"ManualClock(t={self._now:.6f})"


class DeadlineLoop:
    """One deadline against a :class:`Clock`, fired on ``poll()``.

    The owner passes its callback once; ``schedule`` arms (or re-arms)
    the deadline at an absolute time and ``poll`` fires the callback
    once the clock has passed it, returning how many times it fired.
    The callback may re-arm the loop: a later deadline that is already
    due fires again in the same poll (so a late poll catches up), one
    at or before the deadline just fired waits for the next poll (so a
    period below the due slack, or one a large clock value absorbs,
    never spins).  No threads, no signals: the owner decides when to
    look at the clock, which is what makes the loop exact under
    simulated time.  A deadline within one nanosecond past ``now``
    counts as due, so float drift of a :class:`ManualClock` never
    defers a poll that lands on it.  A ``poll`` with nothing due
    returns after at most one clock read.  A NaN deadline or delay
    raises ValueError and leaves the armed deadline as it was.
    """

    def __init__(self, clock: Clock, callback: Callable[[], None]) -> None:
        self.clock = clock
        self._callback = callback
        self._at: float | None = None  # the armed deadline

    def schedule(self, at: float) -> None:
        """Arm the deadline at ``at``, replacing any armed one.

        A NaN ``at`` raises ValueError.
        """
        at = float(at)
        if at != at:
            raise ValueError(f"deadline must not be NaN, got {at}")
        self._at = at

    def schedule_in(self, delay: float) -> None:
        """Relative-time convenience: arm ``delay`` seconds from now."""
        if not delay >= 0:  # rejects NaN too
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.schedule(self.clock.now() + float(delay))

    def cancel(self) -> None:
        """Disarm the deadline (a no-op when none is armed)."""
        self._at = None

    def next_deadline(self) -> float | None:
        """The armed deadline, or None."""
        return self._at

    def poll(self) -> int:
        """Fire the callback while the armed deadline is due; return
        how many times it fired."""
        at = self._at
        if at is None or at > self.clock.now() + DUE_SLACK:
            return 0  # nothing due: the idle path
        fired = 0
        while True:
            self._at = None
            self._callback()
            fired += 1
            rearmed = self._at
            if rearmed is None or rearmed <= at or rearmed > self.clock.now() + DUE_SLACK:
                return fired
            at = rearmed
