"""One execution layer for scoring, generation, and pacing.

``repro.runtime`` owns the two cross-cutting concerns that every
scaling feature kept reinventing privately:

* **Where work runs** — :class:`ExecutionBackend`: work runs inline
  (:class:`SerialBackend`) or in worker processes
  (:class:`ProcessBackend`: a lazily started, reusable pool).  Chunked
  cohort generation, multi-day A/B runs, and the serving fleet's
  shards all submit to the same abstraction, so one process pool
  serves a whole experiment instead of being rebuilt per day.
* **When work runs** — :class:`Clock` (:class:`SystemClock` /
  :class:`ManualClock`) and :class:`DeadlineLoop`: one pull-based
  deadline per owner, which makes latency guarantees (flush at
  ``max_latency_ms``) testable under simulated time.

How bytes cross a process boundary is not decided here: the serving
fleet passes plain arrays over its lanes, so the library creates no
shared-memory segment (:func:`live_segment_count` reads 0).

Everything here depends only on ``repro.obs`` (itself stdlib-only),
so any layer may build on it.
"""

from repro.runtime.backend import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    resolve_n_workers,
)
from repro.runtime.clock import Clock, DeadlineLoop, ManualClock, SystemClock

__all__ = [
    "Clock",
    "DeadlineLoop",
    "ExecutionBackend",
    "ManualClock",
    "ProcessBackend",
    "SerialBackend",
    "SystemClock",
    "live_segment_count",
    "resolve_n_workers",
]


def live_segment_count() -> int:
    """Shared-memory segments this process holds open: always 0.

    The library creates no shared-memory segment (the serving fleet
    passes plain arrays over its lanes); the name stays because
    perfbench's fleet workload imports it for its leak check.
    """
    return 0
