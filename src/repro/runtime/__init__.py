"""One execution layer for scoring, generation, and pacing.

``repro.runtime`` owns the two cross-cutting concerns that every
scaling feature kept reinventing privately:

* **Where work runs** — :class:`ExecutionBackend` and its three
  implementations (:class:`SerialBackend`, :class:`ThreadBackend`,
  :class:`ProcessBackend`): lazily started, reusable, context-managed
  pools.  Chunked cohort generation, multi-day A/B runs, and the
  scoring engine's flushes all submit to the same abstraction, so one
  process pool serves a whole experiment instead of being rebuilt per
  day.
* **When work runs** — :class:`Clock` (:class:`SystemClock` /
  :class:`ManualClock`) and :class:`DeadlineLoop`: pull-based keyed
  deadlines that make latency guarantees (flush at ``max_latency_ms``)
  testable under simulated time.

:class:`SharedTensorPool` / :class:`SharedTensor`
(``repro.runtime.shm``) are named ref-counted shared-memory numpy
segments with an explicit create/attach/release lifecycle.  How bytes
cross a process boundary is not decided here: the serving fleet passes
plain arrays over its lanes, and no serving path uses the pool.

Everything here depends only on ``repro.obs`` (itself stdlib-only),
so any layer may build on it.
"""

from repro.runtime.backend import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_n_workers,
)
from repro.runtime.clock import Clock, DeadlineLoop, ManualClock, SystemClock
from repro.runtime.shm import SharedTensor, SharedTensorPool, live_segment_count

__all__ = [
    "Clock",
    "DeadlineLoop",
    "ExecutionBackend",
    "ManualClock",
    "ProcessBackend",
    "SerialBackend",
    "SharedTensor",
    "SharedTensorPool",
    "SystemClock",
    "ThreadBackend",
    "live_segment_count",
    "resolve_n_workers",
]
