"""Execution backends: one pool abstraction for every fan-out in the library.

Before this layer existed, each subsystem owned a private execution
mechanism — chunked cohort generation spun up a fresh
``ProcessPoolExecutor`` per :meth:`Platform.daily_cohort` call, and
nothing could share workers across a multi-day run.  An
:class:`ExecutionBackend` is the common currency instead: a lazily
started, reusable, context-managed pool with the two operations the
library actually needs (``submit`` a callable, ``shutdown`` the
workers), implemented two ways — work runs inline or in worker
processes:

* :class:`SerialBackend` — runs everything inline and returns
  already-resolved futures.  Zero concurrency, zero overhead, and
  bit-identical to the historical single-process behaviour; the
  default everywhere.
* :class:`ProcessBackend` — a shared ``ProcessPoolExecutor`` for
  CPU-bound fan-out (cohort generation, the serving fleet's shards).
  Submitted callables must be module-level picklables, as usual.

Pools start on the first ``submit`` (constructing a backend costs
nothing), survive across calls — *one* pool serves all days of an
:class:`~repro.ab.experiment.ABTest` run — and count their startups in
``start_count`` so tests can pin the no-churn guarantee.

Every backend optionally takes a :class:`~repro.obs.MetricsRegistry`
and counts ``backend.tasks_submitted`` / ``backend.tasks_completed`` /
``backend.pool_starts`` into it.  With the default ``None`` the
counters are the shared no-op singletons and pool futures get no
done-callbacks attached, so un-instrumented execution is byte-for-byte
the historical path.

Worker affinity (``submit_to``)
-------------------------------
Plain ``submit`` hands work to *any* idle worker, which is right for
stateless fan-out but useless for a sharded serving fleet where shard
``i``'s cache, pacer slice, and model registry must live in one
long-lived process.  ``submit_to(lane, fn, *args)`` pins work to a
numbered **lane**: a lazily created single-worker executor that
processes its tasks FIFO, so state a task installs in its process is
still there for every later task on the same lane.  The sharded engine
builds each shard this way: its first task on a lane installs the
shard, and every later task on that lane finds it.  ``submit`` and
``submit_to`` coexist on one backend: the shared pool and the lanes
are separate executors, and ``shutdown`` releases both.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Protocol, runtime_checkable

from repro.obs import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "resolve_n_workers",
]


def resolve_n_workers(n_workers: int | None) -> int:
    """Normalise an ``n_workers`` argument (``None`` → all visible CPUs)."""
    if n_workers is None:
        return os.cpu_count() or 1
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return int(n_workers)


@runtime_checkable
class ExecutionBackend(Protocol):
    """The execution contract shared by serving, data, and A/B layers.

    Implementations promise: ``submit`` returns a
    :class:`concurrent.futures.Future`; ``n_workers`` reports the
    fan-out width (``1`` means "don't bother fanning out");
    ``start_count`` counts how many times a worker pool was actually
    created (the pool-churn metric); ``shutdown`` releases workers and
    is idempotent; the backend is reusable after ``shutdown`` (a new
    pool starts on the next ``submit``) and usable as a context
    manager.
    """

    start_count: int

    @property
    def n_workers(self) -> int: ...

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future: ...

    def shutdown(self, wait: bool = True) -> None: ...


class SerialBackend:
    """Inline execution behind the backend interface.

    ``submit`` runs the callable immediately on the calling thread and
    returns a future that is already resolved (result or exception).
    Code written against the backend interface therefore keeps exactly
    the synchronous semantics — same call order, same exception
    propagation points — it had before the runtime layer existed.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.start_count = 0  # no pool ever starts
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_submitted = self.metrics.counter("backend.tasks_submitted")
        self._c_completed = self.metrics.counter("backend.tasks_completed")

    @property
    def n_workers(self) -> int:
        return 1

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        self._c_submitted.inc()
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # the future carries it, as a pool's would
            future.set_exception(exc)
        self._c_completed.inc()  # inline execution: done by the time we return
        return future

    def submit_to(
        self, lane: int, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        """Lane-pinned submit; inline, every lane is this thread.

        Lanes are purely logical here (any non-negative index), so code
        written against lane affinity behaves identically on the serial
        backend — same process, same FIFO order.
        """
        if lane < 0:
            raise ValueError(f"lane must be >= 0, got {lane}")
        return self.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        """Nothing to release."""

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ProcessBackend:
    """A reusable ``ProcessPoolExecutor`` behind the backend interface.

    The CPU-bound fan-out workhorse (chunked cohort generation, the
    serving fleet's shards).  Submitted callables and their arguments
    must be picklable module-level objects.  Starting worker processes
    is the expensive part — which is exactly why the pool is created
    once and reused across every day of a run instead of per call.
    """

    def __init__(self, n_workers: int | None = None, metrics: MetricsRegistry | None = None) -> None:
        self._n_workers = resolve_n_workers(n_workers)
        self._pool: ProcessPoolExecutor | None = None
        self._lanes: dict[int, ProcessPoolExecutor] = {}
        self.start_count = 0
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._instrumented = metrics is not None
        self._c_submitted = self.metrics.counter("backend.tasks_submitted")
        self._c_completed = self.metrics.counter("backend.tasks_completed")
        self._c_pool_starts = self.metrics.counter("backend.pool_starts")

    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def running(self) -> bool:
        """True while a worker pool (shared or lane) is alive."""
        return self._pool is not None or bool(self._lanes)

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._n_workers)
            self.start_count += 1
            self._c_pool_starts.inc()
        self._c_submitted.inc()
        future = self._pool.submit(fn, *args, **kwargs)
        if self._instrumented:  # no callback churn on the un-instrumented path
            future.add_done_callback(lambda _f: self._c_completed.inc())
        return future

    def submit_to(
        self, lane: int, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        """Pin work to lane ``lane``: one long-lived worker process.

        The lane executor starts lazily on its first task (counted in
        ``start_count`` / ``backend.pool_starts`` like any pool start).
        Tasks on one lane execute FIFO in that one worker, so per-lane
        state a task installs — a scoring shard, a warmed cache — is
        there for the lane's later tasks; distinct lanes run
        concurrently.
        """
        if not 0 <= lane < self._n_workers:
            raise ValueError(
                f"lane must be in [0, {self._n_workers}), got {lane}"
            )
        pool = self._lanes.get(lane)
        if pool is None:
            pool = self._lanes[lane] = ProcessPoolExecutor(max_workers=1)
            self.start_count += 1
            self._c_pool_starts.inc()
        self._c_submitted.inc()
        future = pool.submit(fn, *args, **kwargs)
        if self._instrumented:
            future.add_done_callback(lambda _f: self._c_completed.inc())
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Release the workers; the next ``submit`` starts a fresh pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None
        for pool in self._lanes.values():
            pool.shutdown(wait=wait, cancel_futures=True)
        self._lanes.clear()

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "running" if self.running else "idle"
        return f"{type(self).__name__}(n_workers={self._n_workers}, {state})"
