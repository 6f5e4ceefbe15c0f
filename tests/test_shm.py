"""Shared-memory pins: pool lifecycle, and a fleet that creates no segment.

* :class:`SharedTensorPool` segments follow the create/attach/release
  lifecycle — attachers only ever close their own mapping, the creator's
  final release unlinks the kernel object, and ``shutdown``/``close``
  sweep whatever is still open;
* **hygiene**: a process fleet passes plain arrays over its lanes, so
  ``live_segment_count()`` keeps its pre-construction value through
  construction, traffic, a mid-flight exception and a SIGKILLed worker,
  and ``close()`` still returns after a worker died.  Leaked
  ``/dev/shm`` objects survive the process, so this is pinned by
  regression test rather than left to code review.
"""

from __future__ import annotations

import contextlib
import os
import signal

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.runtime import ProcessBackend, SharedTensorPool, live_segment_count
from repro.serving import ModelRegistry, ScoringEngine, ShardedScoringEngine


class LinearROI:
    """Module-level (picklable) deterministic scorer: x @ w."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.w


W = [1.0, -0.5, 0.25, 2.0]


def make_registry(split: float = 0.0) -> ModelRegistry:
    registry = ModelRegistry(traffic_split=split, random_state=7)
    registry.register(LinearROI(W), promote=True)
    if split > 0.0:
        registry.register(LinearROI([0.5, 0.5, -0.25, 1.0]))
    return registry


@pytest.fixture
def rows():
    return np.random.default_rng(0).normal(size=(120, 4))


# ---------------------------------------------------------------------------
# SharedTensorPool lifecycle
# ---------------------------------------------------------------------------
class TestSharedTensorPool:
    def test_create_attach_share_pages(self):
        """An attacher's array view aliases the creator's segment."""
        with SharedTensorPool() as owner, SharedTensorPool() as other:
            tensor = owner.create((4, 3))
            tensor.array[:] = np.arange(12.0).reshape(4, 3)
            name, shape, dtype = tensor.descriptor()
            attached = other.attach(name, shape, dtype)
            np.testing.assert_array_equal(attached.array, tensor.array)
            attached.array[0, 0] = 99.0  # writes travel the other way too
            assert tensor.array[0, 0] == 99.0
            assert tensor.owner and not attached.owner

    def test_refcounted_release(self):
        pool = SharedTensorPool()
        tensor = pool.create((8,))
        assert pool.attach(tensor.name, (8,)) is tensor  # same-pool attach
        assert pool.live_segments == 1
        assert pool.release(tensor.name)  # drops to refcount 1
        assert pool.live_segments == 1
        assert pool.release(tensor.name)  # final: closes + unlinks
        assert pool.live_segments == 0
        assert not pool.release(tensor.name)  # idempotent no-op
        pool.close()

    def test_owner_release_unlinks_kernel_object(self):
        pool = SharedTensorPool()
        name = pool.create((4,)).name
        pool.release(name)
        fresh = SharedTensorPool()
        with pytest.raises(FileNotFoundError):
            fresh.attach(name, (4,))
        fresh.close()
        pool.close()

    def test_context_manager_sweeps_everything(self):
        before = live_segment_count()
        with SharedTensorPool() as pool:
            for _ in range(3):
                pool.create((16, 2))
            assert live_segment_count() == before + 3
        assert live_segment_count() == before
        assert pool.live_segments == 0

    def test_metrics_exported_into_registry(self):
        registry = MetricsRegistry()
        pool = SharedTensorPool(metrics=registry)
        a = pool.create((4,))
        pool.create((4,))
        pool.attach(a.name, (4,))
        snap = registry.snapshot()
        assert snap["shm.segments_created"].value == 2
        assert snap["shm.segments_attached"].value == 1
        assert snap["shm.live_segments"].value == 2
        assert snap["shm.live_bytes"].value == 2 * 4 * 8
        pool.close()
        snap = registry.snapshot()
        assert snap["shm.segments_released"].value == 2
        assert snap["shm.segments_leaked"].value == 0
        assert snap["shm.live_segments"].value == 0

    def test_atexit_sweep_counts_leaks(self):
        """Segments the owner never released are reclaimed and counted."""
        registry = MetricsRegistry()
        pool = SharedTensorPool(metrics=registry)
        pool.create((32,))
        pool._sweep_leaked()  # the atexit path, invoked directly
        assert pool.live_segments == 0
        assert pool.leaked_segments == 1
        assert registry.snapshot()["shm.segments_leaked"].value == 1
        pool.close()


# ---------------------------------------------------------------------------
# segment hygiene: shutdown in every failure mode
# ---------------------------------------------------------------------------
class TestSegmentHygiene:
    def test_clean_close_releases_every_segment(self, rows, process_pool):
        """Construction, traffic and close create no segment at all."""
        before = live_segment_count()
        fleet = ShardedScoringEngine(
            make_registry(), n_shards=2, cache_size=64, backend=process_pool
        )
        fleet.join()  # both shards installed
        assert live_segment_count() == before
        rids = [fleet.submit(row, key=i) for i, row in enumerate(rows)]
        fleet.flush()
        assert live_segment_count() == before
        for rid in rids:
            fleet.take(rid)
        fleet.close()
        assert live_segment_count() == before

    def test_mid_flight_exception_releases_every_segment(self, rows, process_pool):
        before = live_segment_count()
        with pytest.raises(RuntimeError, match="mid-flight"):
            with ShardedScoringEngine(
                make_registry(), n_shards=2, cache_size=32, backend=process_pool
            ) as fleet:
                for i, row in enumerate(rows):
                    fleet.submit(row, key=i)  # in-flight, never flushed
                assert live_segment_count() == before
                raise RuntimeError("mid-flight failure")
        assert live_segment_count() == before
        assert fleet._closed

    def test_process_fleet_clean_close(self, rows):
        before = live_segment_count()
        backend = ProcessBackend(n_workers=2)
        try:
            fleet = ShardedScoringEngine(
                make_registry(), n_shards=2, cache_size=128, backend=backend
            )
            for i, row in enumerate(rows):
                fleet.submit(row, key=i)
            fleet.flush()
            assert fleet.stats["requests"] == len(rows)
            assert live_segment_count() == before
            fleet.close()
            assert live_segment_count() == before
        finally:
            backend.shutdown()

    def test_worker_death_still_releases_parent_segments(self, rows):
        """SIGKILLing a shard's worker strands nothing (there is no
        segment to strand), and close() still returns."""
        before = live_segment_count()
        backend = ProcessBackend(n_workers=2)
        try:
            fleet = ShardedScoringEngine(
                make_registry(), n_shards=2, cache_size=64, backend=backend
            )
            for i, row in enumerate(rows[:40]):
                fleet.submit(row, key=i)
            fleet.flush()
            victim = backend.submit_to(0, os.getpid).result()
            os.kill(victim, signal.SIGKILL)
            with contextlib.suppress(Exception):  # broken lane may raise
                fleet.close()
            assert fleet._closed
            assert live_segment_count() == before
        finally:
            with contextlib.suppress(Exception):
                backend.shutdown()


# ---------------------------------------------------------------------------
# the plain engine
# ---------------------------------------------------------------------------
class TestRingFallback:
    """A plain engine beside the fleet creates no segment either."""

    def test_plain_engine_unaffected_by_transport_machinery(self, rows):
        """The serial engine path has no segments at all: submitting the
        same stream through a bare ScoringEngine touches no pool."""
        before = live_segment_count()
        engine = ScoringEngine(make_registry(), batch_size=16, cache_size=0)
        ids = engine.submit_batch(rows)
        engine.flush()
        assert len(engine.take_block(ids)) == len(rows)
        assert live_segment_count() == before
