"""Zero-copy transport pins: pool lifecycle, shared cache, segment hygiene.

The guarantees :mod:`repro.runtime.shm` makes to the serving fleet:

* :class:`SharedTensorPool` segments follow the create/attach/release
  lifecycle — attachers only ever close their own mapping, the creator's
  final release unlinks the kernel object, and ``shutdown``/``close``
  sweep whatever is still open;
* :class:`SharedScoreCache` is shared-visibility (any attacher sees any
  writer's entries) and correctness-neutral under eviction: a ``get``
  returns the exact cached score or ``None``, never a stale value for a
  different key;
* **hygiene**: a fleet shutdown — clean, after a mid-flight exception,
  or with a SIGKILLed worker — leaves ``live_segment_count() == 0`` and
  the leak counter untouched.  Leaked ``/dev/shm`` objects survive the
  process, so this is pinned by regression test rather than left to
  code review;
* a full result ring degrades to inline (pickled) results, never to a
  stall or an overwrite.
"""

from __future__ import annotations

import contextlib
import os
import signal

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.runtime import (
    ProcessBackend,
    SharedScoreCache,
    SharedTensorPool,
    live_segment_count,
)
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
# SharedScoreCache
# ---------------------------------------------------------------------------
class TestSharedScoreCache:
    def test_put_get_roundtrip_and_miss(self):
        with SharedTensorPool() as pool:
            cache = SharedScoreCache.create(pool, slots=64)
            row = np.arange(4.0).tobytes()
            assert cache.get(1, row) is None
            cache.put(1, row, 0.625)
            assert cache.get(1, row) == 0.625
            cache.put(1, row, 0.625)  # same key: no-op, still one entry
            assert cache.get(1, row) == 0.625

    def test_version_salts_the_tag(self):
        """The same row under two model versions is two distinct keys."""
        with SharedTensorPool() as pool:
            cache = SharedScoreCache.create(pool, slots=64)
            row = b"feature-bytes"
            assert cache.tag_of(1, row) != cache.tag_of(2, row)
            cache.put(1, row, 0.5)
            assert cache.get(2, row) is None
            assert cache.get(1, row) == 0.5

    def test_attacher_sees_creator_entries(self):
        """The cross-shard property: one table, every attacher hits it."""
        with SharedTensorPool() as owner, SharedTensorPool() as other:
            cache = SharedScoreCache.create(owner, slots=32)
            cache.put(3, b"row", 1.25)
            name, slots = cache.descriptor()
            attached = SharedScoreCache.attach(other, name, slots)
            assert attached.get(3, b"row") == 1.25
            attached.put(3, b"other", -2.0)
            assert cache.get(3, b"other") == -2.0

    def test_eviction_never_corrupts(self):
        """Overfilling a tiny table loses entries, never falsifies them."""
        with SharedTensorPool() as pool:
            cache = SharedScoreCache.create(pool, slots=8)
            keys = [f"row-{i}".encode() for i in range(50)]
            for i, key in enumerate(keys):
                cache.put(1, key, float(i))
            hits = misses = 0
            for i, key in enumerate(keys):
                got = cache.get(1, key)
                if got is None:
                    misses += 1
                else:
                    assert got == float(i)  # exact or absent, never stale
                    hits += 1
            assert hits > 0 and misses > 0  # genuinely evicting

    def test_min_slots_validated(self):
        with SharedTensorPool() as pool:
            with pytest.raises(ValueError, match="slots"):
                SharedScoreCache.create(pool, slots=4)


# ---------------------------------------------------------------------------
# fleet-wide cache visibility over the transport
# ---------------------------------------------------------------------------
class TestFleetSharedCache:
    def _two_keys_on_different_shards(self, fleet):
        k0 = next(k for k in range(100) if fleet.shard_of(f"k{k}") == 0)
        k1 = next(k for k in range(100) if fleet.shard_of(f"k{k}") == 1)
        return f"k{k0}", f"k{k1}"

    def test_shm_cache_hit_crosses_shards(self, process_pool):
        """A row scored on shard 0 is a cache hit on shard 1 (shm only)."""
        row = np.arange(4.0)
        hits = {}
        for name, backend in (("shm", process_pool), ("inline", None)):
            fleet = ShardedScoringEngine(
                make_registry(),
                n_shards=2,
                cache_size=64,
                dispatch_size=1,
                backend=backend,
            )
            key_a, key_b = self._two_keys_on_different_shards(fleet)
            fleet.submit(row, key=key_a)
            fleet.flush()
            fleet.submit(row, key=key_b)
            fleet.flush()
            hits[name] = fleet.stats["cache_hits"]
            fleet.close()
        assert hits["shm"] == 1  # the shared table made it visible
        assert hits["inline"] == 0  # per-shard LRUs cannot


# ---------------------------------------------------------------------------
# segment hygiene: shutdown in every failure mode
# ---------------------------------------------------------------------------
class TestSegmentHygiene:
    def test_clean_close_releases_every_segment(self, rows, process_pool):
        before = live_segment_count()
        fleet = ShardedScoringEngine(
            make_registry(), n_shards=2, cache_size=64, backend=process_pool
        )
        assert live_segment_count() > before  # rings (+ cache) are live
        rids = [fleet.submit(row, key=i) for i, row in enumerate(rows)]
        fleet.flush()
        for rid in rids:
            fleet.take(rid)
        fleet.close()
        assert live_segment_count() == before
        assert fleet._shm_pool.live_segments == 0
        assert fleet._shm_pool.leaked_segments == 0

    def test_mid_flight_exception_releases_every_segment(self, rows, process_pool):
        before = live_segment_count()
        with pytest.raises(RuntimeError, match="mid-flight"):
            with ShardedScoringEngine(
                make_registry(), n_shards=2, cache_size=32, backend=process_pool
            ) as fleet:
                for i, row in enumerate(rows):
                    fleet.submit(row, key=i)  # in-flight, never flushed
                raise RuntimeError("mid-flight failure")
        assert live_segment_count() == before
        assert fleet._shm_pool.leaked_segments == 0

    def test_process_fleet_clean_close(self, rows):
        before = live_segment_count()
        backend = ProcessBackend(n_workers=2)
        try:
            fleet = ShardedScoringEngine(
                make_registry(), n_shards=2, cache_size=128, backend=backend
            )
            assert live_segment_count() > before  # process lanes run on shm
            for i, row in enumerate(rows):
                fleet.submit(row, key=i)
            fleet.flush()
            assert fleet.stats["requests"] == len(rows)
            fleet.close()
            assert live_segment_count() == before
            assert fleet._shm_pool.leaked_segments == 0
        finally:
            backend.shutdown()

    def test_worker_death_still_releases_parent_segments(self, rows):
        """SIGKILLing a shard's worker must not strand /dev/shm objects:
        the parent created every segment, so the parent can always
        unlink them — even when _shard_drop can no longer run."""
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
            assert fleet._shm_pool.live_segments == 0
            assert live_segment_count() == before
        finally:
            with contextlib.suppress(Exception):
                backend.shutdown()


# ---------------------------------------------------------------------------
# result-ring degradation
# ---------------------------------------------------------------------------
class TestRingFallback:
    def test_full_ring_falls_back_to_inline_results(self, rows, process_pool):
        """With zero free ring slots every dispatch returns results
        inline — scores are still exact and nothing is overwritten."""
        fleet, reference = (
            ShardedScoringEngine(
                make_registry(), n_shards=1, batch_size=8, dispatch_size=8,
                cache_size=0, backend=process_pool,
            )
            for _ in range(2)
        )
        # white box: the worker reads the parent's consumed cursor on
        # every feed, so pulling it back a ring's worth leaves no room
        fleet._ring_consumed[0] -= fleet._ring_slots
        ids = fleet.submit_batch(rows)
        ref_ids = reference.submit_batch(rows)
        fleet.flush()
        reference.flush()
        assert fleet._ring_consumed[0] == -fleet._ring_slots  # ring never used
        assert reference._ring_consumed[0] == len(rows)  # ...but is normally
        for rid, ref in zip(ids, ref_ids):
            assert fleet.take(rid) == reference.take(ref)
        fleet.close()
        reference.close()
        assert fleet._shm_pool.leaked_segments == 0

    def test_plain_engine_unaffected_by_transport_machinery(self, rows):
        """The serial engine path has no segments at all: submitting the
        same stream through a bare ScoringEngine touches no pool."""
        before = live_segment_count()
        engine = ScoringEngine(make_registry(), batch_size=16, cache_size=0)
        ids = engine.submit_batch(rows)
        engine.flush()
        assert len(engine.take_block(ids)) == len(rows)
        assert live_segment_count() == before
