"""Shared-memory tensors: named, ref-counted numpy segments.

* :class:`SharedTensorPool` — named, ref-counted numpy segments over
  :mod:`multiprocessing.shared_memory` with an explicit lifecycle:
  ``create`` (owner side), ``attach`` (any process that knows the
  name), ``release`` (close; the *creator's* final release unlinks).
  The lifecycle rule mirrors the backend rule the runtime layer
  already enforces: **whoever creates a segment releases it** —
  attachers only ever close their own mapping.  ``shutdown()`` (and a
  registered ``atexit`` hook, counting into ``shm.segments_leaked``)
  sweep anything still open, so a crashed owner cannot strand kernel
  objects in ``/dev/shm``.
* :class:`SharedTensor` — one segment viewed as a numpy array.  The
  array *is* the segment: a parent writing rows into it and a worker
  reading them shares physical pages, no copies in between.

No serving path uses the pool: the sharded fleet
(:mod:`repro.serving.sharding`) passes plain arrays over its lanes and
keeps one LRU per shard, so it creates no segment, and
``live_segment_count()`` reads 0 around it.

Observability: every pool owns real counters/gauges (``shm.*``) and a
:class:`~repro.obs.MetricsRegistry` passed in only *collects* them —
the same adopt-don't-create contract the rest of the stack uses.
Tests pin the hygiene half: a pool's ``close()`` (or its context-manager
exit) leaves ``live_segment_count()`` where it started, and the atexit
sweep counts whatever an owner never released.
"""

from __future__ import annotations

import atexit
import os
import secrets
import sys
import threading
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.obs import NULL_REGISTRY, Counter, Gauge, MetricsRegistry

__all__ = [
    "SharedTensor",
    "SharedTensorPool",
    "live_segment_count",
]

# every live pool in this process, for the atexit sweep and the
# process-wide live_segment_count() the hygiene tests read
_LIVE_POOLS: "set[SharedTensorPool]" = set()
_LIVE_POOLS_LOCK = threading.Lock()

_TRACK_KWARG = sys.version_info >= (3, 13)
_ATTACH_LOCK = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without adopting ownership of it.

    Python's ``resource_tracker`` assumes whoever opens a segment owns
    it and unlinks anything still registered when the process exits —
    which would let a short-lived worker destroy the parent's live
    segments.  Attachers must therefore opt out of tracking: 3.13+
    has ``track=False``.  Earlier interpreters need a subtler idiom
    than the well-known attach-then-``unregister``: forked workers
    share the *parent's* tracker process, so a worker's unregister
    would delete the registration the creating parent depends on for
    crash cleanup.  Instead, suppress the registration itself for the
    duration of the attach (guarded by a lock — the patch is
    process-global state).
    """
    if _TRACK_KWARG:
        return shared_memory.SharedMemory(name=name, track=False)
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def live_segment_count() -> int:
    """Open segments across every pool in this process (the leak probe)."""
    with _LIVE_POOLS_LOCK:
        return sum(pool.live_segments for pool in _LIVE_POOLS)


@atexit.register
def _sweep_at_exit() -> None:
    """Last-resort cleanup: release whatever explicit shutdown missed."""
    with _LIVE_POOLS_LOCK:
        pools = list(_LIVE_POOLS)
    for pool in pools:
        pool._sweep_leaked()


class SharedTensor:
    """One shared-memory segment viewed as a numpy array.

    Handles are pool-issued (:meth:`SharedTensorPool.create` /
    :meth:`~SharedTensorPool.attach`) and released through the pool;
    the object itself is a name + a typed view, cheap to hold.  The
    buffer outlives nothing: touching :attr:`array` after the segment
    was released is a use-after-free, exactly like any mmap.
    """

    __slots__ = ("name", "shape", "dtype", "owner", "_segment", "_array")

    def __init__(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype,
        segment: shared_memory.SharedMemory,
        owner: bool,
    ) -> None:
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.owner = owner
        self._segment = segment
        self._array = np.ndarray(self.shape, dtype=self.dtype, buffer=segment.buf)

    @property
    def array(self) -> np.ndarray:
        """The live numpy view over the segment's pages."""
        return self._array

    @property
    def nbytes(self) -> int:
        return int(self._array.nbytes)

    def descriptor(self) -> tuple[str, tuple[int, ...], str]:
        """``(name, shape, dtype_str)`` — everything an attacher needs."""
        return (self.name, self.shape, self.dtype.str)

    def __repr__(self) -> str:
        role = "owner" if self.owner else "attached"
        return f"SharedTensor({self.name!r}, shape={self.shape}, {role})"


class SharedTensorPool:
    """Create, attach, and release named shared-memory numpy segments.

    Parameters
    ----------
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to export the pool's
        ``shm.*`` metrics into (``None`` keeps them pool-local, the
        usual no-op-registry contract).
    prefix:
        Segment-name prefix; names are ``<prefix>-<pid>-<nonce>`` so
        concurrent pools (and test re-runs) never collide.

    Lifecycle
    ---------
    ``create`` allocates and owns; ``attach`` opens by name and only
    ever closes its own mapping; ``release`` drops one reference and,
    on the owner's final release, unlinks the kernel object.
    ``shutdown()`` releases everything still open (idempotent, also
    the context-manager exit), and an ``atexit`` sweep catches pools
    that never got one — counting each swept segment into
    ``shm.segments_leaked`` so hygiene regressions are visible, not
    silent.
    """

    def __init__(self, metrics: MetricsRegistry | None = None, prefix: str = "repro") -> None:
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._prefix = prefix
        # name -> [SharedTensor, refcount]
        self._segments: dict[str, list] = {}
        self._lock = threading.Lock()
        self._c_created = self.metrics.adopt(Counter("shm.segments_created"))
        self._c_attached = self.metrics.adopt(Counter("shm.segments_attached"))
        self._c_released = self.metrics.adopt(Counter("shm.segments_released"))
        self._c_leaked = self.metrics.adopt(Counter("shm.segments_leaked"))
        self._g_live = self.metrics.adopt(Gauge("shm.live_segments"))
        self._g_bytes = self.metrics.adopt(Gauge("shm.live_bytes"))
        with _LIVE_POOLS_LOCK:
            _LIVE_POOLS.add(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def create(self, shape: tuple[int, ...], dtype=np.float64) -> SharedTensor:
        """Allocate a fresh zero-filled segment this pool owns."""
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        name = f"{self._prefix}-{os.getpid()}-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        tensor = SharedTensor(segment.name, tuple(shape), dtype, segment, owner=True)
        with self._lock:
            self._segments[tensor.name] = [tensor, 1]
        self._c_created.inc()
        self._update_gauges()
        return tensor

    def attach(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> SharedTensor:
        """Open an existing segment by descriptor (ref-counted per name)."""
        with self._lock:
            entry = self._segments.get(name)
            if entry is not None:
                entry[1] += 1
                self._c_attached.inc()
                return entry[0]
        segment = _attach_segment(name)
        tensor = SharedTensor(name, tuple(shape), np.dtype(dtype), segment, owner=False)
        with self._lock:
            self._segments[name] = [tensor, 1]
        self._c_attached.inc()
        self._update_gauges()
        return tensor

    def release(self, name: str) -> bool:
        """Drop one reference; the last reference closes (and, for the
        owner, unlinks) the segment.  Unknown names are a no-op —
        release is idempotent so error paths can sweep freely."""
        with self._lock:
            entry = self._segments.get(name)
            if entry is None:
                return False
            entry[1] -= 1
            if entry[1] > 0:
                return True
            del self._segments[name]
        self._close_tensor(entry[0])
        self._c_released.inc()
        self._update_gauges()
        return True

    def shutdown(self) -> int:
        """Release every segment still open; returns how many were."""
        with self._lock:
            entries = list(self._segments.values())
            self._segments.clear()
        for tensor, _refs in entries:
            self._close_tensor(tensor)
            self._c_released.inc()
        self._update_gauges()
        return len(entries)

    def close(self) -> None:
        """Alias for :meth:`shutdown` + deregistration from the atexit sweep."""
        self.shutdown()
        with _LIVE_POOLS_LOCK:
            _LIVE_POOLS.discard(self)

    def _sweep_leaked(self) -> None:
        """atexit path: anything still open here was leaked by its owner."""
        with self._lock:
            entries = list(self._segments.values())
            self._segments.clear()
        for tensor, _refs in entries:
            self._close_tensor(tensor)
            self._c_released.inc()
            self._c_leaked.inc()
        self._update_gauges()

    @staticmethod
    def _close_tensor(tensor: SharedTensor) -> None:
        # drop the numpy view first: SharedMemory.close() refuses while
        # exported buffers are alive
        tensor._array = None
        try:
            tensor._segment.close()
        except BufferError:  # pragma: no cover - view still referenced elsewhere
            return
        if tensor.owner:
            try:
                tensor._segment.unlink()
            # idempotent teardown: a racing owner may have unlinked first;
            # the segment is gone either way, which is the goal state
            except FileNotFoundError:  # pragma: no cover - already unlinked  # repro: allow[RPR007]
                pass

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def live_segments(self) -> int:
        """Segments this pool currently holds open (the leak counter's
        complement: a clean shutdown drives this to 0)."""
        with self._lock:
            return len(self._segments)

    @property
    def live_bytes(self) -> int:
        with self._lock:
            return sum(entry[0].nbytes for entry in self._segments.values())

    @property
    def leaked_segments(self) -> int:
        """Segments the atexit sweep had to clean up (0 in healthy runs)."""
        return int(self._c_leaked.value)

    def _update_gauges(self) -> None:
        self._g_live.set(self.live_segments)
        self._g_bytes.set(self.live_bytes)

    def __enter__(self) -> "SharedTensorPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SharedTensorPool(live={self.live_segments}, prefix={self._prefix!r})"
