"""Micro-batching scoring engine with deadline flushing and an LRU cache.

Online traffic arrives one user at a time, but every model in this
codebase is dramatically faster when scored in vectorised batches (an
MLP forward pass amortises its Python overhead across rows).  The
:class:`ScoringEngine` bridges the two: requests are buffered per model
version and scored with **one** vectorised policy call per flush.  A
flush happens for one of three reasons, tallied in
``stats["flush_batch_full"/"flush_deadline"/"flush_manual"]``:

* **batch_full** — the buffer reached ``batch_size`` (the throughput
  path);
* **deadline** — ``max_latency_ms`` elapsed since the oldest buffered
  request (the latency path: a lonely request on a quiet stream is
  never stranded waiting for a batch that won't fill).  Deadlines run
  on a :class:`~repro.runtime.Clock` through a pull-based
  :class:`~repro.runtime.DeadlineLoop`: ``submit`` and :meth:`poll`
  check it, so under a :class:`~repro.runtime.ManualClock` the
  behaviour is exact and simulator-testable;
* **manual** — an explicit :meth:`flush` call (stream end).

Every flush scores inline: the policy runs on the caller's thread,
one batch after another, and each batch's scores (or its exception)
are booked before the next batch is scored, so results are ready by
the time ``flush`` returns.

Identical feature rows — retargeted users, bot bursts —
short-circuit through an LRU cache keyed by the feature hash and the
model version, skipping the model entirely.

The request lifecycle is ``submit → (auto)flush → take``; ``score``
wraps it for synchronous single-request use.  When a clock is present
the engine also records every *scored* request's submit→score latency
in ``latency_hist`` (read off the clock once its batch is scored),
which is what the latency benchmarks and the deadline acceptance tests
read.  Cache hits never enter the latency record: they are tallied in
``cache_hits`` instead, so the p95 the deadline-bound claims are
measured on reflects requests the model actually scored rather than
being silently deflated by zero-cost replays.

For outcome attribution the engine remembers which registry version's
score serves each request — :meth:`version_of` — until the result is
taken; the traffic simulator uses it to credit realised outcomes to
the right :class:`~repro.serving.registry.OutcomeLedger`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from itertools import repeat

import numpy as np

from repro.obs import NULL_REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from repro.runtime import Clock, DeadlineLoop, SystemClock
from repro.runtime.clock import DUE_SLACK
from repro.serving.policy import DecisionPolicy, GreedyROIPolicy
from repro.serving.registry import ModelRegistry

__all__ = ["ScoringEngine"]

# the engine's counter vocabulary; ``stats`` renders these, and a real
# registry exports them as ``engine.<name>``
_STAT_NAMES = (
    "requests",
    "cache_hits",
    "cache_misses",
    "flushes",
    "flush_batch_full",
    "flush_deadline",
    "flush_manual",
    "model_calls",
    "rows_scored",
)


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """Each row's ``tobytes()`` (its cache key), from one ``np.void``
    view of a C-contiguous ``(n, d)`` block."""
    n, d = rows.shape
    if d == 0:  # a zero-width void view has no items to list
        return [b""] * n
    return rows.view(np.dtype((np.void, d * rows.itemsize))).ravel().tolist()


def _checked_stamps(stamps, n: int, clock: "Clock | None") -> np.ndarray:
    """A block's per-row submit stamps as a float array: one per row,
    finite, non-decreasing and at most ``clock.now()``, on an engine
    with a clock; ValueError otherwise."""
    if clock is None:
        raise ValueError("stamps need an engine with a clock")
    stamps = np.asarray(stamps, dtype=float)
    if stamps.shape != (n,):
        raise ValueError(f"stamps must have shape ({n},), got {stamps.shape}")
    # a NaN fails the order test, and ordered stamps with finite ends
    # are finite throughout
    if n and not (
        math.isfinite(stamps[0]) and math.isfinite(stamps[-1]) and (stamps[1:] >= stamps[:-1]).all()
    ):
        raise ValueError("stamps must be finite and non-decreasing")
    if n and stamps[-1] > clock.now():
        raise ValueError(f"stamps must not be later than the clock, got {stamps[-1]} at {clock.now()}")
    return stamps


class _PendingBlock:
    """One version's buffered requests, stored columnar.

    A preallocated ``(cap, d)`` feature block plus aligned request-id
    and submit-stamp vectors, grown geometrically — the flush slices
    **one contiguous array** instead of stacking a deque of per-row
    copies.  A flush pops the block whole (a fresh block starts the
    next batch), so the view handed to the policy can never alias rows
    appended later.

    ``record`` is the slab path's bookkeeping: a block fed only by
    ``submit_batch`` slab slices carries one :class:`_RidRange`
    covering its (contiguous) ids, letting the flush skip per-rid dict
    writes entirely.  The block is *pure* while ``record.stop -
    record.start == n``: a record's rows are always buffered, so any
    other row landing on the block (a scalar ``submit`` or a row walk)
    makes the count exceed the run's length, and the flush books every
    row per rid.
    """

    __slots__ = ("rows", "rids", "stamps", "n", "record")

    def __init__(self, d: int, cap: int) -> None:
        cap = max(1, cap)
        self.rows = np.empty((cap, d), dtype=float)
        self.rids = np.empty(cap, dtype=np.int64)
        self.stamps = np.empty(cap, dtype=float)
        self.n = 0
        self.record: _RidRange | None = None

    def _grow_to(self, need: int) -> None:
        cap = self.rows.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        extra = cap - self.rows.shape[0]
        self.rows = np.concatenate([self.rows, np.empty((extra, self.rows.shape[1]))])
        self.rids = np.concatenate([self.rids, np.empty(extra, dtype=np.int64)])
        self.stamps = np.concatenate([self.stamps, np.empty(extra)])

    def append(self, rid: int, row: np.ndarray, stamp: float) -> None:
        self._grow_to(self.n + 1)
        self.rows[self.n] = row
        self.rids[self.n] = rid
        self.stamps[self.n] = stamp
        self.n += 1

    def append_block(self, rids: np.ndarray, block: np.ndarray, stamp: "float | np.ndarray") -> None:
        """Append rows with one shared stamp or one stamp per row."""
        take = block.shape[0]
        self._grow_to(self.n + take)
        self.rows[self.n : self.n + take] = block
        self.rids[self.n : self.n + take] = rids
        self.stamps[self.n : self.n + take] = stamp
        self.n += take

    def view(self) -> np.ndarray:
        """The buffered rows as one contiguous slice (no copy)."""
        return self.rows[: self.n]


class _RidRange:
    """One contiguous run of slab-path request ids, bookkept as a range.

    ``submit_batch``'s slab path never touches the per-rid dicts on
    submit *or* when scored: the block's ids are ``[start, stop)``, the
    version is single, and once scored the whole result array hangs
    off :attr:`scores`.  ``take_block`` then pops an entire record in
    O(1); only callers probing individual ids (``take``/``version_of``)
    force a lazy materialisation into the dicts — pay-per-use, never on
    the block path.
    """

    __slots__ = ("start", "stop", "version_id", "scores")

    def __init__(self, start: int, stop: int, version_id: int) -> None:
        self.start = start
        self.stop = stop
        self.version_id = version_id
        self.scores: np.ndarray | None = None


class ScoringEngine:
    """Accumulate scoring requests and serve them in vectorised micro-batches.

    Parameters
    ----------
    models:
        A :class:`ModelRegistry` or a bare scorer with ``predict_roi``
        (wrapped into a single-champion registry).
    policy:
        The :class:`DecisionPolicy` producing scores from a model and a
        feature batch (default greedy-ROI point estimates).
    batch_size:
        Buffered requests that trigger an automatic flush.  ``1``
        degenerates to synchronous per-request scoring.
    cache_size:
        Maximum number of ``(version, feature-hash)`` entries in the
        LRU score cache; ``0`` disables caching.
    max_latency_ms:
        Deadline flushing: at most this many milliseconds may pass
        (on ``clock``) between a request entering the buffer and the
        flush that scores it, however empty the batch is.  ``None``
        (default) keeps pure batch-full flushing.
    clock:
        Time source for deadlines and latency accounting.  Defaults to
        :class:`~repro.runtime.SystemClock` when ``max_latency_ms`` is
        set; pass a :class:`~repro.runtime.ManualClock` to drive time
        explicitly (simulation/tests).  When present, submit→score
        latencies are recorded in :attr:`latency_hist`.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to export this engine's
        metrics into (counters ``engine.<stat>``, gauge
        ``engine.queue_depth``, histogram ``engine.latency_seconds``,
        span ``span.engine.flush.seconds``).  ``None`` (default) keeps
        them engine-local: the engine always *keeps* its own real
        counters (they are what :attr:`stats` renders), the registry
        only decides whether anything collects them — so enabling
        observability costs nothing on the hot path and the scoring
        results are bit-identical either way.  Use one registry per
        engine (a second engine adopting into the same registry
        replaces the first's metrics); shard-level registries merge
        via :meth:`~repro.obs.Snapshot.merge`.
    """

    def __init__(
        self,
        models: ModelRegistry | object,
        policy: DecisionPolicy | None = None,
        batch_size: int = 32,
        cache_size: int = 4096,
        max_latency_ms: float | None = None,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if isinstance(models, ModelRegistry):
            self.registry = models
        else:
            self.registry = ModelRegistry()
            self.registry.register(models, promote=True)
        self.policy = policy if policy is not None else GreedyROIPolicy()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if max_latency_ms is not None and not max_latency_ms > 0:
            raise ValueError(f"max_latency_ms must be > 0, got {max_latency_ms}")
        self.batch_size = int(batch_size)
        self.cache_size = int(cache_size)
        self.max_latency_ms = None if max_latency_ms is None else float(max_latency_ms)
        if clock is None and max_latency_ms is not None:
            clock = SystemClock()
        self.clock = clock
        self._deadlines = (
            DeadlineLoop(clock, self._flush_on_deadline) if max_latency_ms is not None else None
        )
        self._cache: OrderedDict[tuple[int, bytes], float] = OrderedDict()
        # pending rows grouped by model version, stored columnar:
        # version -> _PendingBlock (rows + rids, one contiguous slab)
        self._pending: dict[int, _PendingBlock] = {}
        self._n_pending = 0
        self._ready: dict[int, float] = {}
        # slab-path id runs (pending or scored, not yet taken), oldest
        # first; scan is linear but the list holds one entry per
        # undrained submit_batch block, not per request
        self._ranges: list[_RidRange] = []
        # rid -> registry version whose score serves the request
        # (cache hits included); alive from submit until take
        self._version_by_rid: dict[int, int] = {}
        self._next_id = 0
        # the engine's metrics are real whether or not a registry
        # collects them — ``stats`` renders the counters, so the hot
        # path costs the same with observability on or off
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._counters: dict[str, Counter] = {
            name: self.metrics.adopt(Counter(f"engine.{name}")) for name in _STAT_NAMES
        }
        self._c_requests = self._counters["requests"]
        self._c_cache_hits = self._counters["cache_hits"]
        self._c_cache_misses = self._counters["cache_misses"]
        self._c_flushes = self._counters["flushes"]
        self._c_model_calls = self._counters["model_calls"]
        self._c_rows_scored = self._counters["rows_scored"]
        self._c_flush_reason = {
            reason: self._counters["flush_" + reason]
            for reason in ("batch_full", "deadline", "manual")
        }
        self._g_queue = self.metrics.adopt(Gauge("engine.queue_depth"))
        #: bounded-memory latency sketch over **every** recorded
        #: submit→score latency: the engine's only latency record
        #: (``count``, ``min`` and ``max`` exact, quantiles within 1%)
        self.latency_hist: Histogram = self.metrics.adopt(
            Histogram("engine.latency_seconds")
        )

    # ------------------------------------------------------------------
    # request lifecycle
    # ------------------------------------------------------------------
    def submit(self, x_row: np.ndarray, key: str | int | None = None) -> int:
        """Enqueue one request; returns its id.

        Auto-flushes when the buffer fills; first checks the deadline
        loop, so an overdue batch flushes *before* this request starts
        a fresh one (its own deadline is armed when it is the first
        pending request).  A row whose width differs from the pending
        batch's raises ValueError before anything else moves.
        """
        if self._deadlines is not None:
            self._deadlines.poll()
        row = np.ascontiguousarray(np.asarray(x_row, dtype=float).ravel())
        for vid in self._pending:  # inline and call-free: the per-arrival path
            if self._pending[vid].rows.shape[1] != row.shape[0]:
                self._check_width(row.shape[0])  # raises
            break
        rid = self._next_id
        self._next_id += 1
        self._c_requests.inc()
        version = self.registry.route(key)
        self._version_by_rid[rid] = version.version
        if self.cache_size > 0:
            hit = self._cache_probe(version.version, row.tobytes())
            if hit is not None:
                self._c_cache_hits.inc()
                version.cache_hits += 1
                self._ready[rid] = hit
                # deliberately NOT recorded in ``latency_hist``: a cache
                # replay costs nothing and would deflate the scored p95
                return rid
        self._c_cache_misses.inc()
        block = self._pending.get(version.version)
        if block is None:
            block = self._pending[version.version] = _PendingBlock(
                row.shape[0], min(self.batch_size, 64)
            )
        block.append(rid, row, self.clock.now() if self.clock is not None else 0.0)
        self._n_pending += 1
        self._g_queue.set(self._n_pending)
        if self._n_pending == 1 and self._deadlines is not None:
            self._deadlines.schedule_in(self.max_latency_ms / 1000.0)
        if self._n_pending >= self.batch_size:
            self.flush(reason="batch_full")
        return rid

    def submit_batch(
        self,
        x: np.ndarray,
        keys: "list[str | int] | None" = None,
        stamps: "np.ndarray | None" = None,
    ) -> "list[int] | range":
        """Enqueue a block of requests; returns their ids in row order
        as a ``range`` (``[]`` for an empty block) — hand it to
        :meth:`take_block`.

        Semantically **exactly** N :meth:`submit` calls — same scores,
        stats, cache hits and LRU order, version attribution, routing
        draws, flush counters, and latency sketch (pinned under a
        :class:`~repro.runtime.ManualClock`; under a wall clock the
        per-row submit stamps drift apart by however long N calls
        take, which a single block stamp legitimately doesn't).  The
        difference is the constant factor: one deadline poll and one
        clock stamp per block, and one of two paths, picked from what
        the engine observes:

        * **slab** — cache off and static routing
          (:attr:`~repro.serving.registry.ModelRegistry.
          routing_is_static`): one route call, C-level id bookkeeping
          (a :class:`_RidRange` per pending block), and rows landing
          in the columnar buffer as slab copies — which is what the
          ≥2M scores/s batched target is measured on.  Keys only steer
          routing, so static routing ignores them.  Ids and counters
          move once per flush segment, as on the row walk.
        * **row walk** — anything else: each row in turn routes (a
          live challenger draws at the row's turn), probes the cache
          and, on a miss, joins its version's pending block.  A
          ``batch_size`` boundary flushes at the very row N submits
          would flush at, so later rows probe the same cache state;
          in between, misses land as one slab copy per version and the
          ids, version attribution and counters move once per flush
          segment — so a raising flush leaves exactly what N submits
          would have left.

        A block whose width differs from the pending batch's raises
        ValueError before anything moves.

        ``stamps`` gives each row its own submit time on the engine's
        clock, for a caller that collected the rows over time (the
        replay's runs between deadlines).  The block then equals N
        ``submit`` calls made with the clock at ``stamps[i]``: ids,
        versions, counters, the latency sketch and the armed deadline,
        which the first row into an empty buffer arms from its own
        stamp, and a batch-full flush reads the stamp of the row that
        fills the batch.  The block polls no deadline, since none may
        be due at any stamp.  ValueError, before anything moves, for an
        engine without a clock, for stamps that are not one per row,
        finite, non-decreasing and at most ``clock.now()``, and for a
        block that reaches a flush deadline: neither the armed one nor
        the one its first row would arm may be due at the last stamp.
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=float))
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        n = x.shape[0]
        if keys is not None and len(keys) != n:
            raise ValueError(f"got {len(keys)} keys for {n} rows")
        if stamps is not None:
            stamps = _checked_stamps(stamps, n, self.clock)
        if n == 0:
            return []
        if stamps is None:
            if self._deadlines is not None:
                self._deadlines.poll()
            self._check_width(x.shape[1])
            stamps = self.clock.now() if self.clock is not None else 0.0
        else:
            self._check_width(x.shape[1])
            self._check_reach(stamps)
        rid0 = self._next_id
        if self.cache_size > 0 or not self.registry.routing_is_static:
            self._walk(x, keys, stamps)
        else:
            self._slab(x, stamps)
        self._g_queue.set(self._n_pending)
        return range(rid0, rid0 + n)

    def _check_reach(self, stamps: np.ndarray) -> None:
        """ValueError when a stamped block would meet a flush deadline:
        the armed one, or the one its first row would arm, is due at the
        last stamp.  A row that arms one after a batch fill arms it no
        earlier than the first row would."""
        if self._deadlines is None:
            return
        last = stamps[-1] + DUE_SLACK
        armed = self._deadlines.next_deadline()
        if (armed is not None and armed <= last) or stamps[0] + self.max_latency_ms / 1000.0 <= last:
            raise ValueError(
                "the block reaches a flush deadline by its last stamp; submit the rows "
                "before the deadline, poll, then the rest"
            )

    def _arm(self, at: "float | None") -> None:
        """Arm the flush deadline ``max_latency_ms`` after ``at``, the
        stamp of the row entering an empty buffer (None: now)."""
        delay = self.max_latency_ms / 1000.0
        if at is None:
            self._deadlines.schedule_in(delay)
        else:
            self._deadlines.schedule(at + delay)

    def _flush_full(self, at: "float | None") -> None:
        """The batch-full flush of a block: at the filling row's stamp
        when the rows carry stamps, else through :meth:`flush`, the
        entry point perfbench's tracer counts by name (so the traced
        calls of unstamped replays stay as they were)."""
        if at is None:
            self.flush(reason="batch_full")
        else:
            self._flush("batch_full", at)

    def _check_width(self, d: int) -> None:
        """ValueError unless ``d`` matches the pending rows' width (every
        pending block shares it, so the first one answers)."""
        block = next(iter(self._pending.values()), None)
        if block is not None and block.rows.shape[1] != d:
            raise ValueError(
                f"got a row of width {d}, but the pending batch has width {block.rows.shape[1]}"
            )

    def _slab(self, x: np.ndarray, stamps: "float | np.ndarray") -> None:
        """``submit_batch``'s slab path: cache off, static routing."""
        n = x.shape[0]
        per_row = isinstance(stamps, np.ndarray)
        vid = self.registry.route(None).version  # static: champion, no RNG
        rid0 = self._next_id
        start = 0
        while start < n:
            # stop at every batch_size boundary exactly as the scalar
            # path would (flush counters stay identical), and book ids
            # and counters per segment, so a raising flush leaves
            # exactly what N submits leave
            take = min(max(self.batch_size - self._n_pending, 1), n - start)
            slice_rid0 = rid0 + start
            self._next_id = slice_rid0 + take
            self._c_requests.inc(take)
            self._c_cache_misses.inc(take)
            block = self._pending.get(vid)
            if block is None:
                block = self._pending[vid] = _PendingBlock(
                    x.shape[1], min(self.batch_size, max(take, 64))
                )
            rec = block.record
            if rec is not None and rec.stop == slice_rid0 and rec.stop - rec.start == block.n:
                rec.stop += take  # pure block, contiguous ids: extend
            elif block.n == 0:
                rec = block.record = _RidRange(slice_rid0, slice_rid0 + take, vid)
                self._ranges.append(rec)
            else:
                # the block already holds other rows (or ids that are no
                # longer contiguous) — bookkeep this slice per-rid so
                # the flush's per-rid booking covers everything
                slice_ids = range(slice_rid0, slice_rid0 + take)
                self._version_by_rid.update(zip(slice_ids, repeat(vid)))
            was_empty = self._n_pending == 0
            block.append_block(
                np.arange(slice_rid0, slice_rid0 + take, dtype=np.int64),
                x[start : start + take],
                stamps[start : start + take] if per_row else stamps,
            )
            self._n_pending += take
            if was_empty and self._deadlines is not None:
                self._arm(stamps[start] if per_row else None)
            start += take
            if self._n_pending >= self.batch_size:
                self._flush_full(stamps[start - 1] if per_row else None)

    def _walk(
        self, x: np.ndarray, keys: "list[str | int] | None", stamps: "float | np.ndarray"
    ) -> None:
        """``submit_batch``'s row walk: N :meth:`submit` calls' effects,
        booked once per flush segment (the rows up to and including the
        one whose miss fills the batch)."""
        n = x.shape[0]
        per_row = isinstance(stamps, np.ndarray)
        registry = self.registry
        # a live challenger routes each row at its turn, after any
        # flush before it, so the registry draws in submit's order
        route = None if registry.routing_is_static else registry.route
        version = registry.route(None) if route is None else None
        cache_on = self.cache_size > 0
        row_keys = _row_keys(x) if cache_on else None
        lru = self._cache
        rid0 = self._next_id  # row i gets id rid0 + i
        vids: list[int] = []  # per row: the version serving it
        lo = 0
        while lo < n:
            room = self.batch_size - self._n_pending
            hit_rows: list[int] = []
            hit_scores: list[float] = []
            misses: dict[int, list[int]] = {}  # version id -> rows, first miss first
            n_miss = 0
            hi = n
            for i in range(lo, n):
                if route is not None:
                    version = route(None if keys is None else keys[i])
                vid = version.version
                vids.append(vid)
                if cache_on:
                    cache_key = (vid, row_keys[i])
                    hit = lru.get(cache_key)
                    if hit is not None:
                        lru.move_to_end(cache_key)
                        hit_rows.append(i)
                        hit_scores.append(hit)
                        continue
                misses.setdefault(vid, []).append(i)
                n_miss += 1
                if n_miss >= room:
                    hi = i + 1
                    break
            # book the segment [lo, hi) as its submits would have
            self._next_id = rid0 + hi
            self._c_requests.inc(hi - lo)
            self._version_by_rid.update(zip(range(rid0 + lo, rid0 + hi), vids[lo:hi]))
            if hit_rows:
                self._ready.update(zip([rid0 + i for i in hit_rows], hit_scores))
                self._c_cache_hits.inc(len(hit_rows))
                hit_vids = [vids[i] for i in hit_rows]
                for vid in dict.fromkeys(hit_vids):
                    registry.get(vid).cache_hits += hit_vids.count(vid)
            if n_miss:
                self._c_cache_misses.inc(n_miss)
                was_empty = self._n_pending == 0
                for vid, rows in misses.items():
                    block = self._pending.get(vid)
                    if block is None:
                        block = self._pending[vid] = _PendingBlock(
                            x.shape[1], min(self.batch_size, max(len(rows), 64))
                        )
                    block.append_block(
                        rid0 + np.array(rows, dtype=np.int64),
                        x[rows],
                        stamps[rows] if per_row else stamps,
                    )
                self._n_pending += n_miss
                if was_empty and self._deadlines is not None:
                    # the segment's first miss is the row that arms it
                    first = min(segment[0] for segment in misses.values())
                    self._arm(stamps[first] if per_row else None)
                if n_miss >= room:
                    self._flush_full(stamps[hi - 1] if per_row else None)
            lo = hi

    def _flush_on_deadline(self) -> None:
        self.flush(reason="deadline")

    def flush(self, reason: str = "manual") -> int:
        """Score every pending request (one policy call per version).

        Returns the number of requests scored.  Scoring runs inline,
        batch by batch, and each batch is booked before the next is
        scored, so every result is ready when ``flush`` returns.  A
        model failure raises out of ``flush``: the failing batch is
        dropped (its ids never resolve), and the batches not yet scored
        stay pending.
        """
        return self._flush(reason, None)

    def _flush(self, reason: str, at: "float | None") -> int:
        """:meth:`flush` at clock time ``at`` (None: read the clock)."""
        if reason not in self._c_flush_reason:
            raise ValueError(
                f"reason must be 'manual', 'batch_full' or 'deadline', got {reason!r}"
            )
        scored = 0
        if self._n_pending:
            self._c_flushes.inc()
            self._c_flush_reason[reason].inc()
        if self._deadlines is not None:
            self._deadlines.cancel()
        try:
            with self.metrics.span("engine.flush", clock=self.clock):
                while self._pending:
                    # pop each batch before scoring it, so a raising
                    # policy/model leaves the engine consistent (the
                    # failed batch is dropped, not re-run)
                    version_id, batch = self._pending.popitem()
                    self._n_pending -= batch.n
                    self._score(version_id, batch, at)
                    scored += batch.n
        finally:
            self._g_queue.set(self._n_pending)
            if self._n_pending and self._deadlines is not None:
                # a raising batch aborted the flush with other versions'
                # requests still buffered — they are already overdue, so
                # re-arm to fire at the very next poll (never leave
                # survivors without a deadline)
                self._deadlines.schedule(self.clock.now() if at is None else at)
        return scored

    def _score(self, version_id: int, batch: _PendingBlock, at: "float | None") -> None:
        """Score one popped batch with one policy call and book it; its
        latencies end at ``at`` (None: the clock after scoring)."""
        nb = batch.n
        model = self.registry.get(version_id).model
        try:
            # one contiguous slice of the columnar block — the block
            # is popped, so the view cannot alias later appends
            scores = np.asarray(self.policy.score_batch(model, batch.view()), dtype=float).ravel()
            if scores.shape[0] != nb:
                raise ValueError(f"policy returned {scores.shape[0]} scores for {nb} rows")
        except BaseException:
            # the failed batch is dropped whole — forget its version
            # attribution and its id run (those ids never resolve)
            if batch.record is not None:
                self._ranges.remove(batch.record)
            for rid in batch.rids[:nb].tolist():
                self._version_by_rid.pop(rid, None)
            raise
        self._c_model_calls.inc()
        self._c_rows_scored.inc(nb)
        # the model really scored these rows — credit the version
        # (cache hits were credited separately at submit)
        self.registry.get(version_id).requests += nb
        now = at if at is not None else self.clock.now() if self.clock is not None else None
        rec = batch.record
        if now is None and self.cache_size <= 0 and rec is not None and rec.stop - rec.start == nb:
            # pure slab block: the scores array *is* the bookkeeping —
            # served by take_block in O(1) (or lazily materialised if
            # someone probes single ids)
            rec.scores = scores
            return
        # every other block books its rows in one pass
        if rec is not None:
            self._ranges.remove(rec)
            self._version_by_rid.update(zip(range(rec.start, rec.stop), repeat(version_id)))
        score_list = scores.tolist()
        self._ready.update(zip(batch.rids[:nb].tolist(), score_list))
        if now is not None:
            self.latency_hist.record_many(np.maximum(now - batch.stamps[:nb], 0.0).tolist())
        if self.cache_size > 0:
            self._remember_block(version_id, batch.view(), score_list)

    def latency_quantile(self, q: float) -> float:
        """Submit→score latency quantile (clock seconds) over **every**
        latency this engine ever recorded.

        Reads :attr:`latency_hist`, a bounded-memory sketch with ~1%
        relative error.  Raises :class:`ValueError` when nothing was
        recorded (no clock, or cache-only traffic).
        """
        if self.latency_hist.count == 0:
            raise ValueError("no latencies recorded — run with a clocked engine")
        return self.latency_hist.quantile(q)

    def poll(self) -> int:
        """Advance the engine without submitting: fire any overdue
        deadline flush.

        Returns the number of deadline flushes fired.  The idle-stream
        hook: callers with their own event loop (the traffic
        simulator, a server's timer tick) call this between arrivals
        so a quiet stream still honours ``max_latency_ms``.
        """
        return self._deadlines.poll() if self._deadlines is not None else 0

    def join(self) -> None:
        """Wait for every flushed batch: a no-op, since a flush scores
        before it returns.  A sharded fleet's ``join`` does wait, and
        :class:`~repro.serving.simulator.TrafficReplay` joins either."""

    def next_deadline(self) -> float | None:
        """Clock time of the pending flush deadline, or None.

        Lets an event loop driving a :class:`~repro.runtime.ManualClock`
        stop *at* the deadline instead of jumping past it — the traffic
        simulator uses this to keep the latency bound exact for any
        inter-arrival gap.
        """
        return self._deadlines.next_deadline() if self._deadlines is not None else None

    def has_result(self, request_id: int) -> bool:
        """True once the request's score is available.

        Advances the engine like :meth:`poll` does — overdue deadline
        flushes fire — so a waiter spinning on ``has_result`` alone
        still gets the ``max_latency_ms`` guarantee.
        """
        if self._deadlines is not None:
            self._deadlines.poll()
        if request_id in self._ready:
            return True
        rec = self._find_range(request_id)
        return rec is not None and rec.scores is not None

    def version_of(self, request_id: int) -> int:
        """Registry version id whose score serves this request.

        Valid from :meth:`submit` until the result is taken (cache hits
        report the version whose cached score answered); KeyError for
        unknown ids or batches dropped by a failed flush.  Read it
        *before* :meth:`take` — outcome attribution needs to know which
        model's score drove the decision being realised.
        """
        version = self._version_by_rid.get(request_id)
        if version is not None:
            return version
        rec = self._find_range(request_id)
        if rec is not None:
            return rec.version_id
        return self._version_by_rid[request_id]  # KeyError with the rid

    def _open_ids(self) -> set[int]:
        """Ids a later take or drain can still resolve: buffered, or
        scored and not yet taken (a dropped batch's are not)."""
        ids = set(self._ready)
        for block in self._pending.values():
            ids.update(block.rids[: block.n].tolist())
        for rec in self._ranges:
            ids.update(range(rec.start, rec.stop))
        return ids

    def _find_range(self, rid: int) -> _RidRange | None:
        for rec in self._ranges:
            if rec.start <= rid < rec.stop:
                return rec
        return None

    def _materialize(self, rec: _RidRange) -> None:
        """Expand one scored slab-path run into the per-rid dicts (the
        price of probing block results id-by-id; ``take_block`` never
        pays it)."""
        ids = range(rec.start, rec.stop)
        self._ready.update(zip(ids, rec.scores.tolist()))
        self._version_by_rid.update(zip(ids, repeat(rec.version_id)))
        self._ranges.remove(rec)

    def take(self, request_id: int) -> float:
        """Pop a finished score (KeyError when still pending/unknown)."""
        if request_id not in self._ready:
            if self._deadlines is not None:
                self._deadlines.poll()
            if request_id not in self._ready:
                rec = self._find_range(request_id)
                if rec is not None and rec.scores is not None:
                    self._materialize(rec)
        score = self._ready.pop(request_id)
        self._version_by_rid.pop(request_id, None)
        return score

    def take_block(self, rids: "list[int] | range") -> np.ndarray:
        """Pop the finished scores of ``rids`` as one array, in the
        order given — the bulk :meth:`take`.

        All or nothing: KeyError, with nothing popped and no version
        attribution released, when any id is still pending, unknown or
        repeated.  When the ids ascend one by one (the ``range``
        ``submit_batch`` returns, or the replay's ready prefix) over a
        slab run whose scored records tile the span, this is O(1) per
        scored block (array slices, no per-rid dicts); otherwise any
        scored run overlapping the ids is materialised first and the
        ids are checked, then popped, in bulk.
        """
        n = len(rids)
        if n == 0:
            return np.empty(0, dtype=float)
        self.poll()
        start, stop = int(rids[0]), int(rids[-1]) + 1
        # a range spanning n ids steps by one; other ids are checked
        if stop - start == n and (isinstance(rids, range) or list(rids) == list(range(start, stop))):
            recs = sorted(
                (
                    r
                    for r in self._ranges
                    if r.start >= start and r.stop <= stop and r.scores is not None
                ),
                key=lambda r: r.start,
            )
            if (
                recs
                and recs[0].start == start
                and recs[-1].stop == stop
                and all(a.stop == b.start for a, b in zip(recs, recs[1:]))
            ):
                for rec in recs:
                    self._ranges.remove(rec)
                if len(recs) == 1:
                    return recs[0].scores
                return np.concatenate([rec.scores for rec in recs])
        lo, hi = min(rids), max(rids)
        for rec in [r for r in self._ranges if r.scores is not None and r.start <= hi and r.stop > lo]:
            self._materialize(rec)
        ready, versions = self._ready, self._version_by_rid
        scores = np.array([ready[rid] for rid in rids], dtype=float)  # KeyError: nothing popped
        if len(set(rids)) < n:
            raise KeyError(f"request ids repeat in {list(rids)}")
        for rid in rids:
            ready.pop(rid, None)
            versions.pop(rid, None)
        return scores

    def drain(self) -> list[tuple[int, int, float]]:
        """Pop every finished result as ``(request_id, version_id, score)``.

        Advances the engine first (overdue deadline flushes), then
        empties the ready set in request-id order.  The
        bulk companion to :meth:`take` for callers that track requests
        themselves — a fleet's shard drains a whole feed's results in
        one call instead of probing ids one by one.
        """
        self.poll()
        for rec in [r for r in self._ranges if r.scores is not None]:
            self._materialize(rec)
        out = []
        for rid in sorted(self._ready):
            score = self._ready.pop(rid)
            out.append((rid, self._version_by_rid.pop(rid, -1), score))
        return out

    def score(self, x_row: np.ndarray, key: str | int | None = None) -> float:
        """Synchronous convenience path: submit, force a flush, return."""
        rid = self.submit(x_row, key=key)
        if rid not in self._ready:
            self.flush()
        return self.take(rid)

    def score_batch(self, x: np.ndarray, key: str | int | None = None) -> np.ndarray:
        """Score a pre-assembled batch through one routed version.

        The offline-parity path: routes once and applies the policy in
        a single call, bypassing both the micro-batch buffer and the
        LRU cache (cache hit/miss counters are untouched).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        version = self.registry.route(key)
        scores = np.asarray(
            self.policy.score_batch(version.model, x), dtype=float
        ).ravel()
        # credited only after the call returns: a raising model scored
        # nothing, and ``requests`` counts what the model actually did
        version.requests += x.shape[0]
        self._c_requests.inc(x.shape[0])
        self._c_model_calls.inc()
        self._c_rows_scored.inc(x.shape[0])
        return scores

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def _cache_probe(self, version_id: int, row_bytes: bytes) -> float | None:
        """One LRU lookup; a hit becomes the most recently used entry."""
        cache_key = (version_id, row_bytes)
        hit = self._cache.get(cache_key)
        if hit is not None:
            self._cache.move_to_end(cache_key)
        return hit

    def _remember_block(self, version_id: int, rows: np.ndarray, scores: list[float]) -> None:
        """Cache one scored batch, row by row in order.

        The LRU is trimmed once, after the batch's inserts, not after
        each: the batch's keys are the newest, so either way the
        survivors are the ``cache_size`` most recently touched keys, in
        the same order and with the last score written for each.
        """
        cache = self._cache
        for cache_key, score in zip(zip(repeat(version_id), _row_keys(rows)), scores):
            cache[cache_key] = score
            cache.move_to_end(cache_key)
        for _ in range(len(cache) - self.cache_size):
            cache.popitem(last=False)

    @property
    def stats(self) -> dict[str, int]:
        """Lifetime request/flush/cache counters, as a plain dict.

        Rendered from the engine's :class:`~repro.obs.Counter`\\ s (the
        same objects an attached registry exports), so the dict is a
        fresh copy each access — mutate away, the counters are the
        source of truth.
        """
        return {name: int(self._counters[name].value) for name in _STAT_NAMES}

    @property
    def n_pending(self) -> int:
        """Requests buffered and not yet scored."""
        return self._n_pending

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests served from the LRU cache."""
        hits = self._c_cache_hits.value
        total = hits + self._c_cache_misses.value
        return hits / total if total else 0.0
