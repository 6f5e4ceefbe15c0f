"""Sharded serving fleet: one engine API over N per-process shards.

A single :class:`~repro.serving.engine.ScoringEngine` is bound to one
process — its micro-batch buffer, LRU cache, and registry replica all
live wherever ``submit`` is called, so one CPU serves the whole stream.
:class:`ShardedScoringEngine` is the horizontal version: the same
request API (``submit``/``take``/``score``/``score_batch``/``flush``/
``poll``/``stats``/``latency_quantile``/``version_of``) routed across
``n_shards`` complete per-shard engines, each pinned to its own
:meth:`~repro.runtime.backend._PoolBackend.submit_to` lane of an
:class:`~repro.runtime.ExecutionBackend`.  On a
:class:`~repro.runtime.ProcessBackend` every shard is a long-lived
worker process with its own cache and registry replica; on the
:class:`~repro.runtime.SerialBackend` the whole fleet runs inline —
bit-identical to a plain engine at ``n_shards=1``, which is the
correctness anchor the tests pin.

Four contracts hold by construction:

**One transport.**  Rows travel to a shard, and results come back, as
plain arrays and lists over its lane: pickled on a process backend,
handed over as they are in-process.  Each shard keeps its own LRU, so a
fleet scores and counts the same on every backend, and a stochastic
model's fleet repeats per seed.

**Sticky routing.**  A keyed request always lands on
``blake2b(key) % n_shards`` — the shard whose cache has seen that user
before and whose registry replica routes the same champion/challenger
split the parent would.  Keyless requests round-robin.

**Merge-derived accounting.**  The fleet keeps *no* second set of
request counters.  Each shard owns a real
:class:`~repro.obs.MetricsRegistry`; ``stats``, ``latency_quantile``,
and ``metrics.snapshot()`` are computed by folding the per-shard
:class:`~repro.obs.Snapshot`\\ s (and latency sketches) with
:meth:`~repro.obs.Snapshot.merge`.  Fleet totals therefore *are* the
sum of shard truth — there is nothing to drift.

**Replica sync by revision.**  The parent's
:class:`~repro.serving.registry.ModelRegistry` is the control plane
(an :class:`~repro.serving.promotion.AutoPromoter` mutates it
directly).  Every lifecycle mutation bumps ``registry.revision``; the
fleet compares that against the revision it last shipped and, when
they diverge, pickles a :meth:`~repro.serving.registry.ModelRegistry
.lifecycle_state` delta onto every lane *ahead of* subsequent traffic
(lanes are FIFO), so a promotion takes effect at a well-defined point
in each shard's stream.

Budget pacing scales the same way: :class:`ShardedBudgetPacer` splits
one budget ``B`` into per-shard :class:`~repro.serving.pacing
.BudgetPacer` slices and periodically rebalances them — each tick of a
:class:`~repro.runtime.DeadlineLoop` re-divides the *unspent* residual
in proportion to each slice's remaining horizon, so a hot shard
borrows headroom from quiet ones while the slice-sum invariant
``Σ budgets == B`` (and hence fleet spend < B) survives every tick.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import pickle
from collections import deque
from typing import Sequence

import numpy as np

from repro.obs import HistogramSnapshot, MetricsRegistry, Snapshot
from repro.runtime import (
    Clock,
    DeadlineLoop,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SystemClock,
)
from repro.serving.engine import EngineCore, ScoringEngine, _STAT_NAMES
from repro.serving.pacing import BudgetPacer
from repro.serving.policy import DecisionPolicy, GreedyROIPolicy
from repro.serving.registry import ModelRegistry

__all__ = ["ShardedBudgetPacer", "ShardedScoringEngine"]

# fleet ids distinguish coexisting fleets sharing one backend's workers
_FLEET_IDS = itertools.count()

# the default Histogram grid (relative_error=0.01); an empty fleet
# latency sketch must carry the same gamma so merge/delta line up
_DEFAULT_GAMMA = (1.0 + 0.01) / (1.0 - 0.01)

_LATENCY_METRIC = "engine.latency_seconds"


# ---------------------------------------------------------------------------
# worker-side shard operations (module-level: picklable by reference)
# ---------------------------------------------------------------------------
# Each worker process (or thread, or the parent itself on the serial
# backend) holds its shards here, keyed by (fleet_id, shard_index).
# FIFO lane ordering guarantees _shard_install runs before any other op
# on the lane, so both dicts are populated when traffic arrives.
_SHARD_ENGINES: dict[tuple[int, int], ScoringEngine] = {}

# per shard: the engine's request id -> the fleet's, filled with the
# ids the engine really issued and popped as each result is drained
_SHARD_RIDS: dict[tuple[int, int], dict[int, int]] = {}


def _shard_install(
    fleet: int,
    shard: int,
    core_blob: bytes,
    max_latency_ms: float | None,
    clock: Clock | None,
) -> int:
    """Build shard ``shard`` of fleet ``fleet`` from a pickled core.

    The core arrives as bytes pickled *by the parent* (not by the
    executor) so the replica is a genuine copy on every backend — on
    the serial backend an un-pickled core would share the parent's
    live registry and the fleet would stop being a replica system.
    Each shard gets its own real :class:`MetricsRegistry`: the fleet's
    accounting is the merge of these.
    """
    core: EngineCore = pickle.loads(core_blob)
    _SHARD_ENGINES[(fleet, shard)] = core.build(
        max_latency_ms=max_latency_ms,
        clock=clock,
        backend=SerialBackend(),
        metrics=MetricsRegistry(),
    )
    _SHARD_RIDS[(fleet, shard)] = {}
    return shard


def _forget_dropped(engine: ScoringEngine, fleet_ids: dict[int, int]) -> None:
    """Drop the id-map entries of rows a raising flush dropped: their
    engine ids never resolve, so nothing would ever pop them."""
    open_ids = engine._open_ids()
    for local in [local for local in fleet_ids if local not in open_ids]:
        del fleet_ids[local]


def _shard_results(fleet: int, shard: int) -> list[tuple[int, int, float]]:
    """Drain the shard's ready results as ``(fleet id, version, score)``."""
    engine = _SHARD_ENGINES[(fleet, shard)]
    fleet_ids = _SHARD_RIDS[(fleet, shard)]
    try:
        drained = engine.drain()  # its poll may fire a raising flush
    except BaseException:
        _forget_dropped(engine, fleet_ids)
        raise
    return [(fleet_ids.pop(local), version, score) for local, version, score in drained]


def _shard_feed(
    fleet: int, shard: int, rows: np.ndarray, keys: list, rids: list[int]
) -> list[tuple[int, int, float]]:
    """Submit a feed as one block and return every result now ready.

    The engine's ids map to the fleet's ``rids`` where they are
    issued: all of them, or, when a flush inside the block raises, those
    the engine issued before the raise.  Each fleet id thus maps to its
    own row's engine id, so no later result lands on another row's
    fleet id; rows a raise left unscored never resolve, and every raise
    drops their entries from the map.
    """
    engine = _SHARD_ENGINES[(fleet, shard)]
    fleet_ids = _SHARD_RIDS[(fleet, shard)]
    first = engine._next_id
    try:
        issued = engine.submit_batch(rows, keys=keys)
    except BaseException:
        fleet_ids.update(zip(range(first, engine._next_id), rids))
        _forget_dropped(engine, fleet_ids)
        raise
    fleet_ids.update(zip(issued, rids))
    return _shard_results(fleet, shard)


def _shard_flush(fleet: int, shard: int) -> list[tuple[int, int, float]]:
    engine = _SHARD_ENGINES[(fleet, shard)]
    try:
        engine.flush()
        engine.join()
    except BaseException:
        _forget_dropped(engine, _SHARD_RIDS[(fleet, shard)])
        raise
    return _shard_results(fleet, shard)


def _shard_poll(
    fleet: int, shard: int
) -> tuple[int, float | None, list[tuple[int, int, float]]]:
    """Fire overdue deadline flushes; returns (fired, next_deadline, ready)."""
    engine = _SHARD_ENGINES[(fleet, shard)]
    try:
        fired = engine.poll()
    except BaseException:
        _forget_dropped(engine, _SHARD_RIDS[(fleet, shard)])
        raise
    return fired, engine.next_deadline(), _shard_results(fleet, shard)


def _shard_next_deadline(fleet: int, shard: int) -> float | None:
    return _SHARD_ENGINES[(fleet, shard)].next_deadline()


def _shard_score_batch(fleet: int, shard: int, x: np.ndarray, key) -> np.ndarray:
    return _SHARD_ENGINES[(fleet, shard)].score_batch(x, key=key)


def _shard_snapshot(fleet: int, shard: int) -> tuple[Snapshot, dict]:
    """One shard's whole observable state: obs snapshot + version counters."""
    engine = _SHARD_ENGINES[(fleet, shard)]
    versions = {
        mv.version: {"requests": mv.requests, "cache_hits": mv.cache_hits}
        for mv in engine.registry.versions()
    }
    return engine.metrics.snapshot(), versions


def _shard_sync(fleet: int, shard: int, state_blob: bytes) -> int:
    """Apply a pickled registry lifecycle delta to the shard's replica."""
    _SHARD_ENGINES[(fleet, shard)].registry.apply_lifecycle_state(
        pickle.loads(state_blob)
    )
    return shard


def _shard_drop(fleet: int, shard: int) -> bool:
    _SHARD_RIDS.pop((fleet, shard), None)
    return _SHARD_ENGINES.pop((fleet, shard), None) is not None


def _empty_latency_snapshot() -> HistogramSnapshot:
    return HistogramSnapshot(
        name=_LATENCY_METRIC,
        gamma=_DEFAULT_GAMMA,
        count=0,
        sum=0.0,
        min=math.inf,
        max=-math.inf,
        zero_count=0,
        buckets={},
    )


class _MergedSketch:
    """Read-only stand-in for ``engine.latency_hist`` over a fleet.

    Every access folds the shards' latency histograms with
    :meth:`HistogramSnapshot.merge` — same quantile guarantees, no
    separate fleet-side recording.
    """

    def __init__(self, fleet: "ShardedScoringEngine") -> None:
        self._fleet = fleet

    def snapshot(self) -> HistogramSnapshot:
        merged = _empty_latency_snapshot()
        for snap, _versions in self._fleet.shard_snapshots():
            hist = snap.get(_LATENCY_METRIC)
            if hist is not None and hist.count:
                merged = merged.merge(hist)
        return merged

    @property
    def count(self) -> int:
        return self.snapshot().count

    def quantile(self, q: float) -> float:
        return self.snapshot().quantile(q)

    def __repr__(self) -> str:
        return f"_MergedSketch(shards={self._fleet.n_shards})"


class _FleetMetrics(MetricsRegistry):
    """The fleet's registry: parent-side metrics + merged shard snapshots.

    A real :class:`MetricsRegistry` (parent components — a promoter, a
    pacer — adopt into it as usual) whose :meth:`snapshot` folds in
    every shard's snapshot, so one call still yields the whole fleet
    and ``snapshot().delta(before)`` still works (merged counters stay
    monotone because every constituent is).
    """

    def __init__(self, fleet: "ShardedScoringEngine") -> None:
        super().__init__()
        self._fleet = fleet

    def snapshot(self) -> Snapshot:
        merged = super().snapshot()
        for snap, _versions in self._fleet.shard_snapshots():
            merged = merged.merge(snap)
        return merged


# ---------------------------------------------------------------------------
# the fleet
# ---------------------------------------------------------------------------
class ShardedScoringEngine:
    """N per-process scoring shards behind the single-engine API.

    Parameters
    ----------
    models:
        A :class:`ModelRegistry` (shared with the promoter — this is
        the control plane) or a bare scorer with ``predict_roi``.
        Every model must round-trip pickle with bit-identical
        predictions (``tests/test_pickling.py`` pins this for all
        public model classes).
    n_shards:
        Fleet width; defaults to ``backend.n_workers``.
    policy / batch_size / cache_size:
        Per-shard engine construction, as for :class:`ScoringEngine`.
        Each shard keeps its own LRU of ``cache_size`` entries.  The
        parent ships a shard one feed per ``batch_size`` rows routed
        to it; flush boundaries are the shard engine's own, so scores
        and stats match one engine fed row by row.
    max_latency_ms:
        Per-shard deadline flushing.  Every arrival is then fed to its
        shard (and its deadline loop) at once, one row per feed.
    clock:
        Shared time source for deadline/latency accounting.  Only
        meaningful on in-process backends (serial/thread) — a clock
        cannot cross a process boundary, so on a
        :class:`ProcessBackend` pass ``None`` (shards fall back to
        their own :class:`~repro.runtime.SystemClock` when
        ``max_latency_ms`` is set).
    backend:
        Where shards live: one :meth:`submit_to` lane per shard.
        Defaults to a private :class:`SerialBackend` (shut down by
        :meth:`close`); a caller-provided backend is borrowed and left
        running.  The backend decides only where shards run: rows and
        results cross every lane as plain arrays and lists, so scores,
        stats and cache hits are identical on every backend.
    """

    def __init__(
        self,
        models: ModelRegistry | object,
        n_shards: int | None = None,
        *,
        policy: DecisionPolicy | None = None,
        batch_size: int = 32,
        cache_size: int = 4096,
        max_latency_ms: float | None = None,
        clock: Clock | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if isinstance(models, ModelRegistry):
            self.registry = models
        else:
            self.registry = ModelRegistry()
            self.registry.register(models, promote=True)
        self._owns_backend = backend is None
        self.backend: ExecutionBackend = backend if backend is not None else SerialBackend()
        if not hasattr(self.backend, "submit_to"):
            raise TypeError(
                f"backend {self.backend!r} has no submit_to lane affinity; "
                "sharded serving needs long-lived per-shard workers"
            )
        if n_shards is None:
            n_shards = self.backend.n_workers
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if isinstance(self.backend, SerialBackend):
            pass  # serial lanes are logical: any count is fine
        elif n_shards > self.backend.n_workers:
            raise ValueError(
                f"n_shards={n_shards} exceeds the backend's "
                f"{self.backend.n_workers} lanes"
            )
        if clock is not None and isinstance(self.backend, ProcessBackend):
            raise ValueError(
                "a shared clock cannot cross a process boundary; use a "
                "Serial/ThreadBackend for clocked fleets (process shards "
                "default to their own SystemClock when max_latency_ms is set)"
            )
        self.n_shards = int(n_shards)
        self.clock = clock
        self.max_latency_ms = max_latency_ms
        self._deadline_driven = max_latency_ms is not None

        core = EngineCore(
            registry=self.registry,
            policy=policy if policy is not None else GreedyROIPolicy(),
            batch_size=int(batch_size),
            cache_size=int(cache_size),
        )
        self.policy = core.policy
        self.batch_size = core.batch_size
        # rows per feed: one engine batch, or every arrival at once so
        # it reaches its shard's deadline loop
        self._feed_size = 1 if self._deadline_driven else self.batch_size
        self._fleet_id = next(_FLEET_IDS)
        self._closed = False

        # request plumbing: fleet ids, per-shard buffers, results
        self._next_rid = 0
        self._rr = 0  # keyless round-robin cursor
        self._width: int | None = None  # fixed by the first row
        self._ready: dict[int, float] = {}
        self._version_by_rid: dict[int, int] = {}
        self._buf_rows: list[list[np.ndarray]] = [[] for _ in range(self.n_shards)]
        self._buf_keys: list[list] = [[] for _ in range(self.n_shards)]
        self._buf_rids: list[list[int]] = [[] for _ in range(self.n_shards)]
        self._inflight: deque = deque()  # (kind, future)

        self.metrics: MetricsRegistry = _FleetMetrics(self)
        self.latency_hist = _MergedSketch(self)

        # ship the replicas: first task on every lane, ahead of traffic
        blob = pickle.dumps(core)
        self._known_versions = {mv.version for mv in self.registry.versions()}
        self._synced_revision = self.registry.revision
        for shard in range(self.n_shards):
            self._enqueue(shard, "install", _shard_install,
                          self._fleet_id, shard, blob, max_latency_ms, clock)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, key: str | int | None) -> int:
        """The shard a key routes to (keyless draws the round-robin cursor)."""
        if key is None:
            shard = self._rr
            self._rr = (self._rr + 1) % self.n_shards
            return shard
        digest = hashlib.blake2b(str(key).encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.n_shards

    # ------------------------------------------------------------------
    # request lifecycle (the ScoringEngine facade)
    # ------------------------------------------------------------------
    def submit(self, x_row: np.ndarray, key: str | int | None = None) -> int:
        """Enqueue one request on its shard; returns the fleet request id.

        A row whose width differs from the fleet's raises ValueError
        before anything moves.
        """
        row = np.ascontiguousarray(np.asarray(x_row, dtype=float).ravel())
        self._check_width(row.shape[0])
        self._maybe_sync()
        rid = self._next_rid
        self._next_rid += 1
        shard = self.shard_of(key)
        self._buf_rows[shard].append(row)
        self._buf_keys[shard].append(key)
        self._buf_rids[shard].append(rid)
        if len(self._buf_rows[shard]) >= self._feed_size:
            self._feed(shard)
        self._reap(wait=False)
        return rid

    def submit_batch(
        self, x: np.ndarray, keys: Sequence[str | int | None] | None = None
    ) -> range:
        """Enqueue ``x``'s rows in one call; returns their fleet ids.

        Row ``i`` gets fleet id ``rid0 + i`` and routes exactly where
        ``submit(x[i], key=keys[i])`` would have sent it — keyless rows
        walk the round-robin cursor, keyed rows stick to their hash
        shard — so results, stats, and version attribution match N
        single submits.  The win is constant-factor: one routing pass,
        one buffer extension per shard, and the shard engine scores
        each feed through its own :meth:`ScoringEngine.submit_batch`.
        A block whose width differs from the fleet's raises ValueError
        before anything moves.
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=float))
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        n = x.shape[0]
        if keys is not None and len(keys) != n:
            raise ValueError(f"got {n} rows but {len(keys)} keys")
        rid0 = self._next_rid
        if n == 0:
            return range(rid0, rid0)
        self._check_width(x.shape[1])
        self._maybe_sync()
        self._next_rid += n
        if keys is None:
            shards = (self._rr + np.arange(n)) % self.n_shards
            self._rr = int((self._rr + n) % self.n_shards)
        else:
            shards = np.fromiter(
                (self.shard_of(k) for k in keys), dtype=np.int64, count=n
            )
        for shard in range(self.n_shards):
            idx = np.nonzero(shards == shard)[0]
            if idx.size == 0:
                continue
            block = x[idx]
            ids = idx.tolist()
            self._buf_rows[shard].extend(block)
            self._buf_keys[shard].extend(
                [None] * len(ids) if keys is None else [keys[i] for i in ids]
            )
            self._buf_rids[shard].extend(rid0 + i for i in ids)
            if len(self._buf_rids[shard]) >= self._feed_size:
                self._feed(shard)
        self._reap(wait=False)
        return range(rid0, rid0 + n)

    def flush(self, reason: str = "manual") -> int:
        """Ship every buffered request and flush every shard; returns
        the number of requests dispatched from the parent buffers."""
        self._maybe_sync()
        dispatched = sum(self._feed(shard) for shard in range(self.n_shards))
        for shard in range(self.n_shards):
            self._enqueue(shard, "flush", _shard_flush, self._fleet_id, shard)
        self._reap(wait=True)
        return dispatched

    def poll(self) -> int:
        """Advance the fleet: reap finished dispatches and (when
        deadline-driven) fire every shard's overdue flushes."""
        self._maybe_sync()
        self._reap(wait=False)
        fired = 0
        if self._deadline_driven:
            futures = [
                self.backend.submit_to(s, _shard_poll, self._fleet_id, s)
                for s in range(self.n_shards)
            ]
            for future in futures:
                n_fired, _deadline, drained = future.result()
                fired += n_fired
                self._absorb(drained)
        return fired

    def join(self) -> None:
        """Block until every shipped dispatch has resolved."""
        self._reap(wait=True)

    def next_deadline(self) -> float | None:
        """Earliest pending flush deadline across the fleet, or None."""
        if not self._deadline_driven:
            return None
        deadlines = []
        for shard in range(self.n_shards):
            future = self.backend.submit_to(
                shard, _shard_next_deadline, self._fleet_id, shard
            )
            due = future.result()
            if due is not None:
                deadlines.append(due)
        return min(deadlines) if deadlines else None

    def has_result(self, request_id: int) -> bool:
        """True once the request's score is available (advances the fleet)."""
        if request_id in self._ready:
            return True
        self.poll()
        return request_id in self._ready

    def version_of(self, request_id: int) -> int:
        """Registry version id whose score serves this request (valid
        once the result is ready, until it is taken)."""
        return self._version_by_rid[request_id]

    def take(self, request_id: int) -> float:
        """Pop a finished score (KeyError when still pending/unknown)."""
        if request_id not in self._ready:
            self._reap(wait=False)
        score = self._ready.pop(request_id)
        self._version_by_rid.pop(request_id, None)
        return score

    def take_block(self, rids: Sequence[int]) -> np.ndarray:
        """Pop the finished scores of ``rids`` as one array, in the
        order given — the bulk :meth:`take`.  KeyError, with nothing
        popped, when any of them is still pending or unknown."""
        ready = self._ready
        if not all(rid in ready for rid in rids):
            self._reap(wait=False)
            for rid in rids:
                if rid not in ready:
                    raise KeyError(rid)
        versions = self._version_by_rid
        for rid in rids:
            versions.pop(rid, None)
        return np.array([ready.pop(rid) for rid in rids], dtype=float)

    def drain(self) -> list[tuple[int, int, float]]:
        """Pop every finished result as ``(request_id, version_id, score)``."""
        self.poll()
        out = []
        for rid in sorted(self._ready):
            score = self._ready.pop(rid)
            out.append((rid, self._version_by_rid.pop(rid, -1), score))
        return out

    def score(self, x_row: np.ndarray, key: str | int | None = None) -> float:
        """Synchronous convenience path: submit, flush, return."""
        rid = self.submit(x_row, key=key)
        if rid not in self._ready:
            self.flush()
        return self.take(rid)

    def score_batch(self, x: np.ndarray, key: str | int | None = None) -> np.ndarray:
        """Score a pre-assembled batch.

        Keyed batches go whole to their sticky shard (one routed
        version, exactly the single-engine semantics).  Keyless
        batches split row-contiguously across every shard at
        ``np.array_split`` boundaries — the fleet throughput path — and
        each chunk routes on its own shard's replica (identical outcome
        whenever no challenger is staged).
        """
        self._maybe_sync()
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if key is not None:
            shard = self.shard_of(key)
            future = self.backend.submit_to(
                shard, _shard_score_batch, self._fleet_id, shard, x, key
            )
            return np.asarray(future.result(), dtype=float).ravel()
        parts = np.array_split(x, self.n_shards)
        futures = [
            self.backend.submit_to(
                shard, _shard_score_batch, self._fleet_id, shard, part, None
            )
            for shard, part in enumerate(parts)
            if part.shape[0]
        ]
        return np.concatenate(
            [np.asarray(f.result(), dtype=float).ravel() for f in futures]
        ) if futures else np.empty(0)

    # ------------------------------------------------------------------
    # merge-derived accounting
    # ------------------------------------------------------------------
    def shard_snapshots(self) -> list[tuple[Snapshot, dict]]:
        """Per-shard ``(obs snapshot, version counters)``, in shard order.

        Each query rides its shard's FIFO lane, so it observes
        everything dispatched before it.
        """
        futures = [
            self.backend.submit_to(s, _shard_snapshot, self._fleet_id, s)
            for s in range(self.n_shards)
        ]
        return [f.result() for f in futures]

    def fleet_snapshot(self) -> Snapshot:
        """All shards' metrics folded into one :class:`Snapshot`."""
        merged = Snapshot()
        for snap, _versions in self.shard_snapshots():
            merged = merged.merge(snap)
        return merged

    @property
    def stats(self) -> dict[str, int]:
        """Fleet request/flush/cache counters — the shard sum, derived
        by snapshot merge (requests still in the parent's dispatch
        buffers are not yet counted; ``flush`` first for exact totals)."""
        merged = self.fleet_snapshot()
        out = {}
        for name in _STAT_NAMES:
            metric = merged.get(f"engine.{name}")
            out[name] = int(metric.value) if metric is not None else 0
        return out

    def version_stats(self) -> dict[int, dict[str, int]]:
        """Per-version served-request counters summed across shards."""
        totals: dict[int, dict[str, int]] = {}
        for _snap, versions in self.shard_snapshots():
            for vid, counts in versions.items():
                slot = totals.setdefault(vid, {"requests": 0, "cache_hits": 0})
                slot["requests"] += counts["requests"]
                slot["cache_hits"] += counts["cache_hits"]
        return totals

    def latency_quantile(self, q: float) -> float:
        """Fleet submit→score latency quantile from the merged sketches."""
        merged = self.latency_hist.snapshot()
        if merged.count == 0:
            raise ValueError("no latencies recorded — run with a clocked engine")
        return merged.quantile(q)

    @property
    def n_pending(self) -> int:
        """Requests buffered parent-side, not yet shipped to a shard."""
        return sum(len(rows) for rows in self._buf_rows)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain in-flight work, drop every shard, and shut down a
        privately owned backend (idempotent).

        The drops run whatever the reap raises (a mid-flight scoring
        exception, a dead process worker), and the backend shutdown
        runs whatever the drops raise.
        """
        if self._closed:
            return
        self._closed = True
        try:
            try:
                self._reap(wait=True)
            finally:
                futures = [
                    self.backend.submit_to(s, _shard_drop, self._fleet_id, s)
                    for s in range(self.n_shards)
                ]
                for f in futures:
                    f.result()
        finally:
            if self._owns_backend:
                self.backend.shutdown()

    def __enter__(self) -> "ShardedScoringEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedScoringEngine(n_shards={self.n_shards}, "
            f"backend={type(self.backend).__name__})"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_width(self, d: int) -> None:
        """ValueError unless ``d`` is the fleet's row width.  A fleet
        serves one registry, so its first row fixes the width."""
        if self._width is None:
            self._width = d
        elif d != self._width:
            raise ValueError(
                f"got a row of width {d}, but the fleet's rows have width {self._width}"
            )

    def _enqueue(self, shard: int, kind: str, fn, *args) -> None:
        self._inflight.append((kind, self.backend.submit_to(shard, fn, *args)))

    def _feed(self, shard: int) -> int:
        """Ship shard ``shard``'s parent-side buffer as one dispatch."""
        rids = self._buf_rids[shard]
        if not rids:
            return 0
        rows = np.stack(self._buf_rows[shard])
        keys = self._buf_keys[shard]
        self._buf_rows[shard] = []
        self._buf_keys[shard] = []
        self._buf_rids[shard] = []
        self._enqueue(shard, "feed", _shard_feed, self._fleet_id, shard, rows, keys, rids)
        return len(rids)

    def _absorb(self, drained: Sequence[tuple[int, int, float]]) -> None:
        for rid, version, score in drained:
            self._ready[rid] = score
            self._version_by_rid[rid] = version

    def _reap(self, wait: bool) -> None:
        while self._inflight:
            kind, future = self._inflight[0]
            if not wait and not future.done():
                break
            self._inflight.popleft()
            result = future.result()  # re-raises worker failures here
            if kind in ("feed", "flush"):
                self._absorb(result)
            # install/sync return markers; nothing to absorb

    def _maybe_sync(self) -> None:
        """Ship the registry lifecycle delta when the revision moved."""
        if self.registry.revision == self._synced_revision:
            return
        state = self.registry.lifecycle_state(known=self._known_versions)
        blob = pickle.dumps(state)
        for shard in range(self.n_shards):
            self._enqueue(shard, "sync", _shard_sync, self._fleet_id, shard, blob)
        self._known_versions |= set(state["stages"])
        self._synced_revision = self.registry.revision


# ---------------------------------------------------------------------------
# fleet budget pacing
# ---------------------------------------------------------------------------
class ShardedBudgetPacer:
    """One budget ``B`` paced as N rebalancing per-shard slices.

    Each slice is a complete :class:`BudgetPacer` holding ``B/N`` and
    ``horizon/N``; offers route to a slice (sticky by key, round-robin
    keyless — matching :meth:`ShardedScoringEngine.shard_of` so shard
    ``i``'s traffic meets pacer ``i``'s threshold), outcome feedback
    follows the offer it realises.  On every ``rebalance_every``
    seconds of ``clock`` (a :class:`DeadlineLoop` tick, polled from
    :meth:`offer`) the *unspent* residual ``R = B − Σ spentᵢ`` is
    re-divided over the slices in proportion to their remaining
    horizon::

        budgetᵢ ← spentᵢ + R · remainingᵢ / Σ remainingⱼ

    Every slice keeps at least what it already spent (so
    :meth:`BudgetPacer.rebudget` never violates a slice invariant) and
    the slice-sum is ``B`` after every tick, which is what makes fleet
    spend strictly bounded by ``B``: each slice's own cap does the
    local enforcement, the rebalance only moves headroom between
    slices.  ``rebalance_every`` without an explicit clock reads wall
    time (:class:`~repro.runtime.SystemClock`); with neither, the
    initial even split simply stays.

    The single-pacer surface (``budget``/``spent``/``offer``/
    ``observe_outcome``/``history``/...) is preserved, so
    :class:`~repro.serving.simulator.TrafficReplay` drives a fleet
    pacer unchanged.
    """

    def __init__(
        self,
        budget: float,
        horizon: int,
        n_shards: int,
        *,
        clock: Clock | None = None,
        rebalance_every: float | None = None,
        **pacer_params,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if not budget >= 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        if horizon < n_shards:
            raise ValueError(
                f"horizon {horizon} must cover at least one arrival per "
                f"shard ({n_shards})"
            )
        if rebalance_every is not None and not rebalance_every > 0:
            raise ValueError(
                f"rebalance_every must be > 0, got {rebalance_every}"
            )
        self.n_shards = int(n_shards)
        self.horizon = int(horizon)
        self._budget = float(budget)
        self.clock = clock
        self.rebalance_every = rebalance_every
        per_horizon = max(1, int(math.ceil(horizon / n_shards)))
        self.shards: list[BudgetPacer] = [
            BudgetPacer(budget / n_shards, per_horizon, **pacer_params)
            for _ in range(self.n_shards)
        ]
        self._rr = 0
        self._last_offer_shard = 0
        self.rebalances = 0
        self._loop: DeadlineLoop | None = None
        if rebalance_every is not None:
            # asking for periodic rebalancing implies a clock to read;
            # wall time is the natural default outside simulations
            self.clock = clock if clock is not None else SystemClock()
            self._loop = DeadlineLoop(self.clock)
            self._loop.schedule_in("rebalance", rebalance_every, self._on_tick)

    # ------------------------------------------------------------------
    # routing + the pacer surface
    # ------------------------------------------------------------------
    def shard_of(self, key: str | int | None) -> int:
        if key is None:
            shard = self._rr
            self._rr = (self._rr + 1) % self.n_shards
            return shard
        digest = hashlib.blake2b(str(key).encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.n_shards

    def offer(self, score: float, cost: float, key: str | int | None = None) -> bool:
        """Route one arrival to its slice and decide treat/skip."""
        if self._loop is not None:
            self._loop.poll()
        shard = self.shard_of(key)
        self._last_offer_shard = shard
        return self.shards[shard].offer(score, cost)

    def offer_batch(self, scores: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """Decide the first arrival of a block, keyless, as :meth:`offer`.

        One arrival per call, so the rebalancing tick keeps firing
        before every offer.  Returns its admit flag as a length-1 array
        (the :meth:`BudgetPacer.offer_batch` contract with ``m = 1``).
        Only that arrival is checked, by :meth:`offer`.
        """
        if len(scores) != len(costs):
            raise ValueError(f"scores and costs must be equal-length, got {len(scores)} and {len(costs)}")
        if not len(scores):
            return np.zeros(0, dtype=bool)
        return np.array([self.offer(scores[0], costs[0])])

    def observe_outcome(self, t, y_r, y_c) -> None:
        """Feed realised outcomes back to the slice whose offer they
        realise (callers report immediately after :meth:`offer` or
        :meth:`offer_batch`, the :class:`~repro.serving.simulator
        .TrafficReplay` convention)."""
        self.shards[self._last_offer_shard].observe_outcome(t, y_r, y_c)

    # ------------------------------------------------------------------
    # slice rebalancing
    # ------------------------------------------------------------------
    def _on_tick(self) -> None:
        self.rebalance()
        if self._loop is not None and self.rebalance_every is not None:
            self._loop.schedule_in("rebalance", self.rebalance_every, self._on_tick)

    def rebalance(self) -> list[float]:
        """Re-divide the unspent residual by remaining horizon share.

        Returns the new per-slice budgets (summing to ``budget``
        exactly, up to float addition).
        """
        spent = [p.spent for p in self.shards]
        residual = self._budget - sum(spent)
        remaining = [max(0, p.horizon - p.n_seen) for p in self.shards]
        total_remaining = sum(remaining)
        if total_remaining == 0:
            # every slice exhausted its horizon: split residual evenly
            weights = [1.0 / self.n_shards] * self.n_shards
        else:
            weights = [r / total_remaining for r in remaining]
        budgets = [s + residual * w for s, w in zip(spent, weights)]
        for pacer, b in zip(self.shards, budgets):
            pacer.rebudget(b)
        self.rebalances += 1
        return budgets

    # ------------------------------------------------------------------
    # fleet accounting (sums over slices — no second ledger)
    # ------------------------------------------------------------------
    @property
    def budget(self) -> float:
        return self._budget

    @property
    def spent(self) -> float:
        return float(sum(p.spent for p in self.shards))

    @property
    def n_seen(self) -> int:
        return sum(p.n_seen for p in self.shards)

    @property
    def n_admitted(self) -> int:
        return sum(p.n_admitted for p in self.shards)

    @property
    def remaining(self) -> float:
        return max(0.0, self._budget - self.spent)

    @property
    def progress(self) -> float:
        return min(1.0, self.n_seen / self.horizon)

    @property
    def admit_rate(self) -> float:
        return self.n_admitted / self.n_seen if self.n_seen else 0.0

    @property
    def slice_budgets(self) -> list[float]:
        """Current per-slice budgets (sum == ``budget`` after any tick)."""
        return [p.budget for p in self.shards]

    @property
    def history(self) -> list[tuple[int, float, float]]:
        """Every slice's refresh trace, ordered by arrivals seen."""
        merged = [entry for p in self.shards for entry in p.history]
        merged.sort(key=lambda e: e[0])
        return merged

    def __repr__(self) -> str:
        return (
            f"ShardedBudgetPacer(budget={self._budget}, "
            f"n_shards={self.n_shards}, spent={self.spent:.3f})"
        )
