"""Sharded serving fleet: one engine API over N per-process shards.

A single :class:`~repro.serving.engine.ScoringEngine` is bound to one
process — its micro-batch buffer, LRU cache, and registry replica all
live wherever ``submit`` is called, so one CPU serves the whole stream.
:class:`ShardedScoringEngine` is the horizontal version: the same
request API (``submit``/``submit_batch``/``take``/``take_block``/
``score``/``score_batch``/``flush``/``poll``/``stats``/``version_of``)
routed across ``n_shards`` complete per-shard engines, each pinned to
its own :meth:`~repro.runtime.ProcessBackend.submit_to` lane of an
:class:`~repro.runtime.ExecutionBackend`.  On a
:class:`~repro.runtime.ProcessBackend` every shard is a long-lived
worker process with its own cache and registry replica; on the
:class:`~repro.runtime.SerialBackend` the whole fleet runs inline —
bit-identical to a plain engine at ``n_shards=1``, which is the
correctness anchor the tests pin.

A fleet has no clock (no deadline flushes, no latency sketch) and
serves a fixed registry: each shard is built from a pickled copy of the
registry the fleet was given.  Once ``registry.revision`` moves past
the revision the shards were built from, every ``submit``,
``submit_batch``, ``flush``, ``poll`` and ``score_batch`` raises
:class:`RuntimeError` before anything moves, so a promotion can never
leave the shards serving a stale replica unnoticed.

Three contracts hold by construction:

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
:class:`~repro.obs.MetricsRegistry`; ``stats`` and
``metrics.snapshot()`` are computed by folding the per-shard
:class:`~repro.obs.Snapshot`\\ s with
:meth:`~repro.obs.Snapshot.merge`.  Fleet totals therefore *are* the
sum of shard truth — there is nothing to drift.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
from collections import deque
from typing import Sequence

import numpy as np

from repro.obs import MetricsRegistry, Snapshot
from repro.runtime import ExecutionBackend, SerialBackend
from repro.serving.engine import ScoringEngine, _STAT_NAMES
from repro.serving.policy import DecisionPolicy, GreedyROIPolicy
from repro.serving.registry import ModelRegistry

__all__ = ["ShardedScoringEngine"]

# fleet ids distinguish coexisting fleets sharing one backend's workers
_FLEET_IDS = itertools.count()


# ---------------------------------------------------------------------------
# worker-side shard operations (module-level: picklable by reference)
# ---------------------------------------------------------------------------
# Each worker process (or the parent itself on the serial backend)
# holds its shards here, keyed by (fleet_id, shard_index).
# FIFO lane ordering guarantees _shard_install runs before any other op
# on the lane, so both dicts are populated when traffic arrives.
_SHARD_ENGINES: dict[tuple[int, int], ScoringEngine] = {}

# per shard: the engine's request id -> the fleet's, filled with the
# ids the engine really issued and popped as each result is drained
_SHARD_RIDS: dict[tuple[int, int], dict[int, int]] = {}


def _shard_install(fleet: int, shard: int, blob: bytes) -> int:
    """Build shard ``shard`` of fleet ``fleet`` from a pickled
    ``(registry, policy, batch_size, cache_size)``.

    The blob arrives as bytes pickled *by the parent* (not by the
    executor) so the replica is a genuine copy on every backend — on
    the serial backend an un-pickled registry would be the parent's
    live one and the fleet would stop being a replica system.
    Each shard gets its own real :class:`MetricsRegistry`: the fleet's
    accounting is the merge of these.
    """
    registry, policy, batch_size, cache_size = pickle.loads(blob)
    _SHARD_ENGINES[(fleet, shard)] = ScoringEngine(
        registry, policy=policy, batch_size=batch_size, cache_size=cache_size, metrics=MetricsRegistry()
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
    fleet_ids = _SHARD_RIDS[(fleet, shard)]
    drained = _SHARD_ENGINES[(fleet, shard)].drain()
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
    except BaseException:
        _forget_dropped(engine, _SHARD_RIDS[(fleet, shard)])
        raise
    return _shard_results(fleet, shard)


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


def _shard_drop(fleet: int, shard: int) -> bool:
    _SHARD_RIDS.pop((fleet, shard), None)
    return _SHARD_ENGINES.pop((fleet, shard), None) is not None


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
        A :class:`ModelRegistry` or a bare scorer with ``predict_roi``.
        The fleet serves the registry as it is at construction: once
        its ``revision`` moves (a promotion, a new version, a split
        change) the fleet refuses further traffic with
        :class:`RuntimeError`.  Every model must round-trip pickle with
        bit-identical predictions (``tests/test_pickling.py`` pins this
        for all public model classes).
    n_shards:
        Fleet width; defaults to ``backend.n_workers``.
    policy / batch_size / cache_size:
        Per-shard engine construction, as for :class:`ScoringEngine`,
        and checked the same way.  Each shard keeps its own LRU of
        ``cache_size`` entries.  The parent ships a shard one feed per
        ``batch_size`` rows routed to it; flush boundaries are the
        shard engine's own, so scores and stats match one engine fed
        row by row.
    backend:
        Where shards live: one :meth:`submit_to` lane per shard.
        Defaults to a private :class:`SerialBackend` (shut down by
        :meth:`close`); a caller-provided backend is borrowed and left
        running.  The backend decides only where shards run: rows and
        results cross every lane as plain arrays and lists, so scores,
        stats and cache hits are identical on every backend.
    """

    #: a fleet has no clock: no deadline flushes, no latency sketch
    #: (:class:`~repro.serving.simulator.TrafficReplay` reads it)
    clock = None

    def __init__(
        self,
        models: ModelRegistry | object,
        n_shards: int | None = None,
        *,
        policy: DecisionPolicy | None = None,
        batch_size: int = 32,
        cache_size: int = 4096,
        backend: ExecutionBackend | None = None,
    ) -> None:
        # checked here: a shard that fails to install on its lane
        # surfaces only at the first submit, after ids have moved
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
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
        self.n_shards = int(n_shards)
        self.policy = policy if policy is not None else GreedyROIPolicy()
        self.batch_size = int(batch_size)
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

        # ship the replicas: first task on every lane, ahead of traffic
        blob = pickle.dumps((self.registry, self.policy, self.batch_size, int(cache_size)))
        self._revision = self.registry.revision
        for shard in range(self.n_shards):
            self._enqueue(shard, "install", _shard_install, self._fleet_id, shard, blob)

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
        self._check_revision()
        row = np.ascontiguousarray(np.asarray(x_row, dtype=float).ravel())
        self._check_width(row.shape[0])
        rid = self._next_rid
        self._next_rid += 1
        shard = self.shard_of(key)
        self._buf_rows[shard].append(row)
        self._buf_keys[shard].append(key)
        self._buf_rids[shard].append(rid)
        if len(self._buf_rows[shard]) >= self.batch_size:
            self._feed(shard)
        self._reap(wait=False)
        return rid

    def submit_batch(
        self,
        x: np.ndarray,
        keys: Sequence[str | int | None] | None = None,
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
        self._check_revision()
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
            ids = idx.tolist()
            self._buf_rows[shard].extend(x[idx])
            self._buf_keys[shard].extend(
                [None] * len(ids) if keys is None else [keys[i] for i in ids]
            )
            self._buf_rids[shard].extend(rid0 + i for i in ids)
            if len(self._buf_rids[shard]) >= self.batch_size:
                self._feed(shard)
        self._reap(wait=False)
        return range(rid0, rid0 + n)

    def flush(self, reason: str = "manual") -> int:
        """Ship every buffered request and flush every shard; returns
        the number of requests dispatched from the parent buffers."""
        self._check_revision()
        dispatched = sum(self._feed(shard) for shard in range(self.n_shards))
        for shard in range(self.n_shards):
            self._enqueue(shard, "flush", _shard_flush, self._fleet_id, shard)
        self._reap(wait=True)
        return dispatched

    def poll(self) -> int:
        """Reap finished dispatches without blocking; returns 0, since a
        fleet has no deadline flushes to fire."""
        self._check_revision()
        self._reap(wait=False)
        return 0

    def join(self) -> None:
        """Block until every shipped dispatch has resolved."""
        self._reap(wait=True)

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
        popped, when any of them is still pending, unknown or repeated."""
        ready = self._ready
        if not all(rid in ready for rid in rids):
            self._reap(wait=False)
            for rid in rids:
                if rid not in ready:
                    raise KeyError(rid)
        if len(set(rids)) < len(rids):
            raise KeyError(f"request ids repeat in {list(rids)}")
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
        self._check_revision()
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
        self._buf_rows[shard], self._buf_keys[shard], self._buf_rids[shard] = [], [], []
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
            # an install returns a marker; nothing to absorb

    def _check_revision(self) -> None:
        """RuntimeError once the registry has moved past the revision
        the shards were built from: they serve a copy of it, and a
        fleet has no way to bring them up to date."""
        if self.registry.revision != self._revision:
            raise RuntimeError(
                f"the fleet's registry moved from revision {self._revision} to "
                f"{self.registry.revision}; a fleet serves the registry it was built "
                "with, so build a new fleet to serve the change"
            )
