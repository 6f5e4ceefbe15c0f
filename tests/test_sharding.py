"""Sharded serving fleet pins: equivalence, merge accounting, a fixed
registry.

The load-bearing guarantees of :mod:`repro.serving.sharding`:

* a single-shard fleet over the :class:`SerialBackend` is
  **bit-identical** to a plain :class:`ScoringEngine` on the same
  request stream — scores, stats, and version attribution;
* fleet accounting is merge-*derived*: ``stats`` equals the sum of the
  per-shard snapshots because it is computed from them, and the pinned
  equality proves no second accounting path exists;
* a fleet serves the registry it was built with: once the parent
  registry's revision moves, traffic is refused before anything moves,
  and a replay refuses a fleet paired with a promoter or a retrainer.
"""

from __future__ import annotations

import contextlib
import os
import signal

import numpy as np
import pytest

from repro.ab.platform import Platform
from repro.obs import MetricsRegistry
from repro.runtime import ManualClock, ProcessBackend, SerialBackend
from repro.serving import AutoPromoter, ModelRegistry, Retrainer, ScoringEngine, ShardedScoringEngine, TrafficReplay
from repro.serving.sharding import _SHARD_ENGINES, _SHARD_RIDS


class LinearROI:
    """Module-level (picklable) deterministic scorer: x @ w."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.w


class NoisyROI:
    """Module-level (picklable) stochastic scorer: ``x @ w`` plus one
    draw from its own generator per scored row, as MC dropout would."""

    def __init__(self, w, seed):
        self.w = np.asarray(w, dtype=float)
        self.rng = np.random.default_rng(seed)

    def predict_roi(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x @ self.w + self.rng.normal(size=x.shape[0])


class FailingSecondCall:
    """Module-level (picklable) scorer: row ``[v, 1]`` scores ``v``, and
    the second call raises."""

    def __init__(self):
        self.calls = 0

    def predict_roi(self, x):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("model down")
        return np.atleast_2d(np.asarray(x, dtype=float))[:, 0]


def valued_rows(values):
    return np.array([[float(v), 1.0] for v in values])


# a lane worker's own log: every lane is one process, so a lane's log
# holds that lane's tasks alone, in the order they ran
_LANE_LOG: list = []


def _lane_log(value):
    """Append ``value`` to this worker's log and return the log so far."""
    _LANE_LOG.append(value)
    return list(_LANE_LOG)


def installed_shards() -> list:
    """The ``(fleet, shard)`` keys installed in the calling worker."""
    return sorted(_SHARD_ENGINES)


def shards_left(backend, fleet) -> list:
    """The fleet's shards still installed in their lane workers."""
    return [
        key
        for lane in range(fleet.n_shards)
        for key in backend.submit_to(lane, installed_shards).result()
        if key[0] == fleet._fleet_id
    ]


W_CHAMPION = [1.0, -0.5, 0.25, 2.0]
W_CHALLENGER = [0.5, 0.5, -0.25, 1.0]


def make_registry(split: float = 0.2, seed: int = 7) -> ModelRegistry:
    registry = ModelRegistry(traffic_split=split, random_state=seed)
    registry.register(LinearROI(W_CHAMPION), promote=True)
    registry.register(LinearROI(W_CHALLENGER))
    return registry


@pytest.fixture
def rows():
    return np.random.default_rng(0).normal(size=(400, 4))


# ---------------------------------------------------------------------------
# single-engine equivalence (the correctness anchor)
# ---------------------------------------------------------------------------
class TestSingleShardEquivalence:
    def test_bit_identical_scores_stats_versions(self, rows):
        """1-shard serial fleet == plain engine: same stream in, same
        everything out (keyed, with a live challenger split)."""
        plain = ScoringEngine(make_registry(), batch_size=16)
        fleet = ShardedScoringEngine(make_registry(), n_shards=1, batch_size=16)
        for i, row in enumerate(rows):
            assert plain.submit(row, key=i) == fleet.submit(row, key=i)
        plain.flush()
        plain.join()
        fleet.flush()
        for rid in range(len(rows)):
            assert fleet.has_result(rid) and plain.has_result(rid)
            assert fleet.version_of(rid) == plain.version_of(rid)
            assert fleet.take(rid) == plain.take(rid)
        assert fleet.stats == plain.stats
        fleet.close()

    def test_keyless_rng_routing_matches(self, rows):
        """Keyless requests draw the replica's routing RNG in the same
        order the parent would — same split decisions, same scores."""
        plain = ScoringEngine(make_registry(), batch_size=32)
        fleet = ShardedScoringEngine(make_registry(), n_shards=1, batch_size=32)
        for row in rows[:128]:
            plain.submit(row)
            fleet.submit(row)
        plain.flush()
        fleet.flush()
        for rid in range(128):
            assert fleet.version_of(rid) == plain.version_of(rid)
            assert fleet.take(rid) == plain.take(rid)
        fleet.close()

    def test_cache_hits_identical(self):
        """Repeated rows hit the shard LRU exactly like the plain engine."""
        repeated = np.tile(np.arange(8.0).reshape(2, 4), (30, 1))
        plain = ScoringEngine(make_registry(split=0.0), batch_size=8, cache_size=64)
        fleet = ShardedScoringEngine(
            make_registry(split=0.0), n_shards=1, batch_size=8, cache_size=64
        )
        for i, row in enumerate(repeated):
            plain.submit(row, key=i)
            fleet.submit(row, key=i)
        plain.flush()
        fleet.flush()
        assert fleet.stats == plain.stats
        assert fleet.stats["cache_hits"] > 0
        fleet.close()


# ---------------------------------------------------------------------------
# fleet submit_batch: one call, N submits' semantics
# ---------------------------------------------------------------------------
class TestFleetSubmitBatch:
    """``fleet.submit_batch(X)`` routes and scores exactly like N
    ``submit`` calls — keyed rows stick to their hash shard, keyless
    rows walk the round-robin cursor — across every backend and shard
    count, so results and merged stats match the per-row stream."""

    def _per_row_reference(self, rows, keys, **fleet_kwargs):
        fleet = ShardedScoringEngine(make_registry(), **fleet_kwargs)
        ids = [fleet.submit(row, key=k) for row, k in zip(rows, keys)]
        fleet.flush()
        scores = [fleet.take(rid) for rid in ids]
        stats = fleet.stats
        fleet.close()
        return scores, stats

    def test_keyed_matches_per_row_submits(self, rows):
        keys = [f"user-{i}" for i in range(len(rows))]
        expected, ref_stats = self._per_row_reference(
            rows, keys, n_shards=4, batch_size=16
        )
        fleet = ShardedScoringEngine(make_registry(), n_shards=4, batch_size=16)
        ids = fleet.submit_batch(rows, keys=keys)
        assert isinstance(ids, range) and len(ids) == len(rows)
        fleet.flush()
        assert [fleet.take(rid) for rid in ids] == expected
        assert fleet.stats == ref_stats
        fleet.close()

    def test_take_block_pops_in_the_order_given(self, rows):
        keys = list(range(100))
        expected, _ = self._per_row_reference(rows[:100], keys, n_shards=3, batch_size=16)
        fleet = ShardedScoringEngine(make_registry(), n_shards=3, batch_size=16)
        ids = fleet.submit_batch(rows[:100], keys=keys)
        fleet.flush()
        versions = [fleet.version_of(rid) for rid in ids]
        got = fleet.take_block(ids[::-1])
        assert got.tolist() == expected[::-1]
        assert set(versions) <= {1, 2}
        with pytest.raises(KeyError):
            fleet.version_of(ids[0])  # attribution released with the score
        fleet.close()

    def test_take_block_pops_nothing_while_any_is_pending(self, rows):
        fleet = ShardedScoringEngine(make_registry(), n_shards=2, batch_size=64)
        ready = fleet.submit_batch(rows[:4])
        fleet.flush()
        pending = fleet.submit(rows[4])
        with pytest.raises(KeyError):
            fleet.take_block([*ready, pending])
        assert all(fleet.has_result(rid) for rid in ready)
        fleet.flush()
        assert fleet.take_block([*ready, pending]).shape == (5,)
        assert fleet.take_block([]).shape == (0,)
        fleet.close()

    def test_take_block_refuses_a_repeated_id_and_pops_nothing(self, rows):
        """Regression: the first copy of a repeated id was popped before
        the second raised, so the refused call lost that score."""
        fleet, twin = (
            ShardedScoringEngine(make_registry(), n_shards=2, batch_size=4, cache_size=0, backend=SerialBackend())
            for _ in range(2)
        )
        ids = fleet.submit_batch(rows[:4])
        assert twin.submit_batch(rows[:4]) == ids
        for engine in (fleet, twin):
            engine.flush()
        with pytest.raises(KeyError):
            fleet.take_block([ids[3], ids[3]])
        with pytest.raises(KeyError):
            fleet.take_block([ids[0], ids[1], ids[0]])
        # still ready and attributed: the refused calls popped nothing
        assert [fleet.version_of(rid) for rid in ids] == [twin.version_of(rid) for rid in ids]
        assert fleet.take(ids[3]) == twin.take(ids[3])
        assert fleet.take_block(ids[:3]).tolist() == twin.take_block(ids[:3]).tolist()
        for engine in (fleet, twin):
            engine.close()

    def test_keyless_round_robin_matches(self, rows):
        expected, ref_stats = self._per_row_reference(
            rows[:150], [None] * 150, n_shards=3, batch_size=16
        )
        fleet = ShardedScoringEngine(make_registry(), n_shards=3, batch_size=16)
        ids = fleet.submit_batch(rows[:150])
        fleet.flush()
        assert [fleet.take(rid) for rid in ids] == expected
        assert fleet.stats == ref_stats
        # the round-robin cursor advanced exactly n places
        assert fleet.shard_of(None) == 150 % 3
        fleet.close()

    def test_partial_dispatch_then_more_batches(self, rows):
        """Blocks smaller than a batch buffer parent-side and ship with
        the next block — feed boundaries only affect transport, never
        results."""
        expected, ref_stats = self._per_row_reference(
            rows[:90], list(range(90)), n_shards=2, batch_size=64
        )
        fleet = ShardedScoringEngine(make_registry(), n_shards=2, batch_size=64)
        got = []
        for start in (0, 30, 60):
            ids = fleet.submit_batch(
                rows[start : start + 30], keys=list(range(start, start + 30))
            )
            got.append(ids)
        assert fleet.n_pending > 0  # part of the stream is still parent-side
        fleet.flush()
        scores = [fleet.take(rid) for ids in got for rid in ids]
        assert scores == expected
        assert fleet.stats == ref_stats
        fleet.close()

    def test_process_backend_matches_serial(self, rows):
        keys = list(range(120))
        expected, _ = self._per_row_reference(
            rows[:120], keys, n_shards=2, batch_size=32
        )
        backend = ProcessBackend(n_workers=2)
        try:
            with ShardedScoringEngine(
                make_registry(), n_shards=2, batch_size=32, backend=backend
            ) as fleet:
                ids = fleet.submit_batch(rows[:120], keys=keys)
                fleet.flush()
                assert [fleet.take(rid) for rid in ids] == expected
                assert fleet.stats["requests"] == 120
        finally:
            backend.shutdown()

    def test_shard_count_does_not_change_scores(self, rows):
        """With a deterministic champion, 1-shard and 4-shard fleets
        score the same keyed stream identically."""
        scores = {}
        for n_shards in (1, 4):
            fleet = ShardedScoringEngine(
                make_registry(split=0.0), n_shards=n_shards, batch_size=16
            )
            ids = fleet.submit_batch(rows, keys=list(range(len(rows))))
            fleet.flush()
            scores[n_shards] = [fleet.take(rid) for rid in ids]
            fleet.close()
        assert scores[1] == scores[4]

    def test_validation_and_empty(self):
        # the backend alone picks the transport, and a fleet has no
        # clock: no latency record, no deadlines
        removed = (
            {"transport": "pickle"},
            {"latency_log_size": 10},
            {"clock": ManualClock()},
            {"max_latency_ms": 20.0},
        )
        for option in removed:
            with pytest.raises(TypeError, match=next(iter(option))):
                ShardedScoringEngine(make_registry(), n_shards=2, **option)
        fleet = ShardedScoringEngine(make_registry(), n_shards=2)
        assert not hasattr(fleet, "latencies")
        assert fleet.clock is None and not hasattr(fleet, "latency_hist")
        with pytest.raises(TypeError, match="stamps"):
            fleet.submit_batch(np.zeros((2, 4)), stamps=[0.0, 0.0])
        with pytest.raises(ValueError, match="2-D"):
            fleet.submit_batch(np.zeros(4))
        with pytest.raises(ValueError, match="keys"):
            fleet.submit_batch(np.zeros((3, 4)), keys=["a"])
        empty = fleet.submit_batch(np.empty((0, 4)))
        assert isinstance(empty, range) and len(empty) == 0
        assert fleet.stats["requests"] == 0
        fleet.close()


# ---------------------------------------------------------------------------
# one transport: the backend is invisible to decisions
# ---------------------------------------------------------------------------
class TestOneTransport:
    """Rows go out and results come back as plain arrays on every
    backend, and each shard keeps its own LRU, so a cache-on fleet
    scoring with a stochastic model decides on a process pool exactly
    as inline, and repeats."""

    @staticmethod
    def _run(backend):
        users = np.random.default_rng(11).normal(size=(50, 4))
        rows = users[np.random.default_rng(12).integers(0, 50, size=600)]
        registry = ModelRegistry()
        registry.register(NoisyROI(W_CHAMPION, seed=5), promote=True)
        with ShardedScoringEngine(
            registry, n_shards=2, batch_size=16, cache_size=64, backend=backend
        ) as fleet:
            blocks, scores = [], []
            for i, start in enumerate(range(0, 600, 40)):
                blocks.append(fleet.submit_batch(rows[start : start + 40]))
                if i % 5 == 4:
                    fleet.flush()
                    scores += [fleet.take_block(ids) for ids in blocks]
                    blocks = []
            return np.concatenate(scores), fleet.stats

    def test_process_fleet_decides_like_serial_and_repeats(self, process_pool):
        serial_scores, serial_stats = self._run(None)
        runs = [self._run(process_pool)]
        backend = ProcessBackend(n_workers=2)
        try:
            runs.append(self._run(backend))
        finally:
            backend.shutdown()
        for scores, stats in runs:
            np.testing.assert_array_equal(scores, serial_scores)
            assert stats == serial_stats
        assert serial_stats["requests"] == 600
        assert 0 < serial_stats["cache_hits"] < 600


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------
class TestFleetFailurePaths:
    def test_raising_feed_leaves_later_ids_their_own_scores(self):
        """A flush that raises inside a feed stops the shard's walk
        short: the rows after it take no id.  The next block's fleet
        ids must still read that block's scores, never other rows'."""
        fleet = ShardedScoringEngine(
            FailingSecondCall(), n_shards=1, batch_size=4, cache_size=64
        )
        first = fleet.submit_batch(valued_rows([0, 1, 2, 3]))
        second = fleet.submit_batch(valued_rows([0, 4, 5, 6]))
        with pytest.raises(RuntimeError, match="model down"):
            fleet.submit_batch(valued_rows([7, 8, 9, 10]))
        last = fleet.submit_batch(valued_rows([20, 21, 22, 23]))
        fleet.flush()
        assert fleet.take_block(first).tolist() == [0.0, 1.0, 2.0, 3.0]
        assert fleet.take(second[0]) == 0.0  # the cache hit
        assert fleet.take_block(last).tolist() == [20.0, 21.0, 22.0, 23.0]
        # the dropped batch (rows 4-7) and the rows after the raise
        # (8-10) never resolve, as a dropped batch's ids do on one engine
        assert not any(fleet.has_result(rid) for rid in range(second[1], last[0]))
        assert fleet.drain() == []
        fleet.close()

    def test_raising_flushes_leave_no_id_map_entries(self):
        """Regression: the shard worker kept the engine-to-fleet id
        entries of every row a raising flush dropped (those ids never
        drain), one batch per failure.  Once every result is taken the
        map is empty, whichever shard call raised."""
        fleet = ShardedScoringEngine(
            FailingSecondCall(), n_shards=1, batch_size=4, cache_size=64
        )
        first = fleet.submit_batch(valued_rows([0, 1, 2, 3]))
        second = fleet.submit_batch(valued_rows([0, 4, 5, 6]))
        with pytest.raises(RuntimeError, match="model down"):
            fleet.submit_batch(valued_rows([7, 8, 9, 10]))
        last = fleet.submit_batch(valued_rows([20, 21, 22, 23]))
        fleet.flush()
        fleet.take_block(first)
        fleet.take(second[0])
        fleet.take_block(last)
        assert fleet.drain() == []
        assert _SHARD_RIDS[(fleet._fleet_id, 0)] == {}
        fleet.close()

    def test_raising_manual_flush_leaves_no_id_map_entries(self):
        fleet = ShardedScoringEngine(
            FailingSecondCall(), n_shards=1, batch_size=8, cache_size=0
        )
        first = fleet.submit_batch(valued_rows(range(8)))
        pending = fleet.submit_batch(valued_rows(range(10, 13)))
        with pytest.raises(RuntimeError, match="model down"):
            fleet.flush()  # the shard's manual flush scores the 3 pending rows
        assert fleet.take_block(first).tolist() == [float(v) for v in range(8)]
        assert not any(fleet.has_result(rid) for rid in pending)
        assert fleet.drain() == []
        assert _SHARD_RIDS[(fleet._fleet_id, 0)] == {}
        fleet.close()

    def test_mid_flight_exception_closes_the_fleet(self, rows, process_pool):
        """An exception inside the ``with`` block, with rows in flight
        and never flushed, still closes the fleet and drops its shards."""
        with pytest.raises(RuntimeError, match="mid-flight"):
            with ShardedScoringEngine(
                make_registry(), n_shards=2, cache_size=32, backend=process_pool
            ) as fleet:
                for i, row in enumerate(rows[:120]):
                    fleet.submit(row, key=i)  # in-flight, never flushed
                raise RuntimeError("mid-flight failure")
        assert fleet._closed
        assert shards_left(process_pool, fleet) == []

    def test_close_returns_after_a_sigkilled_worker(self, rows):
        """SIGKILLing a shard's worker leaves ``close()`` able to return
        (the broken lane may raise) with the fleet closed."""
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
        finally:
            with contextlib.suppress(Exception):
                backend.shutdown()

    @pytest.mark.parametrize("call", ["submit", "submit_batch"])
    def test_wrong_width_row_leaves_no_trace(self, rows, call):
        """A row of another width is refused, naming both widths,
        before any fleet id, buffer or mapping moves: the fleet goes on
        as if the call had never happened."""
        refused, reference = (
            ShardedScoringEngine(make_registry(), n_shards=1, batch_size=4)
            for _ in range(2)
        )
        for fleet in (refused, reference):
            fleet.submit(rows[0])
            fleet.submit(rows[1])
        with pytest.raises(ValueError, match="width 3.*width 4"):
            if call == "submit":
                refused.submit(rows[2, :3])
            else:
                refused.submit_batch(rows[2:4, :3])
        assert refused.n_pending == reference.n_pending == 2
        ids = [refused.submit(row) for row in rows[2:10]]
        assert ids == [reference.submit(row) for row in rows[2:10]] == list(range(2, 10))
        for fleet in (refused, reference):
            fleet.flush()
        assert refused.take_block(range(10)).tolist() == reference.take_block(range(10)).tolist()
        assert refused.stats == reference.stats
        refused.close()
        reference.close()

    @pytest.mark.parametrize("option, value", [("batch_size", 0), ("cache_size", -1)])
    def test_engine_arguments_are_checked_before_any_lane_task(self, option, value):
        """Regression: a fleet with ``batch_size=0`` or ``cache_size=-1``
        constructed, its shard installs failed on their lanes, and the
        error surfaced at the first ``submit``, after the fleet id had
        moved (a ``cache_size=-1`` row stayed buffered).  The fleet
        refuses them as :class:`ScoringEngine` does, with its message."""
        lanes = SerialBackend(metrics=MetricsRegistry())
        with pytest.raises(ValueError, match=option) as refused:
            ShardedScoringEngine(make_registry(), n_shards=2, backend=lanes, **{option: value})
        assert lanes.metrics.snapshot()["backend.tasks_submitted"].value == 0
        with pytest.raises(ValueError) as engine_refused:
            ScoringEngine(make_registry(), **{option: value})
        assert str(refused.value) == str(engine_refused.value)


# ---------------------------------------------------------------------------
# merge-derived fleet accounting
# ---------------------------------------------------------------------------
class TestFleetAccounting:
    def test_stats_equal_sum_of_shard_snapshots(self, rows):
        fleet = ShardedScoringEngine(make_registry(), n_shards=4, batch_size=16)
        for i, row in enumerate(rows):
            fleet.submit(row, key=f"user-{i}")
        fleet.flush()
        stats = fleet.stats
        per_shard = fleet.shard_snapshots()
        for name, total in stats.items():
            shard_sum = sum(
                int(snap[f"engine.{name}"].value)
                for snap, _v in per_shard
                if f"engine.{name}" in snap
            )
            assert total == shard_sum, name
        assert stats["requests"] == len(rows)
        # every shard actually took traffic at this key cardinality
        assert all(
            snap["engine.requests"].value > 0 for snap, _v in per_shard
        )
        fleet.close()

    def test_version_stats_sum_across_shards(self, rows):
        fleet = ShardedScoringEngine(make_registry(), n_shards=4, batch_size=16)
        for i, row in enumerate(rows):
            fleet.submit(row, key=i)
        fleet.flush()
        totals = fleet.version_stats()
        assert sum(
            v["requests"] + v["cache_hits"] for v in totals.values()
        ) == len(rows)
        assert set(totals) == {1, 2}  # champion and challenger both served
        fleet.close()

    def test_fleet_metrics_snapshot_merges_shards(self, rows):
        fleet = ShardedScoringEngine(make_registry(), n_shards=2, batch_size=16)
        before = fleet.metrics.snapshot()
        for i, row in enumerate(rows[:100]):
            fleet.submit(row, key=i)
        fleet.flush()
        delta = fleet.metrics.snapshot().delta(before)
        assert delta["engine.requests"].value == 100
        fleet.close()


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------
class TestRouting:
    def test_keyed_routing_sticky_and_spread(self):
        fleet = ShardedScoringEngine(make_registry(), n_shards=4)
        shards = [fleet.shard_of(f"user-{i}") for i in range(1000)]
        again = [fleet.shard_of(f"user-{i}") for i in range(1000)]
        assert shards == again  # deterministic
        counts = np.bincount(shards, minlength=4)
        assert (counts > 150).all()  # roughly balanced
        fleet.close()

    def test_keyless_round_robin(self):
        fleet = ShardedScoringEngine(make_registry(), n_shards=3)
        assert [fleet.shard_of(None) for _ in range(6)] == [0, 1, 2, 0, 1, 2]
        fleet.close()

    def test_score_batch_keyed_and_keyless_parity(self, rows):
        plain = ScoringEngine(make_registry(split=0.0))
        fleet = ShardedScoringEngine(make_registry(split=0.0), n_shards=4)
        # keyless with no active split: chunks all route the champion
        np.testing.assert_array_equal(
            fleet.score_batch(rows), plain.score_batch(rows)
        )
        # keyed: the whole batch goes to one sticky shard
        np.testing.assert_array_equal(
            fleet.score_batch(rows, key="u1"), plain.score_batch(rows, key="u1")
        )
        fleet.close()

    def test_score_convenience_path(self, rows):
        fleet = ShardedScoringEngine(make_registry(split=0.0), n_shards=2)
        expected = float(np.asarray(rows[0]) @ np.asarray(W_CHAMPION))
        assert fleet.score(rows[0], key="x") == pytest.approx(expected)
        fleet.close()


# ---------------------------------------------------------------------------
# a fixed registry: changes are refused, not synced
# ---------------------------------------------------------------------------
class TestFixedRegistry:
    @pytest.mark.parametrize("change", ["promote", "register"])
    def test_a_changed_registry_is_refused_before_anything_moves(self, rows, change):
        """Once the parent registry's revision moves, every call that
        ships or reaps traffic raises, and ids, buffers and stats stay
        as they were: the shards keep serving the replica they were
        built from, so the change never reaches them unnoticed."""
        fleet = ShardedScoringEngine(make_registry(), n_shards=2, batch_size=8)
        fleet.submit_batch(rows[:16])  # 8 rows per shard: both fed
        fleet.submit(rows[16])  # buffered on shard 0
        assert fleet.n_pending == 1 and fleet.stats["requests"] == 16

        def state():
            buffers = [list(rids) for rids in fleet._buf_rids]
            return fleet._next_rid, fleet._rr, buffers, fleet.n_pending, fleet.stats

        before = state()
        if change == "promote":
            fleet.registry.promote()
        else:
            fleet.registry.register(LinearROI(W_CHAMPION))
        calls = {
            "submit": lambda: fleet.submit(rows[20]),
            "submit_batch": lambda: fleet.submit_batch(rows[20:24]),
            "flush": fleet.flush,
            "poll": fleet.poll,
            "score_batch": lambda: fleet.score_batch(rows[:2]),
        }
        for name, call in calls.items():
            with pytest.raises(RuntimeError, match="revision"):
                call()
            assert state() == before, name
        assert fleet.take_block(range(16)).shape == (16,)  # scored before the change
        fleet.close()

    @pytest.mark.parametrize("owner", ["promoter", "retrainer"])
    def test_a_replay_refuses_a_fleet_with_a_lifecycle_owner(self, owner):
        """A promoter or a retrainer moves the registry a fleet refuses
        to serve past, so the replay refuses the pair at construction,
        not at the day's first lifecycle change."""
        registry = make_registry()
        revision = registry.revision
        owners = {
            "promoter": lambda: AutoPromoter(registry, ramp=(0.1, 0.5), min_decided=200, check_every=50),
            "retrainer": lambda: Retrainer(registry, every_outcomes=100),
        }
        with ShardedScoringEngine(registry, n_shards=2, batch_size=32, cache_size=0) as fleet:
            with pytest.raises(ValueError, match="ShardedScoringEngine"):
                TrafficReplay(Platform(dataset="criteo", random_state=0), fleet, **{owner: owners[owner]()})
            assert registry.revision == revision
            assert fleet.stats["requests"] == 0

    def test_revision_bumps_on_lifecycle_not_on_traffic(self):
        registry = make_registry()
        revision = registry.revision
        registry.route(key="u")
        registry.record_outcome(1, True, 1.0, 0.5)
        assert registry.revision == revision
        registry.promote()
        assert registry.revision == revision + 1
        registry.register(LinearROI(W_CHAMPION))
        assert registry.revision == revision + 2
        registry.demote()
        assert registry.revision == revision + 3
        registry.rollback()
        assert registry.revision == revision + 4


# ---------------------------------------------------------------------------
# backends: lanes, processes, threads
# ---------------------------------------------------------------------------
class TestBackends:
    def test_process_backend_two_shards(self, rows):
        backend = ProcessBackend(n_workers=2)
        try:
            with ShardedScoringEngine(
                make_registry(), n_shards=2, batch_size=32, backend=backend
            ) as fleet:
                for i, row in enumerate(rows[:120]):
                    fleet.submit(row, key=i)
                fleet.flush()
                scores = {r: fleet.take(r) for r in range(120)}
                # process replicas score exactly like an in-process engine
                reference = ShardedScoringEngine(
                    make_registry(), n_shards=2, batch_size=32
                )
                for i, row in enumerate(rows[:120]):
                    reference.submit(row, key=i)
                reference.flush()
                assert scores == {r: reference.take(r) for r in range(120)}
                assert fleet.stats["requests"] == 120
                reference.close()
                # shards really live out-of-process: nothing local
                assert (fleet._fleet_id, 0) not in _SHARD_ENGINES
        finally:
            backend.shutdown()

    def test_process_fleet_counts_every_request_and_closes(self, rows):
        backend = ProcessBackend(n_workers=2)
        try:
            fleet = ShardedScoringEngine(
                make_registry(), n_shards=2, cache_size=128, backend=backend
            )
            for i, row in enumerate(rows[:120]):
                fleet.submit(row, key=i)
            fleet.flush()
            assert fleet.stats["requests"] == 120
            assert len(shards_left(backend, fleet)) == 2
            fleet.close()
            assert fleet._closed
            assert shards_left(backend, fleet) == []
        finally:
            backend.shutdown()

    def test_backend_without_lanes_rejected(self):
        class Bare:
            n_workers = 4
            start_count = 0

            def submit(self, fn, *a, **k):  # pragma: no cover
                raise NotImplementedError

            def shutdown(self, wait=True):
                pass

        with pytest.raises(TypeError, match="submit_to"):
            ShardedScoringEngine(make_registry(), n_shards=2, backend=Bare())

    def test_close_is_idempotent_and_drops_shards(self):
        fleet = ShardedScoringEngine(make_registry(), n_shards=2)
        fleet.score_batch(np.zeros((1, 4)))
        fid = fleet._fleet_id
        assert (fid, 0) in _SHARD_ENGINES
        fleet.close()
        fleet.close()
        assert (fid, 0) not in _SHARD_ENGINES
        assert (fid, 1) not in _SHARD_ENGINES


class TestLaneAffinity:
    """The runtime layer underneath: submit_to pins work to one worker."""

    def test_serial_lane_validation(self):
        backend = SerialBackend()
        with pytest.raises(ValueError, match="lane"):
            backend.submit_to(-1, lambda: None)

    def test_pool_lane_bounds(self):
        backend = ProcessBackend(n_workers=2)
        with pytest.raises(ValueError, match="lane"):
            backend.submit_to(2, os.getpid)
        with pytest.raises(ValueError, match="lane"):
            backend.submit_to(-1, os.getpid)
        assert not backend.running  # a refused lane starts no worker
        backend.shutdown()

    def test_lanes_count_as_pool_starts(self):
        backend = ProcessBackend(n_workers=3)
        try:
            assert backend.start_count == 0
            assert backend.submit_to(0, _lane_log, 1).result() == [1]
            assert backend.submit_to(0, _lane_log, 2).result() == [1, 2]
            assert backend.submit_to(2, _lane_log, 3).result() == [3]
            assert backend.start_count == 2  # one per distinct lane
            assert backend.running
        finally:
            backend.shutdown()
        assert not backend.running

    def test_lane_fifo_order(self):
        """Tasks queued on one lane run in submission order, in one
        worker: each sees exactly the entries logged before it."""
        backend = ProcessBackend(n_workers=2)
        try:
            futures = [backend.submit_to(1, _lane_log, i) for i in range(20)]
            assert [f.result() for f in futures] == [
                list(range(i + 1)) for i in range(20)
            ]
        finally:
            backend.shutdown()

    def test_process_lane_pid_affinity(self):
        import os

        backend = ProcessBackend(n_workers=2)
        try:
            pids_lane0 = {backend.submit_to(0, os.getpid).result() for _ in range(3)}
            pids_lane1 = {backend.submit_to(1, os.getpid).result() for _ in range(3)}
            assert len(pids_lane0) == 1  # one long-lived process per lane
            assert len(pids_lane1) == 1
            assert pids_lane0 != pids_lane1
            assert os.getpid() not in pids_lane0 | pids_lane1
        finally:
            backend.shutdown()


# ---------------------------------------------------------------------------
# end-to-end: the fleet under real replayed traffic
# ---------------------------------------------------------------------------
class TestFleetEndToEnd:
    @pytest.fixture(scope="class")
    def probe_weights(self):
        from repro.data import criteo_uplift_v2

        probe = criteo_uplift_v2(4000, random_state=5)
        return np.linalg.lstsq(probe.x, probe.roi, rcond=None)[0]

    def test_traffic_replay_over_fleet(self, probe_weights):
        from repro.ab.platform import Platform
        from repro.serving import TrafficReplay

        platform = Platform(dataset="criteo", random_state=0)
        fleet = ShardedScoringEngine(
            LinearROI(probe_weights), n_shards=4, batch_size=128, cache_size=0
        )
        result = TrafficReplay(platform, fleet).replay_day(3000, budget_fraction=0.3)
        assert result.n_events == 3000
        assert result.spend <= result.budget + 1e-9
        assert result.engine_stats["requests"] == 3000
        assert result.revenue_ratio > 0.8
        fleet.close()
