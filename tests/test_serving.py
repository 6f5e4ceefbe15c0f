"""Tests for the online serving subsystem (``repro.serving``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ab.platform import Platform
from repro.core.roi_star import bisect_monotone
from repro.runtime import ManualClock, SerialBackend
from repro.serving.engine import ScoringEngine
from repro.serving.pacing import BudgetPacer, MultiDayPacer
from repro.serving.policy import ConformalGatedPolicy
from repro.serving.registry import ModelRegistry
from repro.serving.simulator import TrafficReplay


class LinearROI:
    """Deterministic stub scorer: clipped linear projection of x."""

    def __init__(self, w: np.ndarray, calls: list | None = None) -> None:
        self.w = np.asarray(w, dtype=float)
        self.calls = calls if calls is not None else []

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self.calls.append(x.shape[0])
        return np.clip(x @ self.w, 1e-6, 1.0 - 1e-6)


class IntervalROI(LinearROI):
    """Stub with a conformal-style interval (lower = 0.8 * point)."""

    def predict_interval(self, x):
        point = self.predict_roi(x)
        return 0.8 * point, np.minimum(1.2 * point, 1.0)


class CountingROI:
    """Stub scorer whose every scored row takes the next value of a
    running count, shared by all stubs built on one ``tally``.

    A cache hit replays an old score and a miss draws a fresh one, so
    the scores alone reveal which rows the cache answered and in which
    flush each miss was scored.  ``sign`` tells versions apart.
    """

    def __init__(self, tally: list[int], sign: float = 1.0) -> None:
        self.tally = tally
        self.sign = sign

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        n = np.atleast_2d(x).shape[0]
        start = self.tally[0]
        self.tally[0] += n
        return self.sign * np.arange(start + 1, start + n + 1, dtype=float)


@pytest.fixture
def stub_model():
    rng = np.random.default_rng(3)
    return LinearROI(rng.normal(size=12) * 0.05)


@pytest.fixture
def platform():
    return Platform(dataset="criteo", random_state=0)


# ---------------------------------------------------------------------------
# bisect_monotone (the reusable threshold search)
# ---------------------------------------------------------------------------
class TestBisectMonotone:
    def test_finds_root(self):
        root = bisect_monotone(lambda v: v - 0.3, 0.0, 1.0, eps=1e-6)
        assert root == pytest.approx(0.3, abs=1e-5)

    def test_clamps_to_endpoint(self):
        assert bisect_monotone(lambda v: v + 5.0, 0.0, 1.0) < 1e-2
        assert bisect_monotone(lambda v: v - 5.0, 0.0, 1.0) > 1.0 - 1e-2

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="eps"):
            bisect_monotone(lambda v: v, 0.0, 1.0, eps=0.0)
        with pytest.raises(ValueError, match="lo < hi"):
            bisect_monotone(lambda v: v, 1.0, 0.0)


# ---------------------------------------------------------------------------
# ModelRegistry
# ---------------------------------------------------------------------------
class TestModelRegistry:
    def test_first_model_becomes_champion(self, stub_model):
        reg = ModelRegistry()
        v = reg.register(stub_model)
        assert reg.champion.version == v
        assert reg.challenger is None

    def test_second_model_becomes_challenger(self, stub_model):
        reg = ModelRegistry()
        reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))
        assert reg.challenger is not None and reg.challenger.version == v2

    def test_promote_and_rollback(self, stub_model):
        reg = ModelRegistry()
        v1 = reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))
        assert reg.promote() == v2
        assert reg.champion.version == v2
        assert reg.challenger is None
        assert reg.rollback() == v1
        assert reg.champion.version == v1

    def test_register_promote_true_supports_rollback(self, stub_model):
        """The emergency-hotfix path records the displaced champion."""
        reg = ModelRegistry()
        v1 = reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)), promote=True)
        assert reg.champion.version == v2
        assert reg.rollback() == v1

    def test_rollback_restores_most_recent_champion(self, stub_model):
        reg = ModelRegistry()
        reg.register(stub_model)  # v1
        v2 = reg.register(LinearROI(np.zeros(12)))
        reg.promote()  # v2 champion, previous = v1
        reg.register(LinearROI(np.ones(12)), promote=True)  # v3 displaces v2
        assert reg.rollback() == v2  # v2, not the two-generations-old v1

    def test_rollback_without_promote_raises(self, stub_model):
        reg = ModelRegistry()
        reg.register(stub_model)
        with pytest.raises(RuntimeError, match="roll back"):
            reg.rollback()

    def test_route_requires_champion(self):
        with pytest.raises(RuntimeError, match="champion"):
            ModelRegistry().route()

    def test_keyed_routing_is_deterministic(self, stub_model):
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        reg.register(stub_model)
        reg.register(LinearROI(np.zeros(12)))
        picks = {key: reg.route(key).version for key in range(50)}
        again = {key: reg.route(key).version for key in range(50)}
        assert picks == again
        assert len(set(picks.values())) == 2  # both versions see traffic

    def test_traffic_split_zero_disables_challenger(self, stub_model):
        reg = ModelRegistry(traffic_split=0.0, random_state=0)
        reg.register(stub_model)
        reg.register(LinearROI(np.zeros(12)))
        versions = {reg.route().version for _ in range(50)}
        assert versions == {reg.champion.version}

    def test_rejects_model_without_predict_roi(self):
        with pytest.raises(TypeError, match="predict_roi"):
            ModelRegistry().register(object())

    def test_invalid_split(self):
        with pytest.raises(ValueError, match="traffic_split"):
            ModelRegistry(traffic_split=1.5)

    # -- lifecycle invariant: a champion transition archives any staged
    # -- challenger unless that challenger is itself being promoted
    def test_hotfix_register_archives_stale_challenger(self, stub_model):
        """Regression: ``register(promote=True)`` used to leave the
        staged challenger silently taking split traffic against a
        brand-new champion it was never compared to."""
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))  # staged challenger
        v3 = reg.register(LinearROI(np.ones(12)), promote=True)  # hotfix
        assert reg.champion.version == v3
        assert reg.challenger is None
        assert reg.get(v2).stage == "archived"
        # and no keyed traffic leaks to the stale challenger
        assert all(reg.route(k).version == v3 for k in range(100))

    def test_promote_archived_id_archives_stale_challenger(self, stub_model):
        """Regression: ``promote(<archived id>)`` (manual un-rollback)
        with a *different* challenger staged must archive it too."""
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        v1 = reg.register(stub_model)
        reg.register(LinearROI(np.zeros(12)))
        reg.promote()  # v2 champion, v1 archived
        v3 = reg.register(LinearROI(np.ones(12)))  # new challenger
        assert reg.promote(v1) == v1  # re-promote the archived v1
        assert reg.champion.version == v1
        assert reg.challenger is None
        assert reg.get(v3).stage == "archived"
        assert all(reg.route(k).version == v1 for k in range(100))

    def test_rollback_archives_stale_challenger(self, stub_model):
        reg = ModelRegistry()
        reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))
        reg.promote()  # v2 champion
        v3 = reg.register(LinearROI(np.ones(12)))  # challenger vs v2
        reg.rollback()  # v2's promotion undone -> v3's baseline is gone
        assert reg.challenger is None
        assert reg.get(v3).stage == "archived"

    def test_demote_unstages_challenger(self, stub_model):
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        v1 = reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))
        assert reg.demote() == v2
        assert reg.challenger is None
        assert reg.get(v2).stage == "archived"
        assert reg.champion.version == v1  # champion untouched
        with pytest.raises(ValueError, match="challenger"):
            reg.demote()
        with pytest.raises(ValueError, match="challenger"):
            reg.demote(v1)  # the champion is not demotable

    def test_small_split_routes_keyed_traffic(self, stub_model):
        """Regression: crc32 % 10_000 bucketing quantised any
        ``traffic_split`` below 1e-4 up to bucket zero's 1e-4, so a
        cautious 1e-5 first ramp step routed ~10x the intended keyed
        traffic.  The 64-bit bucket space resolves it."""
        reg = ModelRegistry(traffic_split=1e-5, random_state=0)
        reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))
        n = 300_000
        hits = sum(reg.route(k).version == v2 for k in range(n))
        # deterministic under the fixed hash; expectation n * 1e-5 = 3.
        # The old bucketing routed ~n * 1e-4 = 30 keys here.
        assert 1 <= hits <= 12

    def test_per_version_accounting_excludes_cache_hits(self, rng):
        """Regression: ``ModelVersion.requests`` used to count cache-hit
        requests the model never scored.  Invariant: ``requests`` =
        rows the model scored, ``cache_hits`` = cache serves,
        ``served`` = their sum = all requests answered."""
        calls: list[int] = []
        model = LinearROI(np.ones(6), calls=calls)
        engine = ScoringEngine(model, batch_size=4, cache_size=64)
        rows = rng.normal(size=(4, 6))
        for row in rows:
            engine.submit(row)  # one batch-full flush: 4 scored rows
        for row in rows[:3]:
            engine.submit(row)  # cache hits
        version = engine.registry.champion
        assert version.requests == 4  # only what the model scored
        assert version.cache_hits == 3
        assert version.served == 7
        assert sum(calls) == 4

    def test_outcome_ledger_moments_match_numpy(self):
        from repro.serving.registry import OutcomeLedger

        gen = np.random.default_rng(0)
        y_r, y_c = gen.random(60), gen.random(60) * 0.5
        tr = gen.random(60) < 0.5
        ledger = OutcomeLedger()
        for t, r, c in zip(tr, y_r, y_c):
            ledger.record(bool(t), float(r), float(c))
        assert ledger.n == 60
        assert ledger.n_treated == int(tr.sum())
        assert ledger.spend == pytest.approx(y_c.sum())
        assert ledger.revenue == pytest.approx(y_r.sum())
        mean, var, n = ledger.moments("net")
        assert n == 60
        assert mean == pytest.approx((y_r - y_c).mean())
        assert var == pytest.approx((y_r - y_c).var(ddof=1))
        mean_r, var_r, _ = ledger.moments("revenue")
        assert mean_r == pytest.approx(y_r.mean())
        assert var_r == pytest.approx(y_r.var(ddof=1))
        with pytest.raises(ValueError, match="metric"):
            ledger.moments("clicks")
        ledger.reset()
        assert ledger.n == 0
        assert ledger.moments("net") == (0.0, 0.0, 0)


# ---------------------------------------------------------------------------
# ScoringEngine
# ---------------------------------------------------------------------------
class TestScoringEngine:
    def test_matches_direct_model_call(self, stub_model, rng):
        x = rng.normal(size=(40, 12))
        engine = ScoringEngine(stub_model, batch_size=8, cache_size=0)
        got = np.array([engine.score(row) for row in x])
        np.testing.assert_allclose(got, stub_model.predict_roi(x), rtol=1e-12)

    def test_microbatching_one_model_call_per_flush(self, rng):
        calls: list[int] = []
        model = LinearROI(np.ones(5), calls=calls)
        engine = ScoringEngine(model, batch_size=16, cache_size=0)
        rows = rng.normal(size=(16, 5))
        ids = [engine.submit(row) for row in rows]
        assert calls == [16]  # one vectorised call at the auto-flush
        assert all(engine.has_result(rid) for rid in ids)

    def test_batch_size_one_is_synchronous(self, stub_model, rng):
        engine = ScoringEngine(stub_model, batch_size=1, cache_size=0)
        rid = engine.submit(rng.normal(size=12))
        assert engine.has_result(rid)  # flushed immediately
        assert engine.n_pending == 0

    def test_cache_hit_path(self, rng):
        calls: list[int] = []
        model = LinearROI(np.ones(6), calls=calls)
        engine = ScoringEngine(model, batch_size=1, cache_size=64)
        row = rng.normal(size=6)
        first = engine.score(row)
        second = engine.score(row)
        assert first == second
        assert engine.stats["cache_hits"] == 1
        assert sum(calls) == 1  # second request never reached the model
        assert engine.cache_hit_rate == pytest.approx(0.5)

    def test_cache_evicts_lru(self, stub_model, rng):
        engine = ScoringEngine(stub_model, batch_size=1, cache_size=2)
        rows = rng.normal(size=(3, 12))
        for row in rows:
            engine.score(row)
        engine.score(rows[0])  # evicted by rows[2] -> miss
        assert engine.stats["cache_hits"] == 0

    def test_take_pops_and_unknown_raises(self, stub_model, rng):
        engine = ScoringEngine(stub_model, batch_size=1)
        rid = engine.submit(rng.normal(size=12))
        engine.take(rid)
        with pytest.raises(KeyError):
            engine.take(rid)

    def test_routes_through_challenger(self, rng):
        reg = ModelRegistry(traffic_split=1.0, random_state=0)
        reg.register(LinearROI(np.zeros(4)))  # champion scores ~0
        reg.register(LinearROI(np.ones(4) * 10))  # challenger saturates
        engine = ScoringEngine(reg, batch_size=1, cache_size=0)
        score = engine.score(np.ones(4))
        assert score == pytest.approx(1.0 - 1e-6)  # served by challenger

    def test_promotion_switches_serving(self, rng):
        reg = ModelRegistry(traffic_split=0.0, random_state=0)
        reg.register(LinearROI(np.zeros(4)))
        reg.register(LinearROI(np.ones(4) * 10))
        engine = ScoringEngine(reg, batch_size=1, cache_size=0)
        before = engine.score(np.ones(4))
        reg.promote()
        after = engine.score(np.ones(4))
        assert before == pytest.approx(1e-6)
        assert after == pytest.approx(1.0 - 1e-6)

    def test_conformal_policy_scores_lower_bound(self, rng):
        model = IntervalROI(np.ones(3) * 0.1)
        x = np.abs(rng.normal(size=(5, 3)))
        engine = ScoringEngine(model, policy=ConformalGatedPolicy(), batch_size=1)
        got = np.array([engine.score(row) for row in x])
        np.testing.assert_allclose(got, model.predict_interval(x)[0], rtol=1e-12)

    def test_conformal_policy_fallback_shrinks(self, stub_model, rng):
        x = rng.normal(size=(4, 12))
        policy = ConformalGatedPolicy(fallback_shrink=0.5)
        np.testing.assert_allclose(
            policy.score_batch(stub_model, x),
            0.5 * stub_model.predict_roi(x),
            rtol=1e-12,
        )

    def test_failed_flush_leaves_engine_consistent(self, stub_model, rng):
        """A raising model drops its batch but does not wedge the buffer."""

        class Flaky:
            def __init__(self):
                self.fail_next = True

            def predict_roi(self, x):
                if self.fail_next:
                    self.fail_next = False
                    raise RuntimeError("model backend down")
                return np.zeros(np.atleast_2d(x).shape[0])

        engine = ScoringEngine(Flaky(), batch_size=4, cache_size=0)
        rows = rng.normal(size=(4, 3))
        for row in rows[:3]:
            engine.submit(row)
        with pytest.raises(RuntimeError, match="backend down"):
            engine.submit(rows[3])  # auto-flush hits the failure
        assert engine.n_pending == 0  # failed batch dropped, not retried
        assert engine.score(rows[0]) == 0.0  # engine still serves

    def test_successive_challengers_get_different_user_slices(self, stub_model):
        """The routing hash is salted per challenger version."""
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        reg.register(stub_model)
        reg.register(LinearROI(np.zeros(12)))  # challenger v2
        in_v2 = {k for k in range(200) if reg.route(k).version == 2}
        reg.promote()
        reg.register(LinearROI(np.ones(12)))  # challenger v3
        in_v3 = {k for k in range(200) if reg.route(k).version == 3}
        assert in_v2 != in_v3  # not the same fixed user slice every time

    def test_invalid_params(self, stub_model):
        with pytest.raises(ValueError, match="batch_size"):
            ScoringEngine(stub_model, batch_size=0)
        with pytest.raises(ValueError, match="cache_size"):
            ScoringEngine(stub_model, cache_size=-1)
        with pytest.raises(ValueError, match="max_latency_ms"):
            ScoringEngine(stub_model, max_latency_ms=0.0)
        # the sketch is the only latency record: no raw log to size
        with pytest.raises(TypeError, match="latency_log_size"):
            ScoringEngine(stub_model, latency_log_size=10)
        assert not hasattr(ScoringEngine(stub_model), "latencies")
        # every flush scores inline: no backend to choose, nothing in flight
        with pytest.raises(TypeError, match="backend"):
            ScoringEngine(stub_model, backend=SerialBackend())
        with pytest.raises(TypeError, match="backend"):
            ScoringEngine(stub_model).core().build(backend=SerialBackend())
        assert not hasattr(ScoringEngine(stub_model), "n_inflight")

    def test_serial_pinned_behaviour(self, rng):
        """The pre-runtime engine spec, pinned: a mixed stream (batch
        flushes, cache hits, manual tail flush) produces exactly the
        direct model scores and exactly these stats — the refactor
        must be bit-invisible."""
        calls: list[int] = []
        model = LinearROI(np.ones(6) * 0.04, calls=calls)
        engine = ScoringEngine(model, batch_size=4, cache_size=64)
        unique = rng.normal(size=(6, 6))
        stream = np.concatenate([unique, unique[:4]])  # 4 repeats at the tail
        ids = [engine.submit(row) for row in stream]
        engine.flush()
        got = np.array([engine.take(rid) for rid in ids])
        expect = model.predict_roi(np.vstack([unique, unique[:4]]))
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        # rows 0-3 auto-flush (batch_full); rows 4-5 wait; repeats of
        # 0-3 hit the cache; the manual flush scores the remainder
        assert calls[:-1] == [4, 2]  # one vectorised call per flush (+ expect calc)
        assert engine.stats["requests"] == 10
        assert engine.stats["cache_hits"] == 4
        assert engine.stats["cache_misses"] == 6
        assert engine.stats["flushes"] == 2
        assert engine.stats["flush_batch_full"] == 1
        assert engine.stats["flush_manual"] == 1
        assert engine.stats["flush_deadline"] == 0
        assert engine.stats["model_calls"] == 2
        assert engine.stats["rows_scored"] == 6
        assert engine.n_pending == 0

    def test_failing_batch_leaves_other_versions_pending(self, rng):
        """Pre-runtime exception semantics, pinned: when one version's
        batch raises during a flush, batches of *other* versions must
        stay pending and their models must not have been called."""

        class Boom:
            def predict_roi(self, x):
                raise RuntimeError("version A down")

        calls: list[int] = []
        healthy = LinearROI(np.zeros(4), calls=calls)
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        reg.register(healthy)  # v1 champion
        reg.register(Boom())  # v2 challenger on half the keys
        key_healthy = next(k for k in range(100) if reg.route(k).version == 1)
        key_boom = next(k for k in range(100) if reg.route(k).version == 2)
        engine = ScoringEngine(reg, batch_size=100, cache_size=0)
        engine.submit(rng.normal(size=4), key=key_healthy)
        engine.submit(rng.normal(size=4), key=key_boom)
        assert engine.n_pending == 2
        with pytest.raises(RuntimeError, match="version A down"):
            engine.flush()
        # exactly one batch was dropped; the other is still pending and
        # its model untouched — same as before the runtime refactor
        assert engine.n_pending == 1
        assert calls == []
        engine.flush()  # the healthy batch scores on the next flush
        assert calls == [1]
        assert engine.n_pending == 0

    def test_latency_log_is_bounded(self, stub_model, rng):
        """The sketch records every scored request in memory bounded by
        the value range (occupied buckets), not the request count."""
        clock = ManualClock()
        engine = ScoringEngine(stub_model, batch_size=4, cache_size=0, clock=clock)
        for row in rng.normal(size=(200, 12)):
            engine.submit(row)  # every 4th submit flushes: waits 3, 2, 1, 0 ms
            clock.advance(0.001)
        snap = engine.latency_hist.snapshot()
        assert snap.count == engine.stats["rows_scored"] == 200
        assert snap.zero_count == 50
        assert len(snap.buckets) == 3
        assert (snap.min, snap.max) == (0.0, pytest.approx(0.003))

    def test_score_count_mismatch_does_not_leak_stamps(self, rng):
        class WrongOnce:
            calls = 0

            def predict_roi(self, x):
                self.calls += 1
                return np.zeros(np.atleast_2d(x).shape[0] + (self.calls == 1))

        clock = ManualClock()
        engine = ScoringEngine(WrongOnce(), batch_size=2, cache_size=0, clock=clock)
        dropped = engine.submit(rng.normal(size=3))
        clock.advance(1.0)
        with pytest.raises(ValueError, match="scores"):
            engine.submit(rng.normal(size=3))  # auto-flush hits the mismatch
        with pytest.raises(KeyError):
            engine.version_of(dropped)  # the dropped batch is forgotten...
        assert engine.latency_hist.count == 0  # ...and logged no waits
        engine.submit(rng.normal(size=3))
        clock.advance(0.5)
        engine.submit(rng.normal(size=3))
        # the next batch logs its own waits, nothing left over
        assert engine.latency_hist.count == 2
        assert (engine.latency_hist.min, engine.latency_hist.max) == (0.0, 0.5)

    def test_version_of_attributes_scored_and_cached_requests(self, rng):
        """Outcome attribution needs the version whose score serves each
        request — including cache hits, whose cached score *is* that
        version's decision."""
        reg = ModelRegistry(traffic_split=1.0, random_state=0)
        reg.register(LinearROI(np.zeros(4)))
        reg.register(LinearROI(np.ones(4)))  # challenger takes everything
        engine = ScoringEngine(reg, batch_size=1, cache_size=16)
        row = rng.normal(size=4)
        rid = engine.submit(row)
        assert engine.version_of(rid) == 2
        engine.take(rid)
        with pytest.raises(KeyError):
            engine.version_of(rid)  # attribution released at take
        rid2 = engine.submit(row)  # cache hit: still version 2's score
        assert engine.version_of(rid2) == 2
        with pytest.raises(KeyError):
            engine.version_of(10_000)  # unknown id

    def test_score_batch_raising_model_scores_no_requests(self, rng):
        """``requests`` counts what the model actually scored — a
        raising model in the offline-parity path scored nothing."""

        class Boom:
            def predict_roi(self, x):
                raise RuntimeError("down")

        engine = ScoringEngine(Boom(), batch_size=4, cache_size=0)
        with pytest.raises(RuntimeError, match="down"):
            engine.score_batch(rng.normal(size=(5, 3)))
        assert engine.registry.champion.requests == 0

    def test_version_of_forgotten_for_dropped_batches(self, rng):
        class Boom:
            def predict_roi(self, x):
                raise RuntimeError("down")

        engine = ScoringEngine(Boom(), batch_size=2, cache_size=0)
        rid = engine.submit(rng.normal(size=3))
        with pytest.raises(RuntimeError, match="down"):
            engine.submit(rng.normal(size=3))  # auto-flush fails
        with pytest.raises(KeyError):
            engine.version_of(rid)  # dropped with its batch
        assert engine._version_by_rid == {}

    @pytest.mark.parametrize("cache_size", [0, 64])
    @pytest.mark.parametrize("bad", [np.ones(4), np.ones((2, 5))], ids=["submit", "submit_batch"])
    def test_wrong_width_row_leaves_no_trace(self, cache_size, bad):
        """Regression: a row of another width than the pending batch's
        used to raise a broadcast error only after its id, counters and
        version attribution had moved."""
        engine, clean = (
            ScoringEngine(LinearROI(np.full(3, 0.2)), batch_size=8, cache_size=cache_size)
            for _ in range(2)
        )
        for e in (engine, clean):
            e.submit(np.ones(3))
        call = engine.submit if bad.ndim == 1 else engine.submit_batch
        with pytest.raises(ValueError, match=rf"width {bad.shape[-1]}\b.*width 3\b"):
            call(bad)
        assert engine.stats == clean.stats
        assert engine.n_pending == clean.n_pending == 1
        for rejected in (1, 2):
            with pytest.raises(KeyError):
                engine.version_of(rejected)
        assert engine.submit(np.full(3, 0.5)) == clean.submit(np.full(3, 0.5)) == 1
        engine.flush()
        clean.flush()
        assert engine.stats == clean.stats
        assert engine.take(1) == clean.take(1)


# ---------------------------------------------------------------------------
# deadline-driven flushing (runtime clock integration)
# ---------------------------------------------------------------------------
class TestDeadlineFlush:
    def _engine(self, model, **kwargs):
        clock = ManualClock()
        defaults = dict(batch_size=100, cache_size=0, max_latency_ms=5.0, clock=clock)
        defaults.update(kwargs)
        return ScoringEngine(model, **defaults), clock

    def test_poll_flushes_overdue_batch(self, stub_model, rng):
        engine, clock = self._engine(stub_model)
        rid = engine.submit(rng.normal(size=12))
        assert not engine.has_result(rid)  # batch of 1, far from full
        clock.advance(0.004)
        assert engine.poll() == 0  # 4ms < 5ms deadline
        assert not engine.has_result(rid)
        clock.advance(0.002)
        assert engine.poll() == 1  # 6ms > 5ms: deadline flush fired
        assert engine.has_result(rid)
        assert engine.stats["flush_deadline"] == 1
        assert engine.stats["flush_batch_full"] == 0

    def test_has_result_and_take_fire_overdue_deadlines(self, stub_model, rng):
        """A waiter spinning on has_result()/take() alone must still
        get the max_latency_ms guarantee — every engine entry point
        advances the deadline loop."""
        engine, clock = self._engine(stub_model)
        rid = engine.submit(rng.normal(size=12))
        clock.advance(0.006)
        assert engine.has_result(rid)  # fired the flush itself, no poll()
        assert engine.stats["flush_deadline"] == 1
        rid2 = engine.submit(rng.normal(size=12))
        clock.advance(0.006)
        assert isinstance(engine.take(rid2), float)  # take() fires it too
        assert engine.stats["flush_deadline"] == 2

    def test_submit_fires_overdue_deadline_first(self, stub_model, rng):
        """A new arrival must not join a batch that is already overdue."""
        engine, clock = self._engine(stub_model)
        r1 = engine.submit(rng.normal(size=12))
        clock.advance(0.006)
        r2 = engine.submit(rng.normal(size=12))  # poll happens at entry
        assert engine.has_result(r1)  # old batch flushed on its deadline
        assert not engine.has_result(r2)  # new batch, fresh 5ms deadline
        assert engine.stats["flush_deadline"] == 1
        clock.advance(0.005)
        engine.poll()
        assert engine.has_result(r2)

    def test_deadline_rearms_per_batch_not_per_request(self, stub_model, rng):
        """The deadline anchors on the *oldest* buffered request."""
        engine, clock = self._engine(stub_model)
        engine.submit(rng.normal(size=12))
        for _ in range(3):  # later arrivals must not push the deadline out
            clock.advance(0.001)
            engine.submit(rng.normal(size=12))
        clock.advance(0.0021)  # 5.1ms after the first request
        assert engine.poll() == 1
        assert engine.stats["rows_scored"] == 4

    def test_batch_full_still_wins_under_deadline(self, stub_model, rng):
        engine, clock = self._engine(stub_model, batch_size=3)
        ids = [engine.submit(row) for row in rng.normal(size=(3, 12))]
        assert all(engine.has_result(rid) for rid in ids)  # full before due
        assert engine.stats["flush_batch_full"] == 1
        assert engine.stats["flush_deadline"] == 0
        clock.advance(1.0)
        assert engine.poll() == 0  # nothing pending, nothing to fire

    def test_latencies_recorded_and_cache_hits_stay_out(self, stub_model, rng):
        """Regression: cache hits used to log 0.0 latencies, silently
        deflating the scored p95 that the deadline-bound claims are
        measured on.  A cache hit is counted in ``cache_hits`` (engine
        stat and per-version) — never in the scored-latency sketch."""
        engine, clock = self._engine(stub_model, cache_size=32)
        row = rng.normal(size=12)
        engine.submit(row)
        clock.advance(0.006)
        engine.poll()
        engine.submit(row)  # identical row: cache hit — served, not scored
        assert engine.latency_hist.count == 1  # no 0.0 entry
        assert engine.latency_hist.min == pytest.approx(0.006)
        assert engine.stats["cache_hits"] == 1
        assert engine.registry.champion.cache_hits == 1

    # 1.5ms does NOT divide the 5ms deadline: the bound must hold even
    # when no arrival lands exactly on the deadline (the simulator has
    # to stop the clock *at* the deadline, not overshoot to the next
    # arrival)
    @pytest.mark.parametrize("interarrival_s", [0.001, 0.0015])
    def test_simulator_bounds_every_wait_by_the_deadline(self, platform, interarrival_s):
        """ISSUE acceptance: with max_latency_ms set, no request waits
        longer than the deadline under the simulator's manual clock."""
        max_latency_ms = 5.0
        engine = ScoringEngine(
            LinearROI(np.full(12, 0.02)),
            batch_size=64,  # arrival rate never fills this before 5ms
            cache_size=0,
            max_latency_ms=max_latency_ms,
            clock=ManualClock(),
        )
        replay = TrafficReplay(platform, engine, interarrival_s=interarrival_s)
        result = replay.replay_day(400, budget_fraction=0.3)
        assert result.latency_hist.count == 400
        assert engine.latency_hist.max <= max_latency_ms / 1000.0 + 1e-9
        # and the deadline path is what served the stream, not batch-full
        assert result.engine_stats["flush_deadline"] > 0
        assert result.engine_stats["flush_batch_full"] == 0
        assert result.spend <= result.budget + 1e-9

    def test_simulator_interarrival_requires_manual_clock(self, platform, stub_model):
        engine = ScoringEngine(stub_model, batch_size=8)
        with pytest.raises(ValueError, match="ManualClock"):
            TrafficReplay(platform, engine, interarrival_s=0.001)

    @pytest.mark.parametrize("gap", [float("inf"), float("nan"), -0.001])
    def test_simulator_refuses_a_non_finite_or_negative_interarrival(self, platform, gap):
        """An infinite gap used to construct, and the day then died after
        rows were scored, on a NaN latency; it is refused up front."""
        engine = ScoringEngine(
            LinearROI(np.full(12, 0.02)), batch_size=8, cache_size=0, clock=ManualClock()
        )
        with pytest.raises(ValueError, match="interarrival_s must be finite"):
            TrafficReplay(platform, engine, interarrival_s=gap)
        assert engine.stats["requests"] == 0

    def test_unknown_flush_reason_rejected_before_counting(self, stub_model, rng):
        engine = ScoringEngine(stub_model, batch_size=8, cache_size=0)
        engine.submit(rng.normal(size=12))
        with pytest.raises(ValueError, match="reason"):
            engine.flush(reason="shutdown")
        assert engine.stats["flushes"] == 0  # counters untouched
        assert engine.flush() == 1  # the request is still flushable

    def test_deadline_rearms_after_a_failing_flush(self, rng):
        """A raising batch must not strand the surviving versions'
        requests without a deadline — the latency bound has to keep
        holding after a partial flush failure."""

        class Boom:
            def predict_roi(self, x):
                raise RuntimeError("down")

        calls: list[int] = []
        healthy = LinearROI(np.zeros(4), calls=calls)
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        reg.register(healthy)  # v1 champion
        reg.register(Boom())  # v2 challenger on half the keys
        key_healthy = next(k for k in range(100) if reg.route(k).version == 1)
        key_boom = next(k for k in range(100) if reg.route(k).version == 2)
        clock = ManualClock()
        engine = ScoringEngine(
            reg, batch_size=100, cache_size=0, max_latency_ms=5.0, clock=clock
        )
        r_healthy = engine.submit(rng.normal(size=4), key=key_healthy)
        engine.submit(rng.normal(size=4), key=key_boom)
        clock.advance(0.006)  # past the deadline: poll fires the flush
        with pytest.raises(RuntimeError, match="down"):
            engine.poll()
        assert engine.n_pending == 1  # the healthy batch survived
        # the survivor is overdue, so the re-armed deadline fires on the
        # very next poll — no silent loss of the latency guarantee
        assert engine.poll() >= 1
        assert engine.has_result(r_healthy)
        assert calls == [1]


# ---------------------------------------------------------------------------
# submit_batch: the vectorised ingest path
# ---------------------------------------------------------------------------
class TestSubmitBatch:
    """``submit_batch(X)`` is semantically N ``submit`` calls.

    Pinned as *full* equivalence — scores, stats (including flush
    counters), cache hits, version attribution, and the latency sketch —
    on both the slab path (static routing, cache off) and the row walk
    (cache or live challenger).  The scalar reference engine batches
    rows into the same pending blocks at flush, so even the score
    floats are bit-identical.
    """

    W = np.linspace(-0.5, 0.5, 6)

    def _engine(self, split=0.0, **kwargs) -> ScoringEngine:
        registry = ModelRegistry(traffic_split=split, random_state=11)
        registry.register(LinearROI(self.W), promote=True)
        if split > 0.0:
            registry.register(LinearROI(-self.W))
        return ScoringEngine(registry, batch_size=16, **kwargs)

    def _rows(self, n=150):
        return np.random.default_rng(5).normal(size=(n, 6))

    def test_fast_path_matches_per_row_submits(self):
        rows = self._rows()
        batch = self._engine(cache_size=0)
        scalar = self._engine(cache_size=0)
        ids = batch.submit_batch(rows)
        assert isinstance(ids, range) and len(ids) == len(rows)
        ref_ids = [scalar.submit(row) for row in rows]
        batch.flush()
        scalar.flush()
        got = batch.take_block(ids)
        expected = np.array([scalar.take(rid) for rid in ref_ids])
        np.testing.assert_array_equal(got, expected)  # bit-identical
        assert batch.stats == scalar.stats  # incl. flushes/batches

    def test_cache_fallback_matches_per_row(self):
        rows = np.tile(self._rows(10), (6, 1))  # repeats → cache traffic
        batch = self._engine(cache_size=64)
        scalar = self._engine(cache_size=64)
        ids = batch.submit_batch(rows)
        assert isinstance(ids, range)  # the row walk keeps block ids
        ref_ids = [scalar.submit(row) for row in rows]
        batch.flush()
        scalar.flush()
        for rid, ref in zip(ids, ref_ids):
            assert batch.take(rid) == scalar.take(ref)
        assert batch.stats == scalar.stats
        assert batch.stats["cache_hits"] > 0

    def test_challenger_routing_fallback_matches(self):
        """A live split forces per-row routing: the RNG draws in the
        same order as N submits, so versions and scores agree."""
        rows = self._rows(80)
        batch = self._engine(split=0.3, cache_size=0)
        scalar = self._engine(split=0.3, cache_size=0)
        ids = batch.submit_batch(rows)
        ref_ids = [scalar.submit(row) for row in rows]
        batch.flush()
        scalar.flush()
        for rid, ref in zip(ids, ref_ids):
            assert batch.version_of(rid) == scalar.version_of(ref)
            assert batch.take(rid) == scalar.take(ref)
        assert batch.stats == scalar.stats

    def test_keys_route_like_scalar_submits(self):
        rows = self._rows(60)
        keys = [f"user-{i % 7}" for i in range(len(rows))]
        batch = self._engine(split=0.5, cache_size=0)
        scalar = self._engine(split=0.5, cache_size=0)
        ids = batch.submit_batch(rows, keys=keys)
        ref_ids = [scalar.submit(row, key=k) for row, k in zip(rows, keys)]
        batch.flush()
        scalar.flush()
        for rid, ref in zip(ids, ref_ids):
            assert batch.version_of(rid) == scalar.version_of(ref)
            assert batch.take(rid) == scalar.take(ref)

    def test_latency_log_identical_under_manual_clock(self):
        rows = self._rows(48)
        clocks = (ManualClock(), ManualClock())
        batch = self._engine(cache_size=0, clock=clocks[0])
        scalar = self._engine(cache_size=0, clock=clocks[1])
        batch.submit_batch(rows)
        for row in rows:
            scalar.submit(row)
        for clock in clocks:
            clock.advance(0.004)
        batch.flush()
        scalar.flush()
        assert batch.latency_hist.snapshot() == scalar.latency_hist.snapshot()

    def test_appended_block_keeps_its_own_submit_stamps(self):
        """Regression: a block appended to an open fast-path run used to
        inherit the run's first submit stamp, so two 4-row blocks 1 s
        apart logged eight 1.5 s waits instead of four 1.5 s and four
        0.5 s ones."""
        rows = self._rows(8)
        clocks = (ManualClock(), ManualClock())
        batch = self._engine(cache_size=0, clock=clocks[0])
        scalar = self._engine(cache_size=0, clock=clocks[1])
        for block, gap in ((rows[:4], 1.0), (rows[4:], 0.5)):
            batch.submit_batch(block)
            for row in block:
                scalar.submit(row)
            for clock in clocks:
                clock.advance(gap)
        batch.flush()
        scalar.flush()
        snap = batch.latency_hist.snapshot()
        assert (snap.count, snap.min, snap.max) == (8, 0.5, 1.5)
        assert snap.sum == pytest.approx(8.0)
        assert snap == scalar.latency_hist.snapshot()

    def test_mixed_scalar_then_block_bookkeeping(self):
        """Interleaving scalar submits with a block exercises the
        mixed-block per-rid path; results must still match per-row."""
        rows = self._rows(40)
        batch = self._engine(cache_size=0)
        scalar = self._engine(cache_size=0)
        pre = [batch.submit(row) for row in rows[:3]]
        ids = batch.submit_batch(rows[3:])
        ref_ids = [scalar.submit(row) for row in rows]
        batch.flush()
        scalar.flush()
        got = [batch.take(rid) for rid in pre] + list(batch.take_block(ids))
        expected = [scalar.take(rid) for rid in ref_ids]
        assert got == expected
        assert batch.stats == scalar.stats

    def test_validation_and_empty(self):
        engine = self._engine(cache_size=0)
        with pytest.raises(ValueError, match="2-D"):
            engine.submit_batch(np.zeros(6))
        with pytest.raises(ValueError, match="keys"):
            engine.submit_batch(np.zeros((3, 6)), keys=["a"])
        assert engine.submit_batch(np.empty((0, 6))) == []
        assert engine.stats["requests"] == 0

    @pytest.mark.parametrize("cache_size", [0, 64])
    def test_take_block_that_raises_pops_nothing(self, cache_size):
        """Regression: with four of six rows scored, ``take_block`` used
        to pop those four before raising on the fifth, losing them."""
        rows = self._rows(6)
        engine = ScoringEngine(LinearROI(self.W), batch_size=4, cache_size=cache_size)
        reference = ScoringEngine(LinearROI(self.W), batch_size=4, cache_size=cache_size)
        ids = engine.submit_batch(rows)
        ref_ids = [reference.submit(row) for row in rows]
        with pytest.raises(KeyError):
            engine.take_block(ids)
        assert [engine.version_of(rid) for rid in ids[:4]] == [1] * 4  # still attributed
        engine.flush()
        reference.flush()
        expected = np.array([reference.take(rid) for rid in ref_ids])
        np.testing.assert_array_equal(engine.take_block(ids), expected)
        with pytest.raises(KeyError):
            engine.version_of(ids[0])  # released by the take

    class FailsOnCall:
        """Stub scorer: row ``[v, ...]`` scores ``v``; call ``fail`` raises."""

        def __init__(self, fail: int) -> None:
            self.fail = fail
            self.calls = 0

        def predict_roi(self, x):
            self.calls += 1
            if self.calls == self.fail:
                raise RuntimeError("model down")
            return np.atleast_2d(x)[:, 0].astype(float)

    @pytest.mark.parametrize("batch_size, fail", [(4, 2), (4, 1), (3, 3), (1, 2), (5, 2)])
    def test_slab_raise_books_like_per_row_submits(self, batch_size, fail):
        """Regression: the slab path (cache off, static routing) issued a
        block's ids and counted its requests up front, so a batch-full
        flush raising inside the block left later rows holding ids and
        the next request's id skipped past them.  Ids, ``requests`` and
        ``cache_misses`` now move per flush segment, as N submits do."""
        rows = np.arange(30.0).reshape(10, 3)
        block = ScoringEngine(self.FailsOnCall(fail), batch_size=batch_size, cache_size=0)
        per_row = ScoringEngine(self.FailsOnCall(fail), batch_size=batch_size, cache_size=0)
        raised = []
        for engine, feed in (
            (block, lambda: block.submit_batch(rows)),
            (per_row, lambda: [per_row.submit(row) for row in rows]),
        ):
            try:
                feed()
            except RuntimeError:
                raised.append(engine)
        assert raised == [block, per_row]
        assert block.submit(rows[9] + 100.0) == per_row.submit(rows[9] + 100.0)
        assert block.stats == per_row.stats
        block.flush()
        per_row.flush()
        assert block.drain() == per_row.drain()

    # -- the row walk, pinned against per-row submits ------------------
    @staticmethod
    def _counting_engine(split=0.0, **kwargs) -> ScoringEngine:
        tally = [0]
        registry = ModelRegistry(traffic_split=split, random_state=11)
        registry.register(CountingROI(tally), promote=True)
        if split > 0.0:
            registry.register(CountingROI(tally, sign=-1.0))
        return ScoringEngine(registry, **kwargs)

    @staticmethod
    def _feed(batch, scalar, rows, cuts=(), keys=None, clocks=(), gap=0.0):
        """Submit ``rows`` to ``batch`` as blocks cut at ``cuts`` and to
        ``scalar`` row by row, advancing ``clocks`` by ``gap`` after each
        block; returns both engines' ids.  Both share the reap, so the
        LRU's bound is checked on its own after every block."""
        ids, ref_ids = [], []
        for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
            block_keys = None if keys is None else keys[lo:hi]
            ids.extend(batch.submit_batch(rows[lo:hi], keys=block_keys))
            ref_ids.extend(
                scalar.submit(row, key=None if keys is None else keys[i])
                for i, row in zip(range(lo, hi), rows[lo:hi])
            )
            assert len(batch._cache) <= batch.cache_size
            assert len(scalar._cache) <= scalar.cache_size
            for clock in clocks:
                clock.advance(gap)
        return ids, ref_ids

    @staticmethod
    def _assert_same(batch, scalar, ids, ref_ids):
        """Everything observable agrees: ids, attribution, stats, the
        LRU's entries and order, per-version counts, scores, and the
        routing generator's next draw."""
        assert ids == ref_ids
        assert [batch.version_of(r) for r in ids] == [scalar.version_of(r) for r in ref_ids]
        assert batch.stats == scalar.stats
        assert batch.n_pending == scalar.n_pending
        batch.flush()
        scalar.flush()
        got = batch.take_block(ids)
        np.testing.assert_array_equal(got, [scalar.take(r) for r in ref_ids])
        assert batch.stats == scalar.stats
        assert list(batch._cache.items()) == list(scalar._cache.items())
        assert [(v.version, v.requests, v.cache_hits) for v in batch.registry.versions()] == [
            (v.version, v.requests, v.cache_hits) for v in scalar.registry.versions()
        ]
        assert batch.registry._rng.random() == scalar.registry._rng.random()

    @settings(max_examples=150, deadline=None)
    @given(
        pattern=st.lists(st.integers(0, 9), min_size=1, max_size=60),
        cache_size=st.integers(1, 8),
        batch_size=st.integers(1, 16),
        cuts=st.lists(st.integers(1, 59), max_size=6),
        split=st.sampled_from([0.0, 0.4]),
        keyed=st.booleans(),
    )
    def test_row_walk_matches_per_row_submits(
        self, pattern, cache_size, batch_size, cuts, split, keyed
    ):
        rows = self._rows(10)[pattern]
        cuts = sorted({c for c in cuts if c < len(rows)})
        keys = [f"user-{p}" for p in pattern] if keyed else None
        batch, scalar = (
            self._counting_engine(split=split, batch_size=batch_size, cache_size=cache_size)
            for _ in range(2)
        )
        ids, ref_ids = self._feed(batch, scalar, rows, cuts, keys)
        self._assert_same(batch, scalar, ids, ref_ids)

    def test_row_walk_latency_sketch_under_manual_clock(self):
        rows = self._rows(6)[[0, 1, 2, 0, 3, 4, 1, 5, 0, 2, 2, 5, 3, 1, 0, 4]]
        clocks = ManualClock(), ManualClock()
        batch, scalar = (
            self._counting_engine(batch_size=4, cache_size=3, max_latency_ms=5.0, clock=c)
            for c in clocks
        )
        # 3 ms per block: a deadline armed in one block fires at the
        # second block's single poll, before its rows probe the cache
        ids, ref_ids = self._feed(batch, scalar, rows, [3, 5, 9, 10, 14], clocks=clocks, gap=0.003)
        self._assert_same(batch, scalar, ids, ref_ids)
        assert batch.stats["flush_deadline"] > 0 and batch.stats["cache_hits"] > 0
        assert batch.latency_hist.snapshot() == scalar.latency_hist.snapshot()

    @pytest.mark.parametrize("keyed", [False, True])
    def test_row_walk_routes_a_live_split_like_submits(self, keyed):
        pattern = [0, 1, 2, 3, 0, 4, 5, 1, 6, 7, 2, 8, 9, 0, 3] * 3
        rows = self._rows(10)[pattern]
        keys = [f"user-{p}" for p in pattern] if keyed else None
        for cache_size in (0, 4):
            batch, scalar = (
                self._counting_engine(split=0.3, batch_size=5, cache_size=cache_size)
                for _ in range(2)
            )
            ids, ref_ids = self._feed(batch, scalar, rows, cuts=[7, 30], keys=keys)
            assert len({batch.version_of(r) for r in ids}) == 2  # both arms served
            self._assert_same(batch, scalar, ids, ref_ids)

    def test_row_walk_interleaves_scalar_submits(self):
        # a stream on which a hit's LRU refresh decides a later eviction
        rows = self._rows(4)[[1, 3, 1, 3, 0, 1, 1, 0, 3, 3, 0, 3, 3, 1]]
        batch, scalar = (self._counting_engine(batch_size=3, cache_size=2) for _ in range(2))
        ids, ref_ids = [], []
        for lo, hi in ((0, 1), (1, 5), (5, 6), (6, 7), (7, 12), (12, 14)):
            if hi - lo == 1:
                ids.append(batch.submit(rows[lo]))
            else:
                ids.extend(batch.submit_batch(rows[lo:hi]))
            ref_ids.extend(scalar.submit(row) for row in rows[lo:hi])
        self._assert_same(batch, scalar, ids, ref_ids)


# ---------------------------------------------------------------------------
# MultiDayPacer (cross-day carryover)
# ---------------------------------------------------------------------------
class TestMultiDayPacer:
    def test_day2_absorbs_day1_underspend_pinned(self):
        """ISSUE acceptance: day-1 under-spend funds day-2's pacing,
        total multi-day spend stays strictly under the campaign
        budget, and every single-day invariant keeps holding."""
        daily, horizon = 10.0, 100
        multi = MultiDayPacer(
            daily_budget=daily,
            horizon=horizon,
            pacer_params=dict(
                warmup=8, refresh_every=8, window=32, lookahead=16,
                curve_slack=0.05, use_roi_floor=False,
            ),
        )
        # day 1: traffic dries up at midday — only 50 of 100 expected
        # arrivals show, so the uniform curve strands ~half the budget
        # (0.3 unit costs never divide the budget exactly, so every
        # day's spend sits strictly inside its boundary)
        day1 = multi.start_day()
        for _ in range(50):
            day1.offer(0.9, 0.3)
        assert day1.spent <= daily
        carry = multi.end_day()
        underspend = daily - day1.spent
        assert underspend > 3.0  # the curve really did strand budget
        assert carry == pytest.approx(underspend)

        # day 2: full traffic; its pacer holds base + carry
        day2 = multi.start_day()
        assert day2.budget == pytest.approx(daily + carry)
        for _ in range(horizon):
            day2.offer(0.9, 0.3)
        multi.end_day()

        # single-day invariants, both days
        for pacer in multi.days:
            assert pacer.spent <= pacer.budget + 1e-9
            for n_seen, spent, _thr in pacer.history:
                cap = pacer.budget * min(1.0, n_seen / pacer.horizon + 0.05)
                assert spent <= cap + 1e-9
        # day 2 actually used the carried budget: spent beyond its base
        assert multi.days[1].spent > daily
        # campaign invariant: strictly under the two-day plan
        assert multi.total_spent < 2 * daily
        assert multi.total_base_budget == pytest.approx(2 * daily)

    def test_early_mode_tilts_the_curve_forward(self):
        """'early' releases the carry at the start of the next day;
        'spread' paces it evenly — early must be ahead at quarter-day."""
        spends = {}
        for mode in ("spread", "early"):
            multi = MultiDayPacer(
                daily_budget=10.0,
                horizon=100,
                carryover_mode=mode,
                pacer_params=dict(
                    warmup=4, refresh_every=4, window=32, lookahead=8,
                    curve_slack=0.01, use_roi_floor=False,
                ),
            )
            day1 = multi.start_day()
            for _ in range(30):  # heavy underspend: carry ~7
                day1.offer(0.9, 1.0)
            multi.end_day()
            day2 = multi.start_day()
            for _ in range(25):  # first quarter of day 2
                day2.offer(0.9, 1.0)
            spends[mode] = day2.spent
            multi.end_day()
        assert spends["early"] > spends["spread"] + 2.0

    def test_zero_carryover_is_amnesiac(self):
        multi = MultiDayPacer(daily_budget=10.0, horizon=50, carryover=0.0)
        day1 = multi.start_day()
        for _ in range(10):
            day1.offer(0.5, 1.0)
        assert multi.end_day() == 0.0
        assert multi.start_day().budget == 10.0

    def test_delegation_and_lifecycle_errors(self):
        """Each day runs on the pacer ``start_day`` returns."""
        multi = MultiDayPacer(daily_budget=5.0, horizon=10)
        with pytest.raises(RuntimeError, match="start_day"):
            multi.end_day()
        day = multi.start_day()
        assert multi.current is day and multi.days == [day]
        assert isinstance(day.offer(0.5, 1.0), bool)
        day.observe_outcome(1, 1.0, 1.0)
        with pytest.raises(RuntimeError, match="end_day"):
            multi.start_day()
        multi.end_day()
        assert multi.current is None

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="carryover must"):
            MultiDayPacer(daily_budget=1.0, horizon=10, carryover=1.5)
        with pytest.raises(ValueError, match="carryover_mode"):
            MultiDayPacer(daily_budget=1.0, horizon=10, carryover_mode="late")
        with pytest.raises(ValueError, match="daily_budget"):
            MultiDayPacer(daily_budget=-1.0, horizon=10)
        multi = MultiDayPacer()  # defaults omitted is fine...
        with pytest.raises(ValueError, match="base_budget"):
            multi.start_day()  # ...until a day needs numbers

    def test_per_day_overrides(self):
        multi = MultiDayPacer(daily_budget=5.0, horizon=10)
        day = multi.start_day(base_budget=7.0, horizon=20)
        assert day.budget == 7.0
        assert day.horizon == 20


# ---------------------------------------------------------------------------
# multi-day replay (campaign mode)
# ---------------------------------------------------------------------------
class TestMultiDayReplay:
    def test_campaign_accounting_and_carry(self, platform):
        probe = TestTrafficReplay()._probe_weights()
        engine = ScoringEngine(LinearROI(probe), batch_size=128, cache_size=0)
        replay = TrafficReplay(platform, engine)
        result = replay.replay_days(3, 1200, budget_fraction=0.3)
        assert result.n_days == 3 and len(result.ledger) == 3
        # per-day: the day budget is base + carry-in, and never overspent
        carry_in = 0.0
        for day, (base, day_budget, spent, carry_out) in zip(result.days, result.ledger):
            assert day_budget == pytest.approx(base + carry_in)
            assert day.budget == pytest.approx(day_budget)
            assert day.spend == pytest.approx(spent)
            assert spent <= day_budget + 1e-9
            assert carry_out == pytest.approx(day_budget - spent)
            carry_in = carry_out
        # campaign invariant: total spend strictly under the total plan
        assert result.total_spend < result.total_base_budget
        assert result.total_incremental_revenue > 0.0
        summary = result.summary()
        assert summary["n_days"] == 3 and len(summary["carryovers"]) == 3

    def test_carry_makes_later_days_richer(self, platform):
        """With carryover, day budgets are weakly increasing whenever
        every day underspends — and day 2's must strictly exceed its
        base because the strict boundary always leaves residual."""
        probe = TestTrafficReplay()._probe_weights()
        engine = ScoringEngine(LinearROI(probe), batch_size=128, cache_size=0)
        result = TrafficReplay(platform, engine).replay_days(2, 1000, budget_fraction=0.25)
        base2, budget2, _spent2, _c = result.ledger[1]
        assert budget2 > base2  # day-1 residual landed on day 2

    def test_per_day_engine_stats_are_deltas_not_cumulative(self, platform, stub_model):
        """One engine serves the whole campaign, but each day's
        ReplayResult must report that day's counters only."""
        engine = ScoringEngine(stub_model, batch_size=64, cache_size=0)
        result = TrafficReplay(platform, engine).replay_days(2, 500, budget_fraction=0.3)
        assert result.days[0].engine_stats["requests"] == 500
        assert result.days[1].engine_stats["requests"] == 500  # not 1000
        assert engine.stats["requests"] == 1000  # the engine itself is cumulative

    def test_invalid_n_days(self, platform, stub_model):
        engine = ScoringEngine(stub_model, batch_size=8)
        with pytest.raises(ValueError, match="n_days"):
            TrafficReplay(platform, engine).replay_days(0, 500)


# ---------------------------------------------------------------------------
# BudgetPacer
# ---------------------------------------------------------------------------
class TestBudgetPacer:
    def test_zero_budget_admits_nobody(self, rng):
        pacer = BudgetPacer(0.0, horizon=100)
        admits = [pacer.offer(s, 0.3) for s in rng.random(100)]
        assert not any(admits)
        assert pacer.spent == 0.0

    def test_nonpositive_cost_rejected(self):
        pacer = BudgetPacer(10.0, horizon=10)
        with pytest.raises(ValueError, match="cost"):
            pacer.offer(0.5, 0.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="budget"):
            BudgetPacer(-1.0, horizon=10)
        with pytest.raises(ValueError, match="budget"):
            BudgetPacer(float("nan"), horizon=10)
        with pytest.raises(ValueError, match="horizon"):
            BudgetPacer(1.0, horizon=0)

    def test_paces_tiny_cost_traffic(self, rng):
        """The threshold fit is cost-scale independent (relative gap)."""
        n = 2000
        costs = np.full(n, 2e-5)
        budget = 0.3 * float(np.sum(costs))
        pacer = BudgetPacer(budget, horizon=n)
        for s in rng.random(n):
            pacer.offer(float(s), 2e-5)
        assert pacer.spent <= budget + 1e-12
        assert pacer.spent > 0.8 * budget  # threshold tracked, not arbitrary

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        budget_frac=st.floats(min_value=0.0, max_value=1.2),
        n=st.integers(min_value=1, max_value=800),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_overspends_property(self, seed, budget_frac, n):
        """Hard invariant: spend <= budget for any stream and budget."""
        gen = np.random.default_rng(seed)
        scores = gen.random(n)
        costs = gen.random(n) * 0.5 + 0.05
        budget = budget_frac * float(np.sum(costs))
        pacer = BudgetPacer(budget, horizon=n, window=64, refresh_every=16, warmup=16)
        for s, c in zip(scores, costs):
            pacer.offer(float(s), float(c))
        assert pacer.spent <= budget + 1e-9
        assert pacer.n_admitted <= n

    def test_paces_instead_of_front_loading(self, rng):
        """Spend at mid-day stays near half the budget, not all of it."""
        n = 4000
        scores = rng.random(n)
        costs = np.full(n, 0.3)
        budget = 0.3 * float(np.sum(costs))
        pacer = BudgetPacer(budget, horizon=n)
        half_spend = None
        for k, (s, c) in enumerate(zip(scores, costs)):
            pacer.offer(float(s), float(c))
            if k == n // 2:
                half_spend = pacer.spent
        assert 0.35 * budget < half_spend < 0.65 * budget
        assert pacer.spent > 0.9 * budget  # and the budget does get used

    def test_short_horizon_still_engages_threshold(self, rng):
        """Default warmup is capped so tiny days are not score-blind."""
        n = 100
        pacer = BudgetPacer(5.0, horizon=n, refresh_every=8, window=32)
        assert pacer.warmup == n // 4
        for s in rng.random(n):
            pacer.offer(float(s), 0.3)
        assert pacer.history  # the threshold refresh actually ran

    def test_roi_floor_activates_with_outcomes(self, rng):
        pacer = BudgetPacer(
            1e9, horizon=2000, warmup=10, refresh_every=10, min_arm_outcomes=20
        )
        # profitable traffic: treated users realise revenue ~70% of cost
        for _ in range(300):
            treated = rng.random() < 0.5
            y_c = float(rng.random() < 0.8) if treated else 0.0
            y_r = float(rng.random() < 0.55) if treated else 0.0
            pacer.observe_outcome(int(treated), y_r, y_c)
            pacer.offer(float(rng.random()), 0.3)
        assert pacer.roi_floor_ > 0.0
        assert pacer.threshold_ >= pacer.roi_floor_

    def test_roi_floor_inactive_when_tau_c_not_positive(self, rng):
        """Zero realised cost violates Assumption 4: the floor must stay off."""
        pacer = BudgetPacer(
            1e9, horizon=1000, warmup=10, refresh_every=10, min_arm_outcomes=20
        )
        admitted = 0
        for _ in range(500):
            treated = rng.random() < 0.5
            y_r = float(treated and rng.random() < 0.6)
            pacer.observe_outcome(int(treated), y_r, 0.0)  # never any cost
            admitted += pacer.offer(float(rng.random()), 0.3)
        assert pacer.roi_floor_ == 0.0
        assert admitted > 400  # a degenerate floor would shut admission off

    def test_custom_curve_respected(self, rng):
        """A back-loaded curve keeps early spend near zero."""
        n = 2000
        pacer = BudgetPacer(
            100.0,
            horizon=n,
            target_curve=lambda p: p**3,
            curve_slack=0.01,
            warmup=16,
        )
        for _ in range(n // 4):
            pacer.offer(float(rng.random()), 0.3)
        # curve(0.25) ~ 1.6% of budget (+1% slack)
        assert pacer.spent <= 100.0 * (0.25**3 + 0.011) + 0.3

    def test_warmup_boundary_gates_the_fitting_arrival(self):
        """Regression: the arrival that completes warmup triggers the
        first threshold fit and must already be gated by it — the
        off-by-one (`_refresh` at >= warmup, gate at > warmup) ignored
        the freshly fitted threshold for exactly that arrival."""
        pacer = BudgetPacer(
            10.0,
            horizon=100,
            warmup=4,
            refresh_every=1,
            lookahead=10,
            curve_slack=0.5,
            use_roi_floor=False,
        )
        assert pacer.warmup == 4
        # warmup arrivals are curve-gated only: all admitted, spend runs
        # far ahead of the uniform curve
        assert all(pacer.offer(0.9, 1.0) for _ in range(3))
        assert pacer.spent == 3.0
        # arrival 4 completes warmup; the fit sees spend ahead of the
        # curve and sets a prohibitive threshold — this very arrival
        # must be rejected (the curve cap alone would still admit it)
        assert pacer.offer(0.9, 1.0) is False
        assert pacer.history and pacer.history[0][0] == 4  # fit happened at n_seen=4
        assert pacer.threshold_ > 0.9
        assert pacer.spent == 3.0

    def test_ahead_of_curve_lockout_cannot_be_pierced(self):
        """Regression: the ahead-of-curve lockout used to set
        ``threshold_ = max(window scores) + 1``, so a later arrival
        scoring above the window max pierced the lockout and spent
        while the pacer believed it was admitting nothing.  The
        lockout must be unconditional (``inf``)."""
        pacer = BudgetPacer(
            100.0,
            horizon=100,
            warmup=4,
            refresh_every=64,  # no re-fit between the arrivals below
            lookahead=4,
            curve_slack=0.5,  # the curve cap alone would still admit
            window=32,
            use_roi_floor=False,
        )
        # warmup arrivals are curve-gated only: spend runs far ahead of
        # the uniform curve's lookahead target
        assert all(pacer.offer(0.5, 5.0) for _ in range(3))
        assert pacer.spent == 15.0
        # arrival 4 completes warmup; the fit sees spend ahead of the
        # curve -> lockout engages and gates this very arrival
        assert pacer.offer(0.5, 5.0) is False
        assert pacer.threshold_ == np.inf
        # the piercing arrival: scores above the window max (old
        # threshold was max + 1 = 1.5) with no refresh in between
        assert pacer.offer(2.0, 5.0) is False
        assert pacer.spent == 15.0  # nothing leaked through the lockout

    def test_adapts_to_intra_day_score_drift(self, rng):
        """Non-stationary arrivals: the score distribution jumps mid-day
        and the sliding window must re-fit the threshold while both
        pacing invariants keep holding."""
        n = 4000
        budget = 800.0  # constant unit costs -> ~20% of arrivals affordable
        curve_slack = 0.05
        pacer = BudgetPacer(
            budget,
            horizon=n,
            window=512,
            refresh_every=64,
            warmup=128,
            lookahead=256,
            curve_slack=curve_slack,
            use_roi_floor=False,
        )
        scores = np.concatenate(
            [rng.uniform(0.0, 1.0, n // 2), rng.uniform(2.0, 3.0, n // 2)]
        )
        for s in scores:
            pacer.offer(float(s), 1.0)
        # invariant 1: never overspends the budget
        assert pacer.spent <= budget + 1e-9
        # invariant 2: every refresh point sat on or under curve + slack
        for n_seen, spent, _thr in pacer.history:
            cap = budget * min(1.0, n_seen / n + curve_slack)
            assert spent <= cap + 1e-9
        # the threshold re-adapted to the drifted distribution: late
        # fits sit in the new score range, early fits in the old one
        early = [thr for seen, _s, thr in pacer.history if seen <= n // 2]
        late = [thr for seen, _s, thr in pacer.history if seen > n // 2 + 512]
        assert early and late
        assert np.median(late) > np.median(early) + 1.0
        assert np.median(early) < 1.0  # fitted inside the pre-drift range
        assert np.median(late) > 2.0  # fitted inside the post-drift range
        # and the budget keeps being used after the drift, not starved
        assert pacer.spent > 0.8 * budget


# ---------------------------------------------------------------------------
# TrafficReplay end-to-end (the ISSUE acceptance scenario)
# ---------------------------------------------------------------------------
class TestTrafficReplay:
    def _probe_weights(self):
        from repro.data import criteo_uplift_v2

        probe = criteo_uplift_v2(4000, random_state=5)
        return np.linalg.lstsq(probe.x, probe.roi, rcond=None)[0]

    def test_10k_day_matches_offline_greedy(self, platform):
        """Never overspends and reaches >= 90% of the oracle's revenue."""
        engine = ScoringEngine(
            LinearROI(self._probe_weights()), batch_size=256, cache_size=0
        )
        replay = TrafficReplay(platform, engine)
        result = replay.replay_day(10_000, budget_fraction=0.3)
        assert result.spend <= result.budget + 1e-9
        assert result.revenue_ratio >= 0.9
        # spend trajectory tracks the uniform curve at mid-day
        mid = result.spend_trajectory[result.n_events // 2]
        assert 0.35 * result.budget < mid < 0.65 * result.budget

    def test_online_equals_oracle_scores(self, platform):
        """The oracle is computed on the very scores served online."""
        engine = ScoringEngine(
            LinearROI(self._probe_weights()), batch_size=64, cache_size=0
        )
        result = TrafficReplay(platform, engine).replay_day(
            1500, budget_fraction=0.25
        )
        assert result.n_events == 1500
        assert result.oracle_spend <= result.budget + 1e-9
        assert 0.0 < result.revenue_ratio <= 1.0 + 1e-9

    def test_single_user_batches(self, platform):
        """batch_size=1 (pure synchronous serving) still works end-to-end."""
        engine = ScoringEngine(
            LinearROI(self._probe_weights()), batch_size=1, cache_size=0
        )
        result = TrafficReplay(platform, engine).replay_day(400)
        assert result.n_events == 400
        assert result.spend <= result.budget + 1e-9
        assert result.engine_stats["model_calls"] == 400

    def test_zero_budget_day(self, platform):
        engine = ScoringEngine(LinearROI(self._probe_weights()), batch_size=32)
        result = TrafficReplay(platform, engine).replay_day(300, budget=0.0)
        assert result.n_treated == 0
        assert result.spend == 0.0

    def test_feedback_populates_roi_floor(self, platform):
        engine = ScoringEngine(
            LinearROI(self._probe_weights()), batch_size=64, cache_size=0
        )
        replay = TrafficReplay(platform, engine, feedback=True, random_state=7)
        result = replay.replay_day(
            3000,
            budget_fraction=0.3,
            pacer_params=dict(min_arm_outcomes=30),
        )
        assert result.spend <= result.budget + 1e-9
        # the floor engaged at some refresh: recorded thresholds reach it
        assert any(thr > 0 for _n, _s, thr in result.pacing_history)


# ---------------------------------------------------------------------------
# OutcomeLedger folding (regression: streaming moments must survive
# pickle round-trips and Snapshot.merge-style folding exactly)
# ---------------------------------------------------------------------------


class TestOutcomeLedgerFolding:
    @staticmethod
    def _filled(seed, n):
        from repro.serving.registry import OutcomeLedger

        gen = np.random.default_rng(seed)
        ledger = OutcomeLedger()
        rows = list(zip(gen.random(n) < 0.5, gen.random(n), gen.random(n) * 0.5))
        for t, r, c in rows:
            ledger.record(bool(t), float(r), float(c))
        return ledger, rows

    def test_pickle_roundtrip_exact_moments(self):
        import pickle

        ledger, _ = self._filled(0, 75)
        before_net = ledger.moments("net")
        before_rev = ledger.moments("revenue")
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.moments("net") == before_net
        assert clone.moments("revenue") == before_rev
        assert (clone.n, clone.n_treated) == (ledger.n, ledger.n_treated)
        assert (clone.spend, clone.revenue) == (ledger.spend, ledger.revenue)
        # folding a pickled replica back in doubles every raw sum
        ledger.merge(clone)
        assert ledger.n == 150
        assert ledger.moments("net")[0] == before_net[0]

    def test_merge_equals_sequential_recording(self):
        from repro.serving.registry import OutcomeLedger

        a, rows_a = self._filled(1, 40)
        b, rows_b = self._filled(2, 60)
        merged = a.merge(b)
        assert merged is a
        sequential = OutcomeLedger()
        for t, r, c in rows_a + rows_b:
            sequential.record(bool(t), float(r), float(c))
        # raw sums fold as block additions, so the only divergence from
        # row-by-row accumulation is float summation order (~1 ULP)
        for metric in ("net", "revenue"):
            got, want = a.moments(metric), sequential.moments(metric)
            assert got[-1] == want[-1]  # counts are exact
            assert got[:-1] == pytest.approx(want[:-1], rel=1e-12)
        assert a.n == sequential.n and a.n_treated == sequential.n_treated

    def test_merge_commutes(self):
        a1, _ = self._filled(3, 30)
        b1, _ = self._filled(4, 50)
        a2, _ = self._filled(3, 30)
        b2, _ = self._filled(4, 50)
        assert a1.merge(b1).moments("net") == b2.merge(a2).moments("net")

    def test_merge_empty_is_identity(self):
        from repro.serving.registry import OutcomeLedger

        a, _ = self._filled(5, 20)
        before = a.moments("net")
        a.merge(OutcomeLedger())
        assert a.moments("net") == before


# ---------------------------------------------------------------------------
# Day-ahead planning (MultiDayPacer.plan_next_day + EmpiricalCurve)
# ---------------------------------------------------------------------------


class TestDayAheadPlanning:
    @staticmethod
    def _run_day(multi, n=600, seed=0):
        gen = np.random.default_rng(seed)
        pacer = multi.start_day()
        for _ in range(n):
            pacer.offer(float(gen.random()), 0.2 + 0.3 * float(gen.random()))
        multi.end_day()
        return pacer

    def test_plan_sizes_from_observed_traffic(self):
        from repro.serving.pacing import MultiDayPacer

        multi = MultiDayPacer(
            daily_budget=40.0, horizon=600, pacer_params={"refresh_every": 50}
        )
        day1 = self._run_day(multi)
        plan = multi.plan_next_day(0.3)
        assert plan.base_budget == pytest.approx(0.3 * day1.offered_cost)
        assert plan.horizon == 600
        curve = plan.target_curve
        assert curve is not None
        assert curve(0.0) == 0.0 and curve(1.0) == 1.0
        # demand arrives uniformly here, so the empirical curve is
        # close to the identity in the interior
        assert curve(0.5) == pytest.approx(0.5, abs=0.1)

    def test_planned_day_runs_with_planned_curve(self):
        import pickle

        from repro.serving.pacing import MultiDayPacer

        multi = MultiDayPacer(
            daily_budget=40.0, horizon=600, pacer_params={"refresh_every": 50}
        )
        self._run_day(multi, seed=1)
        plan = multi.plan_next_day(0.3)
        pacer = multi.start_day(plan.base_budget, plan.horizon, plan.target_curve)
        assert pacer.budget == pytest.approx(plan.base_budget + multi.days[0].budget
                                             - multi.days[0].spent)
        pickle.loads(pickle.dumps(pacer))  # planned pacers must still ship
        gen = np.random.default_rng(2)
        for _ in range(600):
            pacer.offer(float(gen.random()), 0.25)
        assert pacer.spent <= pacer.budget
        multi.end_day()

    def test_plan_without_completed_day_rejected(self):
        from repro.serving.pacing import MultiDayPacer

        multi = MultiDayPacer(daily_budget=10.0, horizon=100)
        with pytest.raises(RuntimeError, match="completed day"):
            multi.plan_next_day(0.3)
        multi.start_day()
        with pytest.raises(RuntimeError, match="completed day"):
            multi.plan_next_day(0.3)

    def test_offered_cost_tracks_all_offers(self):
        from repro.serving.pacing import BudgetPacer

        pacer = BudgetPacer(5.0, 100, refresh_every=10)
        gen = np.random.default_rng(3)
        costs = 0.1 + 0.2 * gen.random(100)
        for c in costs:
            pacer.offer(float(gen.random()), float(c))
        # offered_cost counts admitted AND skipped offers
        assert pacer.offered_cost == pytest.approx(float(costs.sum()))
        assert pacer.offered_trace  # refreshes recorded the demand shape
        n_last, c_last = pacer.offered_trace[-1]
        assert n_last <= 100 and c_last <= pacer.offered_cost

    def test_empirical_curve_validation(self):
        from repro.serving.pacing import EmpiricalCurve

        with pytest.raises(ValueError, match="span"):
            EmpiricalCurve(np.array([0.0, 0.5]), np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="non-decreasing"):
            EmpiricalCurve(np.array([0.0, 0.6, 1.0]), np.array([0.0, 1.2, 1.0]))
        with pytest.raises(ValueError, match="non-empty"):
            EmpiricalCurve.from_trace([], 0, 0.0)
