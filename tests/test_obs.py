"""Tests for the observability layer (``repro.obs``) and its hot-path
instrumentation of the serving/runtime stack."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.ab.platform import Platform
from repro.ab.replay import PolicyReplay
from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Snapshot,
    from_json,
    parse_prometheus,
    prometheus_name,
    to_json,
    to_prometheus,
)
from repro.obs.trajectory import (
    BENCH_SCHEMA,
    append_run,
    bench_path,
    diff_runs,
    latest_run,
    load,
    main as trajectory_main,
    validate,
)
from repro.runtime import ManualClock, SerialBackend, ThreadBackend
from repro.serving.engine import ScoringEngine
from repro.serving.pacing import BudgetPacer
from repro.serving.simulator import TrafficReplay

REPO_ROOT = Path(__file__).resolve().parent.parent


class LinearROI:
    """Deterministic stub scorer: clipped linear projection of x."""

    def __init__(self, w: np.ndarray) -> None:
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.clip(x @ self.w, 1e-6, 1.0 - 1e-6)


@pytest.fixture
def stub_model():
    rng = np.random.default_rng(3)
    return LinearROI(rng.normal(size=12) * 0.05)


# ---------------------------------------------------------------------------
# live metrics
# ---------------------------------------------------------------------------
class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(4.5)
        assert c.value == 5.5

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)

    def test_delta_and_merge(self):
        a, b = Counter("c"), Counter("c")
        a.inc(3)
        b.inc(7)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.value == 10
        assert b.snapshot().delta(a.snapshot()).value == 4

    def test_delta_backwards_raises(self):
        a, b = Counter("c"), Counter("c")
        a.inc(3)
        with pytest.raises(ValueError, match="went backwards"):
            b.snapshot().delta(a.snapshot())


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_merge_sums_across_shards(self):
        # queue depths and spends add across shards — merge is a sum
        a, b = Gauge("g"), Gauge("g")
        a.set(4)
        b.set(9)
        assert a.snapshot().merge(b.snapshot()).value == 13

    def test_delta_is_signed(self):
        g = Gauge("g")
        g.set(10)
        before = g.snapshot()
        g.set(4)
        assert g.snapshot().delta(before).value == -6


class TestHistogram:
    def test_quantile_error_bound(self):
        """Every quantile is within relative_error of the exact order
        statistic — the sketch's headline guarantee."""
        rng = np.random.default_rng(0)
        values = np.exp(rng.normal(loc=-5.0, scale=2.0, size=5000))
        h = Histogram("h", relative_error=0.01)
        for v in values:
            h.record(v)
        ordered = np.sort(values)
        snap = h.snapshot()
        assert snap.relative_error <= 0.01 + 1e-12
        for q in (0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            rank = max(1, min(int(math.ceil(q * len(values))), len(values)))
            exact = ordered[rank - 1]
            approx = snap.quantile(q)
            assert abs(approx - exact) <= 0.01 * exact + 1e-15

    def test_memory_bounded_by_range_not_count(self):
        h = Histogram("h")
        for _ in range(10_000):
            h.record(0.5)  # one bucket no matter how many records
        assert len(h.snapshot().buckets) == 1
        assert h.count == 10_000

    def test_zero_bucket(self):
        h = Histogram("h", min_trackable=1e-9)
        h.record(0.0)
        h.record(1e-12)
        snap = h.snapshot()
        assert snap.zero_count == 2
        assert snap.quantile(0.5) == 0.0

    def test_rejects_negative_and_nan(self):
        h = Histogram("h")
        with pytest.raises(ValueError, match="non-negative"):
            h.record(-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            h.record(float("nan"))

    def test_exact_count_sum_min_max(self):
        h = Histogram("h")
        for v in (0.5, 1.5, 2.5):
            h.record(v)
        snap = h.snapshot()
        assert snap.count == 3
        assert snap.sum == pytest.approx(4.5)
        assert snap.min == 0.5
        assert snap.max == 2.5
        assert snap.mean == pytest.approx(1.5)

    def test_merge_equals_recording_everything_once(self):
        rng = np.random.default_rng(1)
        va, vb = rng.exponential(size=400), rng.exponential(size=300)
        a, b, both = Histogram("h"), Histogram("h"), Histogram("h")
        for v in va:
            a.record(v)
            both.record(v)
        for v in vb:
            b.record(v)
            both.record(v)
        merged = a.snapshot().merge(b.snapshot())
        reference = both.snapshot()
        assert merged.count == reference.count
        assert merged.sum == pytest.approx(reference.sum)
        assert dict(merged.buckets) == dict(reference.buckets)
        for q in (0.1, 0.5, 0.9):
            assert merged.quantile(q) == reference.quantile(q)

    def test_merge_commutative(self):
        a, b = Histogram("h"), Histogram("h")
        a.record(0.1)
        b.record(3.0)
        ab = a.snapshot().merge(b.snapshot())
        ba = b.snapshot().merge(a.snapshot())
        assert ab == ba

    def test_merge_gamma_mismatch_raises(self):
        a = Histogram("h", relative_error=0.01).snapshot()
        b = Histogram("h", relative_error=0.05).snapshot()
        with pytest.raises(ValueError, match="gamma"):
            a.merge(b)

    def test_delta_is_the_window_distribution(self):
        h = Histogram("h")
        for v in (0.1, 0.2, 0.3):
            h.record(v)
        before = h.snapshot()
        for v in (5.0, 6.0, 7.0, 8.0):
            h.record(v)
        window = h.snapshot().delta(before)
        assert window.count == 4
        assert window.sum == pytest.approx(26.0)
        # the window's median is a window value, not a pre-window one
        assert window.quantile(0.5) == pytest.approx(6.0, rel=0.02)

    def test_delta_backwards_raises(self):
        a, b = Histogram("h"), Histogram("h")
        a.record(1.0)
        with pytest.raises(ValueError, match="went backwards"):
            b.snapshot().delta(a.snapshot())


class TestSnapshot:
    def _registry(self, c=3.0, g=7.0, hvals=(0.1, 0.9)):
        reg = MetricsRegistry()
        reg.counter("c").inc(c)
        reg.gauge("g").set(g)
        h = reg.histogram("h")
        for v in hvals:
            h.record(v)
        return reg

    def test_mapping_interface(self):
        snap = self._registry().snapshot()
        assert set(snap) == {"c", "g", "h"}
        assert len(snap) == 3
        assert snap["c"].value == 3.0

    def test_merge_unions_and_folds(self):
        a = MetricsRegistry()
        a.counter("shared").inc(2)
        a.counter("only_a").inc(1)
        b = MetricsRegistry()
        b.counter("shared").inc(5)
        b.gauge("only_b").set(9)
        merged = a.snapshot().merge(b.snapshot())
        assert merged["shared"].value == 7
        assert merged["only_a"].value == 1
        assert merged["only_b"].value == 9

    def test_merge_commutative_whole_registry(self):
        a = self._registry(c=1, g=2, hvals=(0.5,)).snapshot()
        b = self._registry(c=9, g=-4, hvals=(1.5, 2.5)).snapshot()
        assert a.merge(b).to_dict() == b.merge(a).to_dict()

    def test_merge_kind_clash_raises(self):
        a = Snapshot({"m": Counter("m").snapshot()})
        b = Snapshot({"m": Gauge("m").snapshot()})
        with pytest.raises(ValueError, match="counter on one side"):
            a.merge(b)

    def test_delta_absent_from_older_passes_through(self):
        reg = self._registry()
        before = reg.snapshot()
        reg.counter("c").inc(10)
        reg.counter("new_metric").inc(2)
        d = reg.snapshot().delta(before)
        assert d["c"].value == 10
        assert d["new_metric"].value == 2


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("m")

    def test_adopt_registers_and_replaces(self):
        reg = MetricsRegistry()
        first = reg.adopt(Counter("c"))
        first.inc(5)
        second = reg.adopt(Counter("c"))  # re-constructed component
        assert reg.get("c") is second
        assert reg.snapshot()["c"].value == 0.0
        assert "c" in reg and len(reg) == 1


class TestNullRegistry:
    def test_hands_out_shared_noops(self):
        c = NULL_REGISTRY.counter("anything")
        assert c is NULL_REGISTRY.counter("something_else")
        c.inc(100)
        assert c.value == 0.0
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").record(1.0)
        assert len(NULL_REGISTRY.snapshot()) == 0
        assert NULL_REGISTRY.names() == []

    def test_adopt_returns_metric_uncollected(self):
        c = Counter("real")
        assert NULL_REGISTRY.adopt(c) is c
        c.inc()
        assert c.value == 1.0  # the component's metric stays real
        assert "real" not in NULL_REGISTRY

    def test_span_is_noop(self):
        with NULL_REGISTRY.span("op"):
            pass
        assert len(NULL_REGISTRY.snapshot()) == 0


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
class TestSpan:
    def test_manual_clock_exact_durations(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        with reg.span("flush", clock=clock):
            clock.advance(0.005)
        with reg.span("flush", clock=clock):
            clock.advance(0.007)
        snap = reg.snapshot()["span.flush.seconds"]
        assert snap.count == 2
        assert snap.sum == pytest.approx(0.012)
        assert snap.min == pytest.approx(0.005)
        assert snap.max == pytest.approx(0.007)

    def test_exception_still_records(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        with pytest.raises(RuntimeError):
            with reg.span("boom", clock=clock):
                clock.advance(1.0)
                raise RuntimeError("body failed")
        snap = reg.snapshot()["span.boom.seconds"]
        assert snap.count == 1
        assert snap.max == pytest.approx(1.0)

    def test_wall_clock_fallback(self):
        reg = MetricsRegistry()
        with reg.span("op"):
            pass
        assert reg.snapshot()["span.op.seconds"].count == 1


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
def _full_snapshot() -> Snapshot:
    reg = MetricsRegistry()
    reg.counter("engine.requests").inc(42)
    reg.gauge("engine.queue_depth").set(7)
    h = reg.histogram("engine.latency_seconds")
    for v in (0.0, 0.001, 0.004, 0.004, 2.5):
        h.record(v)
    return reg.snapshot()


class TestJsonExport:
    def test_round_trip_lossless(self):
        snap = _full_snapshot()
        restored = from_json(to_json(snap))
        assert restored.to_dict() == snap.to_dict()
        # quantiles survive serialisation exactly
        assert restored["engine.latency_seconds"].quantile(0.5) == snap[
            "engine.latency_seconds"
        ].quantile(0.5)

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError, match="repro.obs.snapshot/1"):
            from_json(json.dumps({"schema": "other/1", "metrics": {}}))

    def test_empty_histogram_round_trips(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        restored = from_json(to_json(reg.snapshot()))
        assert restored["h"].count == 0


class TestPrometheusExport:
    def test_name_sanitisation(self):
        assert prometheus_name("engine.flush.batch_full") == "engine_flush_batch_full"
        assert prometheus_name("9lives") == "_9lives"

    def test_format_conformance_round_trip(self):
        """The exporter's output parses under a strict v0.0.4 reader and
        the numbers survive: the conformance test the ISSUE asks for."""
        snap = _full_snapshot()
        families = parse_prometheus(to_prometheus(snap))
        assert families["engine_requests_total"] == {"type": "counter", "value": 42.0}
        assert families["engine_queue_depth"] == {"type": "gauge", "value": 7.0}
        hist = families["engine_latency_seconds"]
        assert hist["type"] == "histogram"
        assert hist["count"] == 5.0
        assert hist["sum"] == pytest.approx(2.509)
        # buckets are cumulative, monotone, and end at +Inf == count
        cum = [c for _le, c in hist["buckets"]]
        assert cum == sorted(cum)
        assert hist["buckets"][-1] == ("+Inf", 5.0)
        assert hist["buckets"][0][0] == "0.0" and hist["buckets"][0][1] == 1.0
        # upper bounds really bound: re-accumulating bucket counts
        # against the snapshot's buckets gives the same totals
        assert cum[-1] == hist["count"]

    def test_counter_total_suffix_not_doubled(self):
        reg = MetricsRegistry()
        reg.counter("ops_total").inc(3)
        text = to_prometheus(reg.snapshot())
        assert "ops_total_total" not in text
        assert "ops_total 3.0" in text

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError, match="no preceding TYPE"):
            parse_prometheus("orphan_sample 1.0\n")
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus("# TYPE x counter\nx_total not-a-number extra\n")
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus("# TYPE x summary\n")


# ---------------------------------------------------------------------------
# benchmark trajectory
# ---------------------------------------------------------------------------
def _metric(value, direction="higher", gated=True, **kw):
    return {"value": value, "direction": direction, "gated": gated, **kw}


def _run(metrics, mode="smoke"):
    return {
        "recorded_at": "2026-08-08T00:00:00Z",
        "mode": mode,
        "commit": None,
        "metrics": {
            name: {"unit": "", **m} for name, m in metrics.items()
        },
        "snapshot": None,
    }


class TestTrajectorySchema:
    def test_append_then_load_round_trip(self, tmp_path):
        path = bench_path(tmp_path, "serving")
        run = append_run(
            path, "serving", {"rps": {"value": 123.4, "unit": "req/s"}}, mode="smoke"
        )
        assert run["metrics"]["rps"]["direction"] == "higher"  # default filled
        assert run["metrics"]["rps"]["gated"] is False
        doc = load(path)
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["area"] == "serving"
        append_run(path, "serving", {"rps": {"value": 150.0}}, mode="full")
        doc = load(path)
        assert len(doc["runs"]) == 2
        assert latest_run(doc, "smoke")["metrics"]["rps"]["value"] == 123.4
        assert latest_run(doc, "full")["metrics"]["rps"]["value"] == 150.0
        assert latest_run({"runs": doc["runs"]}, "smoke") is not None

    def test_append_wrong_area_raises(self, tmp_path):
        path = bench_path(tmp_path, "serving")
        append_run(path, "serving", {"m": {"value": 1}}, mode="smoke")
        with pytest.raises(ValueError, match="records area"):
            append_run(path, "runtime", {"m": {"value": 1}}, mode="smoke")

    def test_validate_rejects_bad_documents(self):
        good = {"schema": BENCH_SCHEMA, "area": "a", "runs": [_run({"m": _metric(1.0)})]}
        validate(good)
        for mutate, pattern in [
            (lambda d: d.update(schema="x/9"), "schema"),
            (lambda d: d.update(area=""), "area"),
            (lambda d: d.update(runs=[]), "runs"),
            (lambda d: d["runs"][0].update(mode="quick"), "mode"),
            (lambda d: d["runs"][0]["metrics"]["m"].update(direction="up"), "direction"),
            (lambda d: d["runs"][0]["metrics"]["m"].update(value=True), "value"),
            (lambda d: d["runs"][0]["metrics"]["m"].update(gated="yes"), "gated"),
            (lambda d: d["runs"][0]["metrics"]["m"].update(tolerance=-0.1), "tolerance"),
        ]:
            doc = json.loads(json.dumps(good))
            mutate(doc)
            with pytest.raises(ValueError, match=pattern):
                validate(doc)

    def test_committed_trajectory_files_are_valid(self):
        """The repo-root BENCH files the CI diff runs against must exist
        and pass schema validation (the ISSUE's acceptance bar)."""
        for area in ("serving", "runtime"):
            path = bench_path(REPO_ROOT, area)
            assert path.exists(), f"missing committed trajectory {path}"
            doc = load(path)
            assert doc["area"] == area
            # at least one smoke run to gate CI pushes against
            assert latest_run(doc, "smoke") is not None
            # something is actually gated, else the diff guards nothing
            gated = [
                name
                for run in doc["runs"]
                for name, m in run["metrics"].items()
                if m["gated"]
            ]
            assert gated, f"{path} has no gated metrics"


class TestTrajectoryDiff:
    def test_within_tolerance_passes(self):
        base = _run({"rps": _metric(100.0)})
        new = _run({"rps": _metric(85.0)})  # -15% within the 20% band
        assert diff_runs(base, new) == []

    def test_higher_direction_regression(self):
        base = _run({"rps": _metric(100.0)})
        new = _run({"rps": _metric(70.0)})  # -30%
        regs = diff_runs(base, new, area="serving")
        assert len(regs) == 1
        assert regs[0].metric == "rps"
        assert "serving" in str(regs[0])

    def test_lower_direction_regression(self):
        base = _run({"p95": _metric(10.0, direction="lower")})
        assert diff_runs(base, _run({"p95": _metric(11.0, direction="lower")})) == []
        regs = diff_runs(base, _run({"p95": _metric(13.0, direction="lower")}))
        assert len(regs) == 1

    def test_ungated_metrics_never_fail(self):
        base = _run({"rps": _metric(100.0, gated=False)})
        assert diff_runs(base, _run({"rps": _metric(1.0, gated=False)})) == []

    def test_missing_gated_metric_is_a_regression(self):
        base = _run({"rps": _metric(100.0)})
        regs = diff_runs(base, _run({"other": _metric(1.0)}))
        assert len(regs) == 1 and math.isnan(regs[0].new)

    def test_per_metric_tolerance_overrides_default(self):
        base = _run({"ratio": _metric(1.0, tolerance=0.01)})
        regs = diff_runs(base, _run({"ratio": _metric(0.95)}))
        assert len(regs) == 1  # -5% fails the metric's own 1% band

    def test_improvements_never_fail(self):
        base = _run({"rps": _metric(100.0), "p95": _metric(10.0, direction="lower")})
        new = _run({"rps": _metric(500.0), "p95": _metric(1.0, direction="lower")})
        assert diff_runs(base, new) == []


class TestTrajectoryCli:
    def _write(self, root, area, value, mode="smoke"):
        append_run(
            bench_path(root, area),
            area,
            {"m": {"value": value, "gated": True}},
            mode=mode,
        )

    def test_validate_ok_and_diff_clean(self, tmp_path, capsys):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        self._write(base, "serving", 100.0)
        self._write(new, "serving", 95.0)
        assert trajectory_main(["validate", str(bench_path(base, "serving"))]) == 0
        assert (
            trajectory_main(["diff", "--baseline", str(base), "--new", str(new)]) == 0
        )
        assert "ok" in capsys.readouterr().out

    def test_diff_fails_on_regression(self, tmp_path, capsys):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        self._write(base, "serving", 100.0)
        self._write(new, "serving", 50.0)
        assert (
            trajectory_main(["diff", "--baseline", str(base), "--new", str(new)]) == 1
        )
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_without_baseline_is_trajectory_start(self, tmp_path, capsys):
        new = tmp_path / "new"
        new.mkdir()
        self._write(new, "brand_new_area", 1.0)
        assert (
            trajectory_main(["diff", "--baseline", str(tmp_path), "--new", str(new)])
            == 0
        )
        assert "trajectory starts here" in capsys.readouterr().out

    def test_diff_empty_new_dir_fails(self, tmp_path):
        new = tmp_path / "empty"
        new.mkdir()
        assert (
            trajectory_main(["diff", "--baseline", str(tmp_path), "--new", str(new)])
            == 1
        )


# ---------------------------------------------------------------------------
# hot-path instrumentation
# ---------------------------------------------------------------------------
class TestEngineInstrumentation:
    def test_counters_flow_through_registry(self, stub_model):
        reg = MetricsRegistry()
        clock = ManualClock()
        engine = ScoringEngine(
            stub_model, batch_size=4, cache_size=16, clock=clock, metrics=reg
        )
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(10, 12))
        for row in rows:
            engine.submit(row)
        for row in rows[:5]:  # repeats: cache hits
            engine.submit(row)
        engine.flush()
        snap = reg.snapshot()
        # the registry sees the same totals the stats property renders
        for name, value in engine.stats.items():
            assert snap[f"engine.{name}"].value == value
        assert snap["engine.requests"].value == 15
        assert snap["engine.cache_hits"].value > 0
        assert snap["engine.queue_depth"].value == 0  # drained
        # the flush span recorded under the engine's own clock
        assert snap["span.engine.flush.seconds"].count == engine.stats["flushes"]

    def test_latency_histogram_matches_log(self, stub_model):
        clock = ManualClock()
        engine = ScoringEngine(
            stub_model, batch_size=8, cache_size=0, clock=clock,
            max_latency_ms=50.0,
        )
        rng = np.random.default_rng(1)
        stamps = []
        for row in rng.normal(size=(30, 12)):
            clock.advance(0.001)
            stamps.append(clock.now())
            engine.submit(row)
            engine.poll()
        engine.flush()
        # the exact per-request log: each batch of 8 (and the final 6)
        # is scored when its last row arrives
        exact = [
            batch[-1] - stamp
            for batch in (stamps[i : i + 8] for i in range(0, 30, 8))
            for stamp in batch
        ]
        hist = engine.latency_hist
        assert (hist.count, hist.min, hist.max) == (30, min(exact), max(exact))
        assert hist.sum == pytest.approx(sum(exact))
        # sketch quantile tracks the exact quantile within 1%
        q95 = float(np.quantile(exact, 0.95, method="inverted_cdf"))
        assert engine.latency_quantile(0.95) == pytest.approx(q95, rel=0.011, abs=1e-9)

    def test_latency_quantile_sees_every_request(self, stub_model):
        """Quantiles cover the engine's whole life, not a recent window:
        after 160 pairs that wait 10ms and 40 newer pairs that wait 1ms,
        the upper quartile is still 10ms."""
        clock = ManualClock()
        engine = ScoringEngine(stub_model, batch_size=2, cache_size=0, clock=clock)
        rows = np.random.default_rng(2).normal(size=(200, 2, 12))
        for i, (first, second) in enumerate(rows):
            engine.submit(first)
            clock.advance(0.010 if i < 160 else 0.001)
            engine.submit(second)  # fills the batch: waits gap and 0
        assert engine.latency_hist.count == 400
        assert engine.latency_quantile(0.75) == pytest.approx(0.010, rel=0.02)

    def test_null_registry_bit_identical(self, stub_model):
        """Scores and stats are bit-identical with observability off and
        on — the acceptance bar for the serial path."""
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(64, 12))

        def run(metrics):
            clock = ManualClock()
            engine = ScoringEngine(
                stub_model, batch_size=8, cache_size=32, clock=clock,
                metrics=metrics,
            )
            ids = []
            for row in rows:
                clock.advance(0.001)
                ids.append(engine.submit(row))
            engine.flush()
            return np.array([engine.take(i) for i in ids]), dict(engine.stats)

        scores_null, stats_null = run(None)
        scores_live, stats_live = run(MetricsRegistry())
        assert np.array_equal(scores_null, scores_live)  # bitwise
        assert stats_null == stats_live


class TestReplayInstrumentation:
    def test_replay_latency_sketch_accounting(self, stub_model):
        """Each day's ``latency_hist`` is that day's delta of the
        engine's sketch: it counts every scored request of the day."""
        platform = Platform(dataset="criteo", random_state=0)
        engine = ScoringEngine(
            stub_model, batch_size=16, cache_size=0, clock=ManualClock(),
            max_latency_ms=30.0,
        )
        replay = TrafficReplay(platform, engine, interarrival_s=0.001)
        r1 = replay.replay_day(300, budget_fraction=0.3)
        r2 = replay.replay_day(200, day=2, budget_fraction=0.3)
        assert (r1.latency_hist.count, r2.latency_hist.count) == (300, 200)
        assert engine.latency_hist.count == 500
        assert "latencies_dropped" not in r1.summary()
        assert 0.0 <= r2.latency_quantile(0.95) <= 0.030 * 1.02

    def test_metrics_delta_per_day(self, stub_model):
        platform = Platform(dataset="criteo", random_state=0)
        reg = MetricsRegistry()
        engine = ScoringEngine(
            stub_model, batch_size=32, cache_size=0, clock=ManualClock(),
            metrics=reg,
        )
        replay = TrafficReplay(platform, engine, interarrival_s=0.001)
        r1 = replay.replay_day(120, budget_fraction=0.3)
        r2 = replay.replay_day(80, day=2, budget_fraction=0.3)
        assert r1.metrics_delta["engine.requests"]["value"] == 120
        assert r2.metrics_delta["engine.requests"]["value"] == 80
        assert r1.engine_stats["requests"] == 120  # stats delta agrees

    def test_uninstrumented_replay_has_no_delta(self, stub_model):
        platform = Platform(dataset="criteo", random_state=0)
        engine = ScoringEngine(stub_model, batch_size=32, cache_size=0)
        result = TrafficReplay(platform, engine).replay_day(100, budget_fraction=0.3)
        assert result.metrics_delta is None

    def test_policy_replay_counters_and_deltas(self):
        platform = Platform(dataset="criteo", random_state=0)
        rng = np.random.default_rng(0)
        w = rng.normal(size=12)
        reg = MetricsRegistry()
        replay = PolicyReplay(
            platform,
            policy_sets={
                "a": {"model": lambda x: x @ w},
                "b": {"model": lambda x: -(x @ w)},
            },
            random_state=0,
            metrics=reg,
        )
        result = replay.run(n_days=2, cohort_size=400)
        assert reg.snapshot()["replay.policy.days"].value == 2
        assert reg.snapshot()["replay.policy.users"].value == 800
        assert reg.snapshot()["replay.policy.scorings"].value == 4  # 2 sets x 2 days
        assert len(result.metrics_deltas) == 2
        for day_delta in result.metrics_deltas:
            assert day_delta["replay.policy.days"]["value"] == 1
            assert day_delta["replay.policy.users"]["value"] == 400


class TestComponentInstrumentation:
    def test_pacer_counters_and_gauges(self):
        reg = MetricsRegistry()
        pacer = BudgetPacer(10.0, 100, metrics=reg)
        rng = np.random.default_rng(0)
        admits = sum(pacer.offer(float(rng.random()), 0.5) for _ in range(50))
        snap = reg.snapshot()
        assert snap["pacer.offers"].value == 50
        assert snap["pacer.admits"].value == admits
        assert snap["pacer.refreshes"].value >= 1
        assert snap["pacer.spend"].value == pytest.approx(pacer.spent)

    def test_promoter_lifecycle_counters(self):
        from repro.serving.promotion import AutoPromoter
        from repro.serving.registry import ModelRegistry

        model_reg = ModelRegistry(traffic_split=0.0, random_state=0)
        model_reg.register(LinearROI(np.zeros(4)), name="champion")
        model_reg.register(LinearROI(np.ones(4)), name="challenger")
        reg = MetricsRegistry()
        clock = ManualClock()
        promoter = AutoPromoter(
            model_reg, clock=clock, ramp=(0.1, 0.5), step_every_s=10.0,
            auto_start=False, metrics=reg,
        )
        promoter.start()
        clock.advance(10.0)
        promoter.poll()
        rng = np.random.default_rng(0)
        for _ in range(30):
            promoter.observe(2, True, float(rng.random() < 0.5), 0.0)
        snap = reg.snapshot()
        assert snap["promoter.start"].value == 1
        assert snap["promoter.ramp"].value == 1
        assert snap["promoter.observations"].value == 30
        assert snap["promoter.traffic_split"].value == pytest.approx(0.5)
        assert snap["promoter.ramp_stage"].value == 1

    def test_serial_backend_counters(self):
        reg = MetricsRegistry()
        backend = SerialBackend(metrics=reg)
        for i in range(5):
            assert backend.submit(lambda v=i: v * 2).result() == i * 2
        snap = reg.snapshot()
        assert snap["backend.tasks_submitted"].value == 5
        assert snap["backend.tasks_completed"].value == 5

    def test_thread_backend_counters(self):
        reg = MetricsRegistry()
        with ThreadBackend(2, metrics=reg) as backend:
            futures = [backend.submit(lambda v=i: v + 1) for i in range(8)]
            assert sorted(f.result() for f in futures) == list(range(1, 9))
        snap = reg.snapshot()
        assert snap["backend.pool_starts"].value == 1
        assert snap["backend.tasks_submitted"].value == 8
        assert snap["backend.tasks_completed"].value == 8

    def test_uninstrumented_backend_attaches_no_callbacks(self):
        backend = ThreadBackend(2)
        future = backend.submit(lambda: 1)
        assert future.result() == 1
        backend.shutdown()
        assert backend.metrics is NULL_REGISTRY
