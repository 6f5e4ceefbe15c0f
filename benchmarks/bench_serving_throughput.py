"""Serving-layer throughput: micro-batching and cache leverage.

Measures the :class:`~repro.serving.engine.ScoringEngine` request rate
at micro-batch sizes 1 / 32 / 256 with the LRU cache off and on.  The
numbers quantify the two serving levers the subsystem exists for:

* batching — one vectorised DRP forward pass per flush amortises the
  Python dispatch overhead, so requests/sec must grow sharply with the
  batch size (full runs assert >= 10x from batch 1 to 256; the
  trajectory gates batch 256 against the model called once per row
  with no engine, a reference that a cheaper flush does not move);
* caching — repeat feature rows (retargeted users) skip the model
  entirely, stacking on top of the batching gain;
* observability — a live :class:`~repro.obs.MetricsRegistry` must cost
  under 5% of scoring throughput (the engine's counters are the same
  objects either way; only span/export bookkeeping differs).

Recorded to the ``BENCH_serving.json`` trajectory when
``REPRO_BENCH_DIR`` / ``REPRO_BENCH_RECORD`` is set (see
``_harness.record_result``).
"""

from __future__ import annotations

import os
import time

import numpy as np

from _harness import get_rdrp, get_setting, print_header, record_result
from repro.obs import MetricsRegistry
from repro.runtime import ProcessBackend
from repro.serving.engine import ScoringEngine
from repro.serving.sharding import ShardedScoringEngine

BATCH_SIZES = (1, 32, 256)
N_REQUESTS = 2048
N_UNIQUE = 256  # unique rows in the cache-on stream (87.5% hit rate)
OVERHEAD_ROUNDS = 5  # best-of rounds for the gated same-machine ratios
N_BULK = 1 << 19  # submit_batch rows (the >= 2M scores/s target)
N_SCALAR_REF = 1 << 15  # per-row reference stream for the bulk ratio

SMOKE_N_REQUESTS = 256
SMOKE_N_UNIQUE = 64
SMOKE_N_BULK = 4096

# areas that several tests contribute to accumulate here; the *last*
# contributing test in file order records the merged dict as ONE
# trajectory run (two appends per session would make the diff's
# latest-run comparison see the first test's gated metrics as dropped)
_SERVING_METRICS: dict[str, dict] = {}


class BulkLinear:
    """Picklable constant-time scorer: isolates engine/transport cost."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.w


def _requests_per_second(
    model, rows, batch_size, cache_size, n_unique, metrics=None
) -> tuple[float, float]:
    engine = ScoringEngine(
        model, batch_size=batch_size, cache_size=cache_size, metrics=metrics
    )
    if cache_size:  # warm the cache with the unique rows
        for row in rows[:n_unique]:
            engine.submit(row)
        engine.flush()
    start = time.perf_counter()
    for row in rows:
        engine.submit(row)
    engine.flush()
    elapsed = time.perf_counter() - start
    return len(rows) / elapsed, engine.cache_hit_rate


def _model_rows_per_second(model, rows) -> float:
    """Rows/sec calling ``predict_roi`` once per row, with no engine."""
    start = time.perf_counter()
    for row in rows:
        model.predict_roi(row[None, :])
    return len(rows) / (time.perf_counter() - start)


def test_throughput_batch_and_cache(benchmark, smoke) -> None:
    """requests/sec over the batch-size x cache grid."""
    n_requests = SMOKE_N_REQUESTS if smoke else N_REQUESTS
    n_unique = SMOKE_N_UNIQUE if smoke else N_UNIQUE

    def run() -> tuple[dict[tuple[int, str], tuple[float, float]], float, float]:
        data = get_setting("criteo", "SuNo")
        model = get_rdrp("criteo", "SuNo").drp  # single-pass DRP scorer
        unique = data.test.x[:n_unique]
        repeated = np.tile(unique, (n_requests // n_unique, 1))
        distinct = data.test.x[:n_requests]
        out = {}
        for batch in BATCH_SIZES:
            out[(batch, "off")] = _requests_per_second(model, distinct, batch, 0, n_unique)
            out[(batch, "on")] = _requests_per_second(
                model, repeated, batch, 4 * n_unique, n_unique
            )
        # the gated ratio: best-of rounds on each side, since one
        # preempted batch-256 flush would sink a single smoke timing
        best_256 = best_model = 0.0
        for _ in range(OVERHEAD_ROUNDS):
            best_256 = max(
                best_256, _requests_per_second(model, distinct, 256, 0, n_unique)[0]
            )
            best_model = max(best_model, _model_rows_per_second(model, distinct))
        return out, best_256, best_model

    grid, best_256, best_model = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header(f"serving throughput — requests/sec ({n_requests} requests)")
    print(f"  {'batch':>6s} {'cache':>6s} {'req/s':>12s} {'hit rate':>9s}")
    for (batch, cache), (rps, hit_rate) in sorted(grid.items()):
        print(f"  {batch:>6d} {cache:>6s} {rps:>12.0f} {hit_rate:>9.2f}")

    rps_1 = grid[(1, "off")][0]
    rps_256 = grid[(256, "off")][0]
    print(f"  batching leverage: {rps_256 / rps_1:.1f}x (bar: >= 10x)")
    print(f"  batch 256 over per-row model calls: {best_256 / best_model:.1f}x")
    # the stream really did hit the cache (smoke sizes land exactly on
    # 0.8: 256 hot requests over 64 warmed rows = 256/320 lookups hit)
    assert grid[(256, "on")][1] >= 0.8
    if not smoke:
        assert rps_256 >= 10.0 * rps_1
        # the cache path must not be slower than cold scoring at equal batch
        assert grid[(256, "on")][0] >= rps_256 * 0.5

    _SERVING_METRICS.update(
        {
            # context, not gated: batch 1 pays a flush's fixed cost per
            # request, so this ratio falls whenever that cost falls
            "batching_leverage": {
                "value": rps_256 / rps_1,
                "unit": "x",
                "direction": "higher",
            },
            # batch-256 engine throughput over the same model called once
            # per row with no engine: falls when batching or the batched
            # path breaks (below 1x if each request flushes alone), not when
            # flushes get cheaper
            "batched_over_per_row_model": {
                "value": best_256 / best_model,
                "unit": "x",
                "direction": "higher",
                "gated": True,
                # a ratio of same-machine rates, but CI runners vary
                "tolerance": 0.4,
            },
            "rps_model_per_row": {"value": best_model, "unit": "req/s"},
            "cache_hit_rate_256": {
                "value": grid[(256, "on")][1],
                "direction": "higher",
                "gated": True,
                "tolerance": 0.05,
            },
            "rps_batch_1": {"value": rps_1, "unit": "req/s"},
            "rps_batch_256": {"value": rps_256, "unit": "req/s"},
            "rps_batch_256_cached": {"value": grid[(256, "on")][0], "unit": "req/s"},
        }
    )


def test_submit_batch_throughput(benchmark, smoke) -> None:
    """Vectorised ingest: ``submit_batch`` + ``take_block`` scores/sec.

    A constant-time linear model isolates what this path is for —
    engine overhead per request.  The scalar reference pays a Python
    loop per row (route, id bookkeeping, buffer append); the bulk path
    amortises all of it into slab copies and O(1) range records, which
    is where the >= 2M scores/s batched target (asserted on >= 4-CPU
    full runs, recorded everywhere) comes from.
    """
    n_bulk = SMOKE_N_BULK if smoke else N_BULK
    n_scalar = min(n_bulk, N_SCALAR_REF)
    chunk = 8192

    def run() -> dict[str, float]:
        rng = np.random.default_rng(0)
        w = rng.normal(size=8)
        rows = rng.normal(size=(n_bulk, 8))
        engine = ScoringEngine(BulkLinear(w), batch_size=4096, cache_size=0)
        start = time.perf_counter()
        blocks = [
            engine.submit_batch(rows[i : i + chunk])
            for i in range(0, n_bulk, chunk)
        ]
        engine.flush()
        total = sum(engine.take_block(ids).size for ids in blocks)
        bulk_elapsed = time.perf_counter() - start
        assert total == n_bulk

        scalar = ScoringEngine(BulkLinear(w), batch_size=4096, cache_size=0)
        start = time.perf_counter()
        ids = [scalar.submit(row) for row in rows[:n_scalar]]
        scalar.flush()
        for rid in ids:
            scalar.take(rid)
        scalar_elapsed = time.perf_counter() - start
        return {
            "bulk_rps": n_bulk / bulk_elapsed,
            "scalar_rps": n_scalar / scalar_elapsed,
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = out["bulk_rps"] / out["scalar_rps"]
    cpus = os.cpu_count() or 1
    print_header(f"submit_batch throughput — {n_bulk} rows, linear scorer")
    print(f"  per-row submit: {out['scalar_rps']:>14,.0f} scores/s")
    print(f"  submit_batch:   {out['bulk_rps']:>14,.0f} scores/s")
    print(f"  bulk leverage:  {ratio:.1f}x (target >= 2M scores/s batched)")
    if not smoke and cpus >= 4:
        assert out["bulk_rps"] >= 2e6

    _SERVING_METRICS.update(
        {
            # same-machine, same-process ratio: gates the fast path
            # existing at all (falling back per-row collapses it to ~1x)
            "bulk_over_scalar_speedup": {
                "value": ratio,
                "unit": "x",
                "direction": "higher",
                "gated": True,
                # the magnitude swings with interpreter/BLAS versions
                # (observed ~130x); the band only needs to catch the
                # fast path collapsing to the per-row loop (~1x)
                "tolerance": 0.9,
            },
            "submit_batch_rps": {"value": out["bulk_rps"], "unit": "scores/s"},
            "scalar_submit_rps": {"value": out["scalar_rps"], "unit": "scores/s"},
        }
    )
    record_result("serving", dict(_SERVING_METRICS), smoke=smoke)
    _SERVING_METRICS.clear()


def test_metrics_overhead(benchmark, smoke) -> None:
    """A live registry must cost < 5% of scoring throughput.

    The engine's counters and latency sketch are the *same objects*
    whether or not a registry collects them, so the only added work
    with observability on is the per-flush span and queue gauge.
    Best-of-``OVERHEAD_ROUNDS`` timing on each side squeezes out
    scheduler noise before the ratio is taken.
    """
    n_requests = SMOKE_N_REQUESTS if smoke else N_REQUESTS

    def run() -> tuple[float, float]:
        data = get_setting("criteo", "SuNo")
        model = get_rdrp("criteo", "SuNo").drp
        rows = data.test.x[:n_requests]
        best_null = best_live = 0.0
        for _ in range(OVERHEAD_ROUNDS):
            best_null = max(
                best_null, _requests_per_second(model, rows, 256, 0, 0)[0]
            )
            best_live = max(
                best_live,
                _requests_per_second(
                    model, rows, 256, 0, 0, metrics=MetricsRegistry()
                )[0],
            )
        return best_null, best_live

    best_null, best_live = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = best_live / best_null
    print_header(f"metrics overhead — live/null throughput ({n_requests} requests)")
    print(f"  null registry: {best_null:>10.0f} req/s")
    print(f"  live registry: {best_live:>10.0f} req/s")
    print(f"  ratio: {ratio:.3f} (bar: >= 0.95)")
    if not smoke:  # smoke sizes are too small for a stable ratio
        assert ratio >= 0.95

    record_result(
        "serving_overhead",
        {
            "live_over_null_throughput": {
                "value": ratio,
                "direction": "higher",
                "gated": not smoke,
                "tolerance": 0.05,
            },
            "rps_null_registry": {"value": best_null, "unit": "req/s"},
            "rps_live_registry": {"value": best_live, "unit": "req/s"},
        },
        smoke=smoke,
    )


def test_sharded_fleet_throughput(benchmark, smoke) -> None:
    """1-shard vs 4-shard fleet on a ProcessBackend: the scale-out lever.

    Both fleets pay the same transport tax (rows and results pickled
    over a process pool's affinity lanes), so the ratio isolates what
    sharding buys: four DRP forward passes running on four cores.  The
    >= 2.5x bar is asserted only where it is physically possible
    (>= 4 CPUs); everywhere else the speedup is still *recorded* as
    ungated trajectory context, and the accounting contract — every
    submitted request visible in the merged fleet stats — is asserted
    unconditionally.
    """
    n_requests = SMOKE_N_REQUESTS if smoke else N_REQUESTS
    n_shards = 4

    def fleet_rps(n: int, backend) -> tuple[float, dict]:
        model = get_rdrp("criteo", "SuNo").drp
        rows = get_setting("criteo", "SuNo").test.x[:n_requests]
        with ShardedScoringEngine(
            model, n_shards=n, batch_size=256, cache_size=0, backend=backend
        ) as fleet:
            fleet.score_batch(rows[:8])  # warm the lanes / fork the workers
            start = time.perf_counter()
            for i, row in enumerate(rows):
                fleet.submit(row, key=i)
            fleet.flush()
            elapsed = time.perf_counter() - start
            return len(rows) / elapsed, fleet.stats

    def run() -> dict:
        backend = ProcessBackend(n_workers=n_shards)
        try:
            rps_1, stats_1 = fleet_rps(1, backend)
            rps_n, stats_n = fleet_rps(n_shards, backend)
        finally:
            backend.shutdown()
        return {
            "rps_1": rps_1, "rps_n": rps_n,
            "requests_1": stats_1["requests"], "requests_n": stats_n["requests"],
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = out["rps_n"] / out["rps_1"]
    cpus = os.cpu_count() or 1

    print_header(f"sharded fleet throughput — {n_requests} requests, ProcessBackend")
    print(f"  1 shard:  {out['rps_1']:>12,.0f} req/s")
    print(f"  {n_shards} shards: {out['rps_n']:>12,.0f} req/s")
    print(f"  speedup:  {speedup:.2f}x on a {cpus}-CPU machine "
          f"(target >= 2.5x on >= {n_shards} CPUs)")

    # merged fleet accounting sees every request, at either shard count
    assert out["requests_1"] == n_requests + 8
    assert out["requests_n"] == n_requests + 8
    if not smoke and cpus >= n_shards:
        assert speedup >= 2.5

    record_result(
        "serving_sharded",
        {
            # absolute rates and the speedup are machine-bound: a 1-CPU
            # runner records ~1x honestly, so none of them can gate
            "sharded_speedup_4shard": {
                "value": speedup, "unit": "x", "direction": "higher",
            },
            "rps_1shard": {"value": out["rps_1"], "unit": "req/s"},
            "rps_4shard": {"value": out["rps_n"], "unit": "req/s"},
            # ...but the accounting ratio is exact everywhere
            "fleet_requests_accounted": {
                "value": out["requests_n"] / (n_requests + 8),
                "direction": "higher",
                "gated": True,
                "tolerance": 0.01,
            },
        },
        smoke=smoke,
    )
