"""Runtime-layer leverage: deadline flushing and pool reuse.

Two numbers quantify what ``repro.runtime`` buys:

* **Deadline flush latency** — on a quiet stream (arrivals far slower
  than ``batch_size`` fills), a batch-full-only engine strands early
  requests until the batch finally fills; an engine with
  ``max_latency_ms`` flushes on the deadline.  Measured on a simulated
  clock, p50/p95 submit→score latency must collapse from
  O(batch_size * interarrival) to <= the deadline — and the deadline
  engine's p95 must respect the bound exactly.
* **Pool reuse** — chunked cohort generation used to start (and tear
  down) one ``ProcessPoolExecutor`` per ``daily_cohort`` call; a
  shared :class:`~repro.runtime.ProcessBackend` starts exactly one
  pool for a whole 5-day run.  Same bytes out (asserted), fewer pool
  startups (asserted), less wall time (reported; asserted not to
  regress meaningfully on multi-CPU machines).
"""

from __future__ import annotations

import os
import time

import numpy as np

from _harness import print_header, record_result
from repro.ab.platform import Platform
from repro.obs import HistogramSnapshot
from repro.runtime import ManualClock, ProcessBackend
from repro.serving.engine import ScoringEngine

N_EVENTS = 4096
SMOKE_N_EVENTS = 512
BATCH_SIZE = 256
MAX_LATENCY_MS = 5.0
INTERARRIVAL_S = 0.001  # 1ms: 256-batch takes 256ms to fill

N_DAYS = 5
COHORT = 30_000
CHUNK = 4_000
SMOKE_N_DAYS = 2
SMOKE_COHORT = 900
SMOKE_CHUNK = 300


class _CheapROI:
    """Near-free scorer so the simulated-latency numbers are pure
    batching policy, not model time."""

    def __init__(self, d: int = 12) -> None:
        self.w = np.linspace(-0.01, 0.01, d)

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.w


def _stream_latencies(n_events: int, max_latency_ms: float | None) -> HistogramSnapshot:
    """Submit ``n_events`` rows at 1ms simulated intervals; return the
    engine's sketch of the submit→score latencies in simulated seconds
    (exact max, quantiles within 1%)."""
    clock = ManualClock()
    engine = ScoringEngine(
        _CheapROI(),
        batch_size=BATCH_SIZE,
        cache_size=0,
        max_latency_ms=max_latency_ms,
        clock=clock,
    )
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(n_events, 12))
    for row in rows:
        clock.advance(INTERARRIVAL_S)
        engine.submit(row)
        engine.poll()
    engine.flush()
    engine.join()
    return engine.latency_hist.snapshot()


def test_deadline_flush_latency(benchmark, smoke) -> None:
    """p50/p95 submit→score latency: deadline flush vs batch-full-only."""
    n_events = SMOKE_N_EVENTS if smoke else N_EVENTS

    def run() -> dict[str, HistogramSnapshot]:
        return {
            "batch-full only": _stream_latencies(n_events, None),
            f"deadline {MAX_LATENCY_MS:.0f}ms": _stream_latencies(n_events, MAX_LATENCY_MS),
        }

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header(f"submit→score latency, simulated clock ({n_events} events @ 1ms)")
    print(f"  {'mode':>18s} {'p50':>9s} {'p95':>9s} {'max':>9s}")
    for mode, lat in grid.items():
        p50, p95, mx = (1000 * v for v in (lat.quantile(0.5), lat.quantile(0.95), lat.max))
        print(f"  {mode:>18s} {p50:>8.2f}m {p95:>8.2f}m {mx:>8.2f}m")

    batch_only = grid["batch-full only"]
    deadline = grid[f"deadline {MAX_LATENCY_MS:.0f}ms"]
    bound_s = MAX_LATENCY_MS / 1000.0
    # the deadline is a hard bound on every request, any size
    assert deadline.max <= bound_s + 1e-9
    ratio = batch_only.quantile(0.95) / max(deadline.quantile(0.95), 1e-9)
    if not smoke:
        # batch-full-only strands requests for most of the fill time
        assert batch_only.quantile(0.95) > 20 * bound_s
        print(f"  p95 improvement: {ratio:.0f}x (bar: >= 20x)")
        assert ratio >= 20.0

    # simulated-clock numbers are deterministic, so gate them tightly
    record_result(
        "runtime",
        {
            "deadline_p95_ms": {
                "value": 1000 * deadline.quantile(0.95),
                "unit": "ms",
                "direction": "lower",
                "gated": True,
                "tolerance": 0.01,
            },
            "deadline_max_ms": {
                "value": 1000 * deadline.max,
                "unit": "ms",
                "direction": "lower",
                "gated": True,
                "tolerance": 0.01,
            },
            "p95_improvement": {
                "value": float(ratio),
                "unit": "x",
                "direction": "higher",
                "gated": True,
                "tolerance": 0.01,
            },
            "batch_only_p95_ms": {
                "value": 1000 * batch_only.quantile(0.95),
                "unit": "ms",
                "direction": "lower",
            },
        },
        smoke=smoke,
    )


def _timed_campaign(platform: Platform, n_days: int, cohort: int, backend) -> tuple[float, list]:
    """Generate ``n_days`` cohorts; return (seconds, per-day checksums)."""
    start = time.perf_counter()
    sums = []
    for day in range(1, n_days + 1):
        c = platform.daily_cohort(cohort, day, backend=backend)
        sums.append((c.n, float(c.x.sum()), float(c.tau_r.sum())))
    return time.perf_counter() - start, sums


def test_pool_reuse_across_days(benchmark, smoke) -> None:
    """One shared pool for a 5-day run vs the old pool-per-day churn."""
    n_days = SMOKE_N_DAYS if smoke else N_DAYS
    cohort = SMOKE_COHORT if smoke else COHORT
    chunk = SMOKE_CHUNK if smoke else CHUNK
    # >= 2 so the fan-out path engages even on single-CPU runners (the
    # perf assertion below still requires real CPUs)
    workers = max(2, min(4, os.cpu_count() or 1))

    def make_platform() -> Platform:
        return Platform(dataset="criteo", chunk_size=chunk, random_state=0)

    def run() -> dict:
        serial_time, serial_sums = _timed_campaign(make_platform(), n_days, cohort, None)
        # churn: a fresh backend per day, torn down after each cohort
        # (what every daily_cohort call did before the runtime layer)
        churn_start = time.perf_counter()
        churn_sums = []
        churn_platform = make_platform()
        for day in range(1, n_days + 1):
            with ProcessBackend(workers) as per_day:
                c = churn_platform.daily_cohort(cohort, day, backend=per_day)
            churn_sums.append((c.n, float(c.x.sum()), float(c.tau_r.sum())))
        churn_time = time.perf_counter() - churn_start
        # reuse: one backend, lazily started once, for the whole run
        with ProcessBackend(workers) as shared:
            shared_time, shared_sums = _timed_campaign(
                make_platform(), n_days, cohort, shared
            )
            starts = shared.start_count
        return dict(
            serial=(serial_time, serial_sums),
            churn=(churn_time, churn_sums),
            shared=(shared_time, shared_sums),
            starts=starts,
        )

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    serial_time, serial_sums = out["serial"]
    churn_time, churn_sums = out["churn"]
    shared_time, shared_sums = out["shared"]
    print_header(
        f"pool reuse — {n_days}-day campaign, {cohort} users/day, {workers} workers"
    )
    print(f"  serial:          {serial_time:8.3f}s")
    print(f"  pool per day:    {churn_time:8.3f}s  ({n_days} pool startups)")
    print(f"  shared pool:     {shared_time:8.3f}s  ({out['starts']} pool startup)")
    print(f"  reuse speedup over churn: {churn_time / max(shared_time, 1e-9):.2f}x")

    # identical cohorts whichever execution path generated them
    assert serial_sums == churn_sums == shared_sums
    # the headline guarantee: one startup for the whole campaign
    assert out["starts"] == 1
    if not smoke and (os.cpu_count() or 1) >= 2:
        # reuse must not be meaningfully slower than churn (it saves
        # n_days-1 pool startups; generous slack absorbs CI noise)
        assert shared_time <= churn_time * 1.10

    record_result(
        "runtime_pool",
        {
            "pool_starts": {
                "value": float(out["starts"]),
                "direction": "lower",
                "gated": True,
                "tolerance": 0.01,
            },
            "reuse_speedup_over_churn": {
                "value": churn_time / max(shared_time, 1e-9),
                "unit": "x",
                "direction": "higher",
            },
            "serial_seconds": {"value": serial_time, "unit": "s", "direction": "lower"},
            "shared_seconds": {"value": shared_time, "unit": "s", "direction": "lower"},
        },
        smoke=smoke,
    )
