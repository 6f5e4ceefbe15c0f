"""Observability demo: a fully instrumented serving day.

One :class:`~repro.obs.MetricsRegistry` collects every layer of a
replayed campaign — the micro-batching :class:`ScoringEngine`'s
counters and latency sketch, the :class:`BudgetPacer`'s threshold and
spend gauges, and the clock-aware flush spans — then the report shows
the three things the ``repro.obs`` layer exists for:

* per-day **metric deltas** (what each day did, not lifetime totals);
* latency **quantiles from the log-bucket sketch** (~1% error, sees
  every request in memory bounded by the value range);
* the **Prometheus text rendering** a scrape endpoint would serve.

Run:
    python examples/serving_metrics.py [--users 5000] [--days 3]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.ab import Platform
from repro.obs import MetricsRegistry, to_prometheus
from repro.runtime import ManualClock
from repro.serving import BudgetPacer, ScoringEngine, TrafficReplay


class LinearROI:
    """Cheap deterministic scorer so the demo runs in seconds."""

    def __init__(self, w: np.ndarray) -> None:
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.clip(x @ self.w, 1e-6, 1.0 - 1e-6)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=5_000, help="arrivals per day")
    parser.add_argument("--days", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    metrics = MetricsRegistry()
    platform = Platform(dataset="criteo", random_state=args.seed)
    clock = ManualClock()
    rng = np.random.default_rng(args.seed)
    engine = ScoringEngine(
        LinearROI(rng.normal(size=12) * 0.1),
        batch_size=64,
        cache_size=512,
        max_latency_ms=20.0,
        clock=clock,
        metrics=metrics,
    )
    replay = TrafficReplay(platform, engine, interarrival_s=0.001)

    print(f"== Replaying {args.days} instrumented days of {args.users} users ==")
    for day in range(1, args.days + 1):
        pacer = BudgetPacer(0.3 * args.users * 0.05, args.users, metrics=metrics)
        result = replay.replay_day(args.users, day=day, pacer=pacer)
        delta = result.metrics_delta
        print(f"\nday {day}: {result.summary()}")
        print("  per-day metric deltas (counters only):")
        for name, m in sorted(delta.items()):
            if m["kind"] == "counter" and m["value"]:
                print(f"    {name:32s} {m['value']:>10.0f}")
        p50, p95, p99 = (result.latency_quantile(q) for q in (0.5, 0.95, 0.99))
        print(
            f"  submit→score latency (sketch): p50={1000*p50:.2f}ms "
            f"p95={1000*p95:.2f}ms p99={1000*p99:.2f}ms "
            f"({result.latency_hist.count} requests)"
        )

    print("\n== Campaign totals (what a Prometheus scrape would see) ==")
    text = to_prometheus(metrics.snapshot())
    for line in text.splitlines():
        # histograms render dozens of bucket lines; elide them here
        if "_bucket{" not in line:
            print(f"  {line}")
    n_buckets = sum("_bucket{" in line for line in text.splitlines())
    print(f"  ... plus {n_buckets} histogram bucket samples")


if __name__ == "__main__":
    main()
