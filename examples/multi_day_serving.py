"""Multi-day serving demo: deadline flushing + cross-day budget pacing.

Two runtime-layer features in one campaign, on simulated time:

1. **Deadline flush** — the :class:`ScoringEngine` runs with
   ``max_latency_ms`` on a :class:`ManualClock` the replay advances by
   the inter-arrival gap, so a half-empty micro-batch is flushed the
   moment its oldest request hits the deadline.  The latency report
   (p50/p95/max) proves no request ever waits longer than the bound.
2. **Cross-day carryover** — :meth:`TrafficReplay.replay_days` chains
   the days through a :class:`MultiDayPacer`: whatever day *d* leaves
   unspent (the strict boundary and threshold conservatism always
   strand a little) funds day *d+1*'s pacing curve, so the campaign
   converges on its cumulative plan instead of leaking every midnight.

The scorer is a cheap least-squares probe of the true ROI (good enough
to rank users; this demo is about the serving runtime, not the model).

Run:
    python examples/multi_day_serving.py [--days 3] [--users 6000]
"""

from __future__ import annotations

import argparse

import numpy as np

import repro
from repro.runtime import ManualClock


class ProbeROI:
    """Least-squares ROI probe: one lstsq fit on a labelled sample."""

    def __init__(self, n: int = 4000, seed: int = 5) -> None:
        probe = repro.criteo_uplift_v2(n, random_state=seed)
        self.w = np.linalg.lstsq(probe.x, probe.roi, rcond=None)[0]

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.w


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=3, help="campaign length")
    parser.add_argument("--users", type=int, default=6000, help="arrivals per day")
    parser.add_argument("--batch", type=int, default=256, help="engine micro-batch size")
    parser.add_argument("--latency-ms", type=float, default=5.0, help="flush deadline")
    parser.add_argument("--interarrival-ms", type=float, default=0.25,
                        help="simulated gap between arrivals")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"== {args.days}-day campaign, {args.users} arrivals/day ==")
    print(f"engine: batch={args.batch}, deadline={args.latency_ms}ms, "
          f"arrivals every {args.interarrival_ms}ms (simulated)")

    platform = repro.Platform(dataset="criteo", random_state=args.seed)
    engine = repro.ScoringEngine(
        ProbeROI(),
        batch_size=args.batch,
        cache_size=0,
        max_latency_ms=args.latency_ms,
        clock=ManualClock(),
    )
    replay = repro.TrafficReplay(
        platform, engine, interarrival_s=args.interarrival_ms / 1000.0
    )
    result = replay.replay_days(args.days, args.users, budget_fraction=0.3)

    print("\n-- cross-day pacing (carry funds the next day's curve) --")
    print(f"  {'day':>4s} {'base':>9s} {'budget':>9s} {'spent':>9s} "
          f"{'carry out':>9s} {'revenue':>9s}")
    for d, (day, (base, budget, spent, carry)) in enumerate(
        zip(result.days, result.ledger), start=1
    ):
        print(f"  {d:>4d} {base:>9.1f} {budget:>9.1f} {spent:>9.1f} "
              f"{carry:>9.1f} {day.incremental_revenue:>9.1f}")
    print(f"  campaign: spent {result.total_spend:.1f} of planned "
          f"{result.total_base_budget:.1f} "
          f"(strictly under: {result.total_spend < result.total_base_budget})")

    print("\n-- deadline flushing (simulated clock) --")
    stats = result.days[-1].engine_stats
    print(f"  flushes: {stats['flush_deadline']} deadline, "
          f"{stats['flush_batch_full']} batch-full, {stats['flush_manual']} manual")
    hist = engine.latency_hist  # every scored request of the campaign
    for label, seconds in (("p50", hist.quantile(0.5)), ("p95", hist.quantile(0.95)), ("max", hist.max)):
        print(f"  {label} submit→score latency: {1000 * seconds:.2f}ms "
              f"(bound: {args.latency_ms}ms)")
    assert hist.max <= args.latency_ms / 1000.0 + 1e-9

    print("\n-- price of streaming, per day --")
    for d, day in enumerate(result.days, start=1):
        print(f"  day {d}: online/oracle revenue = {day.revenue_ratio:.1%}")


if __name__ == "__main__":
    main()
