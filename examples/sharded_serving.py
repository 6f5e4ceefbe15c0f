"""Sharded serving demo: a 1M-user day on a 4-shard process fleet.

The single :class:`ScoringEngine` is one Python process: batching and
caching buy throughput, but every forward pass still runs on one core.
This demo replays the same day twice —

* **baseline** — one engine + one :class:`BudgetPacer`;
* **fleet** — a :class:`ShardedScoringEngine` over a 4-worker
  :class:`ProcessBackend` (sticky ``blake2b(user) % 4`` routing, one
  engine replica per process), paced by one parent-side
  :class:`BudgetPacer`

— and then shows the accounting story: the fleet's ``stats`` are
*derived* by folding per-shard snapshots with ``Snapshot.merge``, and
one :func:`to_prometheus` call renders the whole fleet for a single
scrape endpoint.  Spend stays strictly under budget on both paths; the
deterministic probe model scores alike on both, so the fleet decides
the day as the baseline does.

On a >= 4-core machine the fleet also finishes the day faster (see
``benchmarks/bench_serving_throughput.py::test_sharded_fleet_throughput``
for the measured ratio); on fewer cores the demo is still exact, just
not faster.

Run:
    python examples/sharded_serving.py [--users 1000000] [--shards 4]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.ab import Platform
from repro.data import criteo_uplift_v2
from repro.obs import to_prometheus
from repro.runtime import ProcessBackend
from repro.serving import (
    BudgetPacer,
    ScoringEngine,
    ShardedScoringEngine,
    TrafficReplay,
)


class LinearROI:
    """Picklable deterministic scorer (replicas ship through pickle)."""

    def __init__(self, w: np.ndarray) -> None:
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.w


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=1_000_000, help="arrivals in the day")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--budget-fraction", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # a cheap least-squares probe stands in for the fitted DRP model so
    # the demo runs in seconds; swap in any fitted predict_roi model
    probe = criteo_uplift_v2(4_000, random_state=5)
    weights = np.linalg.lstsq(probe.x, probe.roi, rcond=None)[0]
    budget = args.budget_fraction * args.users * float(np.mean(probe.tau_c))
    pacer_params = dict(use_roi_floor=False)

    print(f"day: {args.users:,} users, budget {budget:,.0f}")

    # ---- baseline: one engine, one pacer ------------------------------
    engine = ScoringEngine(LinearROI(weights), batch_size=256, cache_size=0)
    pacer = BudgetPacer(budget, args.users, **pacer_params)
    replay = TrafficReplay(Platform(dataset="criteo", random_state=args.seed), engine)
    t0 = time.perf_counter()
    single = replay.replay_day(args.users, pacer=pacer)
    t_single = time.perf_counter() - t0

    # ---- fleet: N process shards, one pacer in the parent -------------
    backend = ProcessBackend(n_workers=args.shards)
    fleet = ShardedScoringEngine(
        LinearROI(weights),
        n_shards=args.shards,
        batch_size=256,
        cache_size=0,
        backend=backend,
    )
    fleet_pacer = BudgetPacer(budget, args.users, **pacer_params)
    replay = TrafficReplay(
        Platform(dataset="criteo", random_state=args.seed), fleet
    )
    t0 = time.perf_counter()
    sharded = replay.replay_day(args.users, pacer=fleet_pacer)
    t_fleet = time.perf_counter() - t0

    # ---- comparison ---------------------------------------------------
    print()
    print(f"{'':>24s} {'baseline':>14s} {'fleet':>14s}")
    print(f"{'wall time':>24s} {t_single:>13.1f}s {t_fleet:>13.1f}s")
    print(f"{'users/s':>24s} {args.users / t_single:>14,.0f} {args.users / t_fleet:>14,.0f}")
    print(f"{'spend':>24s} {single.spend:>14,.1f} {sharded.spend:>14,.1f}")
    print(f"{'revenue ratio':>24s} {single.revenue_ratio:>14.3f} {sharded.revenue_ratio:>14.3f}")
    print(f"{'requests scored':>24s} {single.engine_stats['requests']:>14,} "
          f"{sharded.engine_stats['requests']:>14,}")
    assert single.spend < budget and sharded.spend < budget  # strict on both paths

    # ---- merged fleet accounting --------------------------------------
    # every number below is folded out of per-shard snapshots with
    # Snapshot.merge — there is no separate fleet-side bookkeeping
    print()
    print("per-shard -> merged accounting:")
    for i, (snap, _versions) in enumerate(fleet.shard_snapshots()):
        print(f"  shard {i}: {int(snap['engine.requests'].value):>9,} requests, "
              f"{int(snap['engine.model_calls'].value):>6,} model calls")
    stats = fleet.stats
    print(f"  fleet:   {stats['requests']:>9,} requests, "
          f"{stats['model_calls']:>6,} model calls")

    print()
    print("merged Prometheus exposition (one scrape endpoint for the fleet):")
    exposition = to_prometheus(fleet.fleet_snapshot())
    for line in exposition.splitlines()[:12]:
        print(f"  {line}")
    print(f"  ... ({len(exposition.splitlines())} lines total)")

    fleet.close()
    backend.shutdown()


if __name__ == "__main__":
    main()
