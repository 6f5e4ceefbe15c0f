"""Run workloads over ten seeds and summarise their spread.

    python3 perfbench/report.py --workloads day_rdrp_hot day_rdrp_fleet --first-seed 10

Every run is a fresh ``perfbench/run.py`` process measuring the
``run_seconds`` of ``BENCHMARK.json``, on seeds ``--first-seed`` to
``--first-seed + 9``; runs interleave the workloads seed by seed, so
drift of the machine over minutes lands on every workload alike.  For
each workload and metric the report prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread ``(q3 - q1) / median``
beside the metric's bound from
``BENCHMARK.json``.  When both ``day_rdrp_hot`` and ``day_rdrp_fleet``
ran, it ends with the fleet-gate line: the fleet's ``decided_eps`` over
one engine's on identical traffic, and the fleet's revenue delta.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)``; spread is the IQR over the median
    (needs at least two values)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for workload in args.workloads:
            out = run_once(workload, seed, spec["run_seconds"])
            results[workload].append(out)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
            print(f"seed {seed} {workload}: correct={out['correct']} failed={out['failed']}/"
                  f"{out['attempted']} {values}", flush=True)

    summary: dict[str, dict[str, tuple[float, float, float, float]]] = {}
    for workload, outs in results.items():
        failed = sum(o["failed"] for o in outs)
        attempted = sum(o["attempted"] for o in outs)
        print(f"\n{workload}: {len(outs)} runs, failed_share {failed / attempted:.6g} "
              f"({failed} of {attempted} arrivals)")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        summary[workload] = {}
        for name in outs[0]["metrics"]:
            stats = summary[workload][name] = quartiles([o["metrics"][name]["value"] for o in outs])
            bound = bounds[name]
            mark = "  over bound" if stats[3] > bound else ("  over bound/3" if stats[3] > bound / 3 else "")
            print(f"  {name:<28} {stats[0]:>14.6g} {stats[1]:>14.6g} {stats[2]:>14.6g} "
                  f"{stats[3]:>8.4f} {bound:>6}{mark}")

    hot, fleet = summary.get("day_rdrp_hot"), summary.get("day_rdrp_fleet")
    if hot and fleet:
        ratio = fleet["decided_eps"][0] / hot["decided_eps"][0]
        delta = fleet["incremental_revenue"][0] - hot["incremental_revenue"][0]
        print(f"\nfleet gate: decided_eps day_rdrp_fleet/day_rdrp_hot = {ratio:.3f} "
              f"(fleet {fleet['decided_eps'][0]:.0f}/s spread {fleet['decided_eps'][3]:.3f}, "
              f"engine {hot['decided_eps'][0]:.0f}/s spread {hot['decided_eps'][3]:.3f}); "
              f"fleet incremental_revenue delta {delta:+.2f} on identical traffic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
