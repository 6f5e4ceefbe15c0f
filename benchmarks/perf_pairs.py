"""Interleaved parent/change pairs of perfbench runs, judged like a claim.

    python3 benchmarks/perf_pairs.py --parent ../parent --change . \\
        --workloads day_drp_stream --pairs 10 --first-seed 300 --claim decided_eps

Each pair runs ``perfbench/run.py --trace 0`` once from each checkout on
the same seed (seeds ``--first-seed`` onwards), each a fresh process
measuring ``run_seconds`` from the parent's ``BENCHMARK.json``; the
change must carry the same file, so neither side is judged by bounds or
a run length of its own.  Which checkout runs first alternates from
pair to pair, so drift of the machine lands on both sides alike, and at
least ten pairs are run.  The report prints every pair's metrics, each
side's median and quartiles (``statistics.quantiles(n=4)``), and then
judges:

* the claimed metric (``--claim``, on the ``--claim-on`` workloads,
  by default all): the change must be better on at least nine tenths of
  the pairs, ties counting for neither, and its median better than the
  parent's by more than the parent's interquartile range;
* every other end-to-end metric: the change's median may be worse than
  the parent's by at most the metric's ``BENCHMARK.json`` bound.  Where
  either side's spread (interquartile range over median) is wider than
  the bound, the metric is ``unresolved`` unless every change run reads
  better than every parent run;
* the failed share of arrivals may not grow.

Anything but "all rules hold" exits 1.  Standard library only; ``--json``
also writes every run's raw JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10


def load_spec(parent: Path, change: Path) -> dict:
    """The parent's ``BENCHMARK.json``; ValueError when the change's
    copy differs from it."""
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    if json.loads((change / "BENCHMARK.json").read_text()) != spec:
        raise ValueError(f"{change / 'BENCHMARK.json'} differs from the parent's {parent / 'BENCHMARK.json'}")
    return spec


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=1800, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads better than ``b`` (ties are not better)."""
    return a > b if direction == "higher" else a < b


def worse_by(parent: float, change: float, direction: str) -> float:
    """Relative change of ``change`` against ``parent`` in the worse
    direction (positive = worse)."""
    if parent == 0:
        return 0.0 if change == parent else math.inf
    delta = (parent - change) if direction == "higher" else (change - parent)
    return delta / abs(parent)


def judge(runs: dict[str, dict[str, list[dict]]], metrics: dict[str, dict],
          claim: str | None, claimed_on: set[str]) -> list[str]:
    """Print the summary of ``runs`` (workload -> side -> one JSON result
    per pair) and return the rules that do not hold."""
    verdicts = []
    for workload, sides in runs.items():
        pairs = len(sides["parent"])
        print(f"\n{workload}: {pairs} pairs")
        print(f"  {'metric':<22} {'side':<7} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        values, summary, spread = {}, {}, {}
        for name in metrics:
            for side in SIDES:
                values[name, side] = [out["metrics"][name]["value"] for out in sides[side]]
                med, q1, q3 = summary[name, side] = quartiles(values[name, side])
                spread[name, side] = (q3 - q1) / abs(med) if med else math.inf
                print(f"  {name:<22} {side:<7} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread[name, side]:>8.4f}")
        failed = {s: sum(o["failed"] for o in sides[s]) / max(1, sum(o["attempted"] for o in sides[s]))
                  for s in SIDES}
        print(f"  failed share: parent {failed['parent']:.6g}, change {failed['change']:.6g}")
        if failed["change"] > failed["parent"]:
            verdicts.append(f"{workload}: failed share grew")

        claimed = claim is not None and workload in claimed_on
        if claimed:
            direction = metrics[claim]["better"]
            wins = sum(better(c, p, direction) for p, c in zip(values[claim, "parent"], values[claim, "change"]))
            need = math.ceil(0.9 * pairs)
            p_med, p_q1, p_q3 = summary[claim, "parent"]
            c_med = summary[claim, "change"][0]
            gap = (c_med - p_med) if direction == "higher" else (p_med - c_med)
            iqr = p_q3 - p_q1
            ratio = c_med / p_med if p_med else math.inf
            wins_ok, gap_ok = wins >= need, gap > iqr
            print(f"  claim {claim}: change better on {wins}/{pairs} pairs (need {need}): "
                  f"{'holds' if wins_ok else 'FAILS'}; median gap {gap:.6g} vs parent IQR {iqr:.6g}: "
                  f"{'holds' if gap_ok else 'FAILS'}; change/parent median {ratio:.3f}x")
            if not (wins_ok and gap_ok):
                verdicts.append(f"{workload}: claim on {claim} does not hold")

        for name, metric in metrics.items():
            if claimed and name == claim:
                continue
            direction, bound = metric["better"], metric["bound"]
            parent, change = summary[name, "parent"][0], summary[name, "change"][0]
            moved = (change - parent) / abs(parent) if parent else 0.0
            separated = all(better(c, p, direction) for c in values[name, "change"] for p in values[name, "parent"])
            if worse_by(parent, change, direction) > bound:
                status = "WORSE THAN BOUND"
                verdicts.append(f"{workload}: {name} worse than its bound")
            elif max(spread[name, "parent"], spread[name, "change"]) > bound and not separated:
                status = "unresolved (spread above bound)"
                verdicts.append(f"{workload}: {name} unresolved")
            else:
                status = "ok"
            print(f"  {name:<22} change/parent - 1 = {moved:+.4f} ({direction} is better), "
                  f"bound {bound}: {status}")
    return verdicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, help=f"at least {MIN_PAIRS}")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--claim", default=None, help="end-to-end metric the change claims to improve")
    parser.add_argument("--claim-on", nargs="+", default=None, metavar="WORKLOAD",
                        help="workloads the claim is made on (default: every listed workload)")
    parser.add_argument("--json", type=Path, default=None, help="write every run's JSON line here")
    args = parser.parse_args(argv)

    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:
        spec = load_spec(roots["parent"], roots["change"])
    except ValueError as exc:
        parser.error(str(exc))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must be one of {sorted(metrics)}")
    seconds = spec["run_seconds"]
    claimed_on = set(args.workloads if args.claim_on is None else args.claim_on)

    print(f"{args.pairs} pairs at {seconds:g} s, seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    runs: dict[str, dict[str, list[dict]]] = {w: {s: [] for s in SIDES} for w in args.workloads}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for workload in args.workloads:
            for side in order:
                runs[workload][side].append(run_once(roots[side], workload, seed, seconds))
            line = " | ".join(
                f"{side}: " + " ".join(
                    f"{name}={out['metrics'][name]['value']:.6g}" for name in metrics
                ) + f" failed={out['failed']}"
                for side in SIDES
                for out in [runs[workload][side][-1]]
            )
            print(f"pair {k + 1} seed {seed} {workload} ({order[0]} first): {line}", flush=True)

    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1))

    verdicts = judge(runs, metrics, args.claim, claimed_on)
    print("\nverdict: " + ("all rules hold" if not verdicts else "; ".join(verdicts)))
    return 0 if not verdicts else 1


if __name__ == "__main__":
    sys.exit(main())
