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
  by default all; each must be among ``--workloads``, and
  ``--claim-on`` needs ``--claim``): the change must be better on at
  least nine tenths of
  the pairs, ties counting for neither, and its median better than the
  parent's by more than the parent's interquartile range;
* every other end-to-end metric: the change's median may be worse than
  the parent's by at most the metric's ``BENCHMARK.json`` bound.  Where
  either side's spread (interquartile range over median) is wider than
  the bound, the metric is ``unresolved`` unless every change run reads
  better than every parent run;
* the failed share of arrivals may not grow.

Anything but "all rules hold" exits 1.  Each workload also reports on
how many pairs both sides read exactly the same ``incremental_revenue``
and ``revenue_ratio``: same seed, same decisions.  That count informs
and judges nothing: a change may move decisions on purpose.  Likewise
informative only, it prints the paired deltas of those two
metrics, change minus parent on the same seed: their median and
quartiles (also relative to the parent's median) and the number of
negative pairs.  A change that moves decisions is read on these, not
only on two medians whose seed-to-seed spread hides a small shift.
Standard library only; ``--json`` also writes every run's raw JSON line,
rewritten after each pair so a run that raises keeps the pairs before.

``--ledger SEED`` then runs ``perfbench/run.py --trace 1`` once per side
per workload on that seed, parent first, and prints each layer's calls
on both sides (flagging any that differ) and its self seconds per
replay (``<layer>.share`` x ``trace.wall_s``), followed by the other
per-layer counts.  It locates a saving and judges nothing.

Before the first pair it prints each checkout's ``src/**/*.py`` line
total and the net change, the figure a change reports; it judges
nothing either.

perfbench normalises ``decided_eps`` by a CPU probe taken around each
rep, and on a loaded box the probe can slow more than the replay.  So
each workload also prints the raw rate every run reports on its ``raw
(not normalised): decided_eps ...`` line: each side's median and
quartiles, the change/parent ratio of the raw medians, and on how many
pairs the raw and the normalised rate agree on which side is faster.
That is informative only; the claim is judged on the normalised rate.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10
DECISION_METRICS = ("incremental_revenue", "revenue_ratio")
RAW_LINE = re.compile(r"raw \(not normalised\): decided_eps (\S+) 1/s")


def load_spec(parent: Path, change: Path) -> dict:
    """The parent's ``BENCHMARK.json``; ValueError when the change's
    copy differs from it."""
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    if json.loads((change / "BENCHMARK.json").read_text()) != spec:
        raise ValueError(f"{change / 'BENCHMARK.json'} differs from the parent's {parent / 'BENCHMARK.json'}")
    return spec


def src_lines(root: Path) -> int:
    """Lines in the checkout's ``src/**/*.py`` files (0 without ``src``)."""
    return sum(len(path.read_bytes().splitlines()) for path in (root / "src").rglob("*.py"))


def raw_decided_eps(report: str) -> float | None:
    """The rate on a run's ``raw (not normalised)`` report line; None
    for a run that prints none (a traced run)."""
    match = RAW_LINE.search(report)
    return float(match.group(1)) if match else None


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run's JSON result, with the raw rate its report
    printed under ``raw_decided_eps`` (None without the line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=1800, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {**json.loads(lines[-1]), "raw_decided_eps": raw_decided_eps(proc.stdout)}


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


def identical_decisions(sides: dict[str, list[dict]]) -> int:
    """Pairs on which both sides read exactly the same
    :data:`DECISION_METRICS`."""
    return sum(
        all(p["metrics"][name]["value"] == c["metrics"][name]["value"] for name in DECISION_METRICS)
        for p, c in zip(sides["parent"], sides["change"])
    )


def paired_deltas(sides: dict[str, list[dict]], name: str) -> list[float]:
    """Change minus parent on each pair's seed, for metric ``name``."""
    return [c["metrics"][name]["value"] - p["metrics"][name]["value"]
            for p, c in zip(sides["parent"], sides["change"])]


def raw_lines(sides: dict[str, list[dict]]) -> list[str]:
    """Each side's raw ``decided_eps`` (median and quartiles), the
    change/parent ratio of the raw medians, and the pairs on which the
    raw and the normalised rate agree on the faster side."""
    raw = {side: [out.get("raw_decided_eps") for out in sides[side]] for side in SIDES}
    missing = sum(value is None for side in SIDES for value in raw[side])
    if missing:
        return [f"  raw decided_eps: missing from {missing} of {2 * len(raw['parent'])} runs, not compared"]
    lines = []
    for side in SIDES:
        med, q1, q3 = quartiles(raw[side])
        lines.append(f"  raw decided_eps {side:<7} median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}")
    normalised = [[out["metrics"]["decided_eps"]["value"] for out in sides[side]] for side in SIDES]
    agree = sum((c > p) == (rc > rp) for p, c, rp, rc in zip(*normalised, raw["parent"], raw["change"]))
    p_med, c_med = (statistics.median(raw[side]) for side in SIDES)
    ratio = f"{c_med / p_med:.3f}x" if p_med else "n/a"
    lines.append(f"  raw decided_eps change/parent median {ratio}; raw and normalised agree on the faster "
                 f"side in {agree}/{len(raw['parent'])} pairs (informative, judges nothing)")
    return lines


def ledger_lines(parent: dict, change: dict) -> list[str]:
    """Both sides' traced runs, layer by layer: calls (flagged where
    they differ) and self seconds per replay, then every other count."""
    p, c = parent["metrics"], change["metrics"]
    lines = [f"  {'layer':<10} {'parent calls':>14} {'change calls':>14} "
             f"{'parent self_s':>14} {'change self_s':>14}"]
    for name in p:
        layer = name.removesuffix(".share")
        if layer == name or f"{layer}.calls" not in p:
            continue
        calls = [m[f"{layer}.calls"]["value"] for m in (p, c)]
        self_s = [m[name]["value"] * m["trace.wall_s"]["value"] for m in (p, c)]
        flag = "  calls differ" if calls[0] != calls[1] else ""
        lines.append(f"  {layer:<10} {calls[0]:>14.10g} {calls[1]:>14.10g} "
                     f"{self_s[0]:>14.4f} {self_s[1]:>14.4f}{flag}")
    for name, metric in p.items():
        if metric.get("unit") == "count" and not name.endswith(".calls"):
            values = (metric["value"], c[name]["value"])
            flag = "  differs" if values[0] != values[1] else ""
            lines.append(f"  {name:<25} {values[0]:>14.10g} {values[1]:>14.10g}{flag}")
    return lines


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
        print(f"  identical decisions: {identical_decisions(sides)}/{pairs} pairs read the same "
              f"{' and '.join(DECISION_METRICS)}")
        for name in DECISION_METRICS:
            deltas = paired_deltas(sides, name)
            med, q1, q3 = quartiles(deltas)
            parent_med = statistics.median(o["metrics"][name]["value"] for o in sides["parent"])
            rel = f" ({med / abs(parent_med):+.4%} of the parent's median)" if parent_med else ""
            print(f"  paired delta {name} (change - parent): median {med:+.6g}{rel}, "
                  f"q1 {q1:+.6g}, q3 {q3:+.6g}, negative on {sum(d < 0 for d in deltas)}/{pairs} pairs")
        print("\n".join(raw_lines(sides)))
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
    parser.add_argument("--ledger", type=int, default=None, metavar="SEED",
                        help="after the pairs, compare one traced run per side on this seed")
    args = parser.parse_args(argv)

    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    if args.claim_on is not None:
        # a claim on a workload that never runs would never be judged
        if args.claim is None:
            parser.error("--claim-on needs --claim")
        missing = sorted(set(args.claim_on) - set(args.workloads))
        if missing:
            parser.error(f"--claim-on names workloads missing from --workloads: {' '.join(missing)}")
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
    lines = {side: src_lines(roots[side]) for side in SIDES}
    print(f"src/**/*.py lines: parent {lines['parent']}, change {lines['change']}, "
          f"net {lines['change'] - lines['parent']:+d} (informative, judges nothing)")
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
    if args.ledger is not None:
        print(f"\nledger on seed {args.ledger}: one traced run per side, parent first "
              f"(informative, judges nothing)")
        for workload in args.workloads:
            traced = {side: run_once(roots[side], workload, args.ledger, seconds, trace=1) for side in SIDES}
            print(f"{workload}:")
            print("\n".join(ledger_lines(traced["parent"], traced["change"])))
    print("\nverdict: " + ("all rules hold" if not verdicts else "; ".join(verdicts)))
    return 0 if not verdicts else 1


if __name__ == "__main__":
    sys.exit(main())
