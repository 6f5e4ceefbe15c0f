"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload day_drp_stream --seed 0 --seconds 12 --trace 0

Builds the library from this checkout's ``src/`` (nothing installed is
used), sets the workload up from ``--seed``, replays it for
``--seconds``, checks every replay, and prints a readable report
followed by one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer ledger.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one BLAS thread per process: the replay, the generator and the fleet's
# two workers then stay within the box's CPUs.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.bench import environment, report, run
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="decision-path benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {environment(args.seed)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(result.json_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
