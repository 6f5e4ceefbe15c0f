"""Run one workload: set it up several times, replay it for a fixed
time, check every replay, and report the metrics.

An untraced run (``trace=False``) reports the end-to-end metrics.  A
traced run alternates untraced and traced replays and reports the
per-layer ledger, plus the tracing overhead read from the two kinds.

Timings are normalised to a reference CPU speed.  The effective speed
of a small shared box swings by up to 1.8x within seconds (process CPU
time tracks wall time through it, so it is not time slicing), which no
number of repetitions averages away.  A fixed probe — interpreter and
small-numpy work that never touches the library — runs before every
set-up and replay and after the last; each timing is scaled by
:data:`PROBE_REFERENCE` over the probe rate around it.  Raw timings are
printed beside the normalised ones.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from perfbench.tracing import Ledger, Tracer, ledger
from perfbench.workloads import WORKLOADS, Rep, Workload

__all__ = ["END_TO_END", "LAYERS", "PER_LAYER", "RunResult", "blas_threads", "cpu_probe", "run"]

N_SETUPS = 9
PROBE_UNITS = 200_000
PROBE_REFERENCE = 4.0e6  # probe units/s: roughly the reference box at full speed

END_TO_END = {
    "decided_eps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "incremental_revenue": "revenue",
    "revenue_ratio": "ratio",
}

# span layers, in the order the ledger prints them
LAYERS = (
    "replay",
    "engine",
    "model",
    "pacer",
    "roi_star",
    "oracle",
    "promoter",
    "welch",
    "retrainer",
    "refit",
    "deadline",
    "fleet",
)

# A layer's self seconds per replay are ``<layer>.share`` x ``trace.wall_s``;
# layers a workload never reaches read 0, which a ratio may and a time
# metric should not (it would read exactly the same on every run)
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in
       (("share", "ratio"), ("calls", "count"))},
    "trace.wall_s": "s",
    "engine.rows_per_flush": "count",
    "engine.flushes_batch_full": "count",
    "engine.flushes_deadline": "count",
    "engine.cache_hit_ratio": "ratio",
    "model.rows": "count",
    "model.rows_per_s": "1/s",
    "pacer.refreshes": "count",
    "pacer.lockouts": "count",
    "pacer.admit_ratio": "ratio",
    "pacer.spend_ratio": "ratio",
    "promoter.promotions": "count",
    "retrainer.refits": "count",
    "retrainer.staged_ratio": "ratio",
    "fleet.wait_share": "ratio",
    "fleet.shard_skew": "ratio",
    "fleet.cache_hit_ratio": "ratio",
    "shm.segments_leaked": "count",
    "setup.cohort_s": "s",
    "setup.fit_s": "s",
    "setup.pool_s": "s",
    "trace.overhead": "ratio",
}


def cpu_probe() -> float:
    """Run a fixed mix of dict, deque, float and small-numpy work —
    the kind the decision path does — and return units per second."""
    table: dict[int, float] = {}
    recent: deque[int] = deque(maxlen=64)
    block = np.arange(16.0)
    acc = 0.0
    start = time.perf_counter()
    for i in range(PROBE_UNITS):
        table[i & 1023] = acc
        recent.append(i)
        acc += (i * 0.5) % 7.0
        if i & 63 == 0:
            acc += float(np.mean(block))
    return PROBE_UNITS / (time.perf_counter() - start)


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if unreadable."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def peak_rss_mb(workload: Workload) -> float:
    """Peak resident memory of this process plus the workload's largest
    worker process, if it has any.  Linux reports KiB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workload.worker_rss_kib) / 1024.0


@dataclass
class Timed:
    """A set-up or a replay, with the probe rate measured around it."""

    speed: float
    traced: bool = False
    setup: dict[str, float] | None = None
    rep: Rep | None = None

    @property
    def scale(self) -> float:
        """Multiplier taking this measurement's seconds to reference speed."""
        return self.speed / PROBE_REFERENCE


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    setups: list[Timed] = field(default_factory=list)
    replays: list[Timed] = field(default_factory=list)
    rss_mb: float = 0.0

    @property
    def reps(self) -> list[tuple[bool, Rep]]:
        return [(timed.traced, timed.rep) for timed in self.replays]

    @property
    def attempted(self) -> int:
        return sum(rep.arrivals for _traced, rep in self.reps)

    @property
    def failed(self) -> int:
        return sum(rep.arrivals for _traced, rep in self.reps if not rep.ok)

    def completed(self, traced: bool) -> list[Timed]:
        return [t for t in self.replays if t.traced == traced and t.rep.wall is not None]

    def metrics(self) -> dict[str, tuple[float, str]]:
        return self.layer_metrics() if self.trace else self.end_to_end()

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        done = self.completed(traced=False)
        if not done:
            raise RuntimeError("no replay completed; nothing to report")
        values = {
            "decided_eps": statistics.median(t.rep.arrivals / (t.rep.wall * t.scale) for t in done),
            "setup_s": statistics.median(t.setup["total"] * t.scale for t in self.setups),
            "peak_rss_mb": self.rss_mb,
            "incremental_revenue": statistics.median(t.rep.revenue for t in done),
            "revenue_ratio": statistics.median(t.rep.revenue / t.rep.oracle_revenue for t in done),
        }
        return {name: (values[name], unit) for name, unit in END_TO_END.items()}

    def raw_timings(self) -> dict[str, float]:
        done = self.completed(traced=False)
        return {
            "decided_eps": statistics.median(t.rep.arrivals / t.rep.wall for t in done) if done else 0.0,
            "setup_s": statistics.median(t.setup["total"] for t in self.setups),
            "probe": statistics.median(t.speed for t in self.setups + self.replays),
        }

    def ledger(self) -> tuple[Ledger, list[Rep]]:
        traced = [t.rep for t in self.completed(traced=True) if t.rep.ledger is not None]
        if not traced:
            raise RuntimeError("no traced replay completed; nothing to report")
        total = Ledger()
        for rep in traced:
            total.add(rep.ledger)
        return total, traced

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        total, traced = self.ledger()
        k = len(traced)
        counts = {key: statistics.fmean(rep.counts.get(key, 0.0) for rep in traced)
                  for key in traced[0].counts}

        def ratio(num: str, den: str) -> float:
            return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

        values: dict[str, float] = {"trace.wall_s": total.wall / k}
        for layer in LAYERS:
            values[f"{layer}.share"] = total.share(layer)
            values[f"{layer}.calls"] = total.calls.get(layer, 0) / k
        model_self = total.self_s.get("model", 0.0)
        fleet = "fleet.shard_skew" in counts
        values.update({
            "engine.rows_per_flush": ratio("engine.rows_scored", "engine.flushes"),
            "engine.flushes_batch_full": counts.get("engine.flush_batch_full", 0.0),
            "engine.flushes_deadline": counts.get("engine.flush_deadline", 0.0),
            "engine.cache_hit_ratio": ratio("engine.cache_hits", "engine.requests"),
            "model.rows": counts.get("engine.rows_scored", 0.0),
            "model.rows_per_s": counts.get("engine.rows_scored", 0.0) * k / model_self if model_self else 0.0,
            "pacer.refreshes": counts.get("pacer.refreshes", 0.0),
            "pacer.lockouts": counts.get("pacer.lockouts", 0.0),
            "pacer.admit_ratio": ratio("pacer.admitted", "pacer.seen"),
            "pacer.spend_ratio": ratio("pacer.spend", "pacer.budget"),
            "promoter.promotions": counts.get("promoter.promotions", 0.0),
            "retrainer.refits": counts.get("retrainer.refits", 0.0),
            "retrainer.staged_ratio": ratio("retrainer.staged", "retrainer.refits"),
            "fleet.wait_share": (total.totals.get("fleet.flush", 0.0) + total.totals.get("fleet.join", 0.0))
            / total.wall,
            "fleet.shard_skew": counts.get("fleet.shard_skew", 0.0),
            "fleet.cache_hit_ratio": ratio("engine.cache_hits", "engine.requests") if fleet else 0.0,
            "shm.segments_leaked": counts.get("shm.segments_leaked", 0.0),
            "setup.cohort_s": statistics.median(t.setup["cohort_s"] for t in self.setups),
            "setup.fit_s": statistics.median(t.setup["fit_s"] for t in self.setups),
            "setup.pool_s": statistics.median(t.setup["pool_s"] for t in self.setups),
        })
        plain = self.completed(traced=False)
        values["trace.overhead"] = (
            statistics.median(t.rep.wall * t.scale for t in self.completed(traced=True))
            / statistics.median(t.rep.wall * t.scale for t in plain) - 1.0
            if plain else 0.0
        )
        return {name: (values[name], unit) for name, unit in PER_LAYER.items()}

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics().items()},
        })


def replay_once(workload: Workload, traced: bool) -> Rep:
    """One checked replay; a raising replay is a failed repetition,
    never the end of the run."""
    tracer = Tracer() if traced else None
    try:
        rep = workload.rep(tracer)
    except Exception:  # the run continues; every arrival of this replay counts as failed
        traceback.print_exc(file=sys.stderr)
        return Rep(arrivals=workload.arrivals, failures=["replay raised"])
    finally:
        if tracer is not None:
            tracer.remove()
    if tracer is not None:
        rep.ledger = ledger(tracer.recorder.take())
    return rep


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    n_users: int | None = None,
    n_setups: int = N_SETUPS,
    log=print,
) -> RunResult:
    """Set ``name`` up ``n_setups`` times, then replay the last set-up
    until ``seconds`` have passed (three replays at least; a traced run
    alternates plain and traced replays, at least one of each)."""
    cls = WORKLOADS[name]
    out = RunResult(workload=name, seed=seed, trace=trace)
    probe = cpu_probe()

    def measured(action) -> tuple[object, float]:
        """Run ``action`` and return it with the mean probe rate around it.
        Earlier replays' garbage is collected first, so each starts from
        the same heap and peak memory does not grow with their number."""
        nonlocal probe
        gc.collect()
        before = probe
        value = action()
        probe = cpu_probe()
        return value, (before + probe) / 2

    workload = None
    try:
        for k in range(n_setups):
            if workload is not None:
                workload.close()
            workload = cls(seed, n_users)
            times, speed = measured(workload.setup)
            out.setups.append(Timed(speed=speed, setup=times))
            log(f"setup {k + 1}/{n_setups}: {times['total']:.3f} s (fit {times['fit_s']:.3f} s, "
                f"cohorts {times['cohort_s']:.3f} s, pool {times['pool_s']:.3f} s), probe {speed:.4g}/s")
        min_reps = 2 if trace else 3
        start = time.perf_counter()
        while len(out.replays) < min_reps or time.perf_counter() - start < seconds:
            traced = trace and len(out.replays) % 2 == 1
            rep, speed = measured(lambda: replay_once(workload, traced))
            out.replays.append(Timed(speed=speed, traced=traced, rep=rep))
            log(describe(len(out.replays), traced, rep, speed))
    finally:
        if workload is not None:
            workload.close()
    out.rss_mb = peak_rss_mb(workload)
    return out


def describe(index: int, traced: bool, rep: Rep, speed: float) -> str:
    kind = "traced" if traced else "plain"
    if rep.wall is None:
        return f"rep {index} ({kind}): FAILED {'; '.join(rep.failures)}"
    status = "ok" if rep.ok else "FAILED " + "; ".join(rep.failures)
    return (f"rep {index} ({kind}): {rep.arrivals} arrivals in {rep.wall:.3f} s = "
            f"{rep.arrivals / rep.wall:.0f} decided/s at probe {speed:.4g}/s, revenue "
            f"{rep.revenue:.2f} (ratio {rep.revenue / rep.oracle_revenue:.4f}) {status}")


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


def report(result: RunResult, log=print) -> None:
    """Human-readable summary; the JSON line follows it."""
    metrics = result.metrics()
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        log(f"  {name:<{width}}  {value:>14.6g} {unit}")
    if result.trace:
        total, traced = result.ledger()
        log(f"  {'layer':<10} {'self_s':>10} {'share':>8} {'calls':>10}   (per traced replay)")
        for layer in LAYERS:
            log(f"  {layer:<10} {total.self_s.get(layer, 0.0) / len(traced):>10.4f} "
                f"{total.share(layer):>8.4f} {total.calls.get(layer, 0) / len(traced):>10.0f}")
        log(f"  ledger shares sum to {sum(total.share(layer) for layer in total.self_s):.6f}")
    else:
        raw = result.raw_timings()
        log(f"  raw (not normalised): decided_eps {raw['decided_eps']:.6g} 1/s, setup_s "
            f"{raw['setup_s']:.6g} s; median probe {raw['probe']:.4g}/s vs reference {PROBE_REFERENCE:.4g}/s")
    latencies = [rep.sim_latency for _t, rep in result.reps if rep.sim_latency is not None]
    if latencies:
        p50, p999, count = latencies[-1]
        log(f"  sim latency (ManualClock, simulated ms): p50 {p50:.1f} ms, p99.9 {p999:.1f} ms "
            f"over {count} samples per replay")
    share = result.failed / result.attempted if result.attempted else 0.0
    log(f"  failed_share {share:.6g} ({result.failed} of {result.attempted} arrivals)")
