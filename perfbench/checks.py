"""Correctness checks run on every repetition of every workload.

Each check returns a list of failure messages (empty when the
repetition is correct).  A failed check does not stop the benchmark:
the runner counts the repetition's arrivals as failed and carries on.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["check_campaign", "check_day", "check_fleet", "check_latency"]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_day(result, cohort, arrivals: int, pacer=None) -> list[str]:
    """One replayed day: budget respected, every arrival decided exactly
    once, and the reported revenue equal to the ground truth recomputed
    from the treated set.

    ``arrivals`` is how many arrivals the traffic source emitted.
    ``pacer`` is the day's ``BudgetPacer`` when the caller owns it.  The
    pacer's running counters are kept apart from the replay's ``treated``
    mask, so comparing the two catches an arrival admitted twice while
    another is never decided, which the mask alone cannot show.
    """
    n = cohort.n
    failures = []
    if not result.spend <= result.budget:
        failures.append(f"spend {result.spend!r} exceeds budget {result.budget!r}")
    if arrivals != n:
        failures.append(f"{arrivals} arrivals emitted, cohort has {n}")
    requests = result.engine_stats.get("requests")
    if requests != n:
        failures.append(f"engine received {requests} requests for {n} arrivals")
    treated = np.asarray(result.treated, dtype=bool)
    if treated.shape != (n,):
        return failures + [f"treated mask of shape {treated.shape} for {n} arrivals"]
    cost = float(np.sum(cohort.tau_c[treated]))
    if not _close(cost, result.spend):
        failures.append(f"spend {result.spend!r} != cost of the treated arrivals {cost!r}")
    revenue = float(np.sum(cohort.tau_r[treated]))
    if not _close(revenue, result.incremental_revenue):
        failures.append(f"incremental_revenue {result.incremental_revenue!r} != ground truth {revenue!r}")
    if pacer is not None:
        if pacer.n_seen != n:
            failures.append(f"pacer decided {pacer.n_seen} offers for {n} arrivals")
        if pacer.n_admitted != int(treated.sum()):
            failures.append(f"pacer admitted {pacer.n_admitted}, {int(treated.sum())} arrivals treated")
        offered = float(np.sum(cohort.tau_c))
        if not _close(pacer.offered_cost, offered):
            failures.append(f"pacer was offered cost {pacer.offered_cost!r}, the cohort's is {offered!r}")
    return failures


def check_campaign(result, cohorts, arrivals: int) -> list[str]:
    """A multi-day campaign: every day passes :func:`check_day` and the
    campaign spend stays within the plan (the sum of base budgets)."""
    failures = []
    if len(result.days) != len(cohorts):
        return [f"{len(result.days)} days replayed, {len(cohorts)} planned"]
    per_day = sum(cohort.n for cohort in cohorts)
    if arrivals != per_day:
        failures.append(f"{arrivals} arrivals emitted for {per_day} planned")
    for day, (day_result, cohort) in enumerate(zip(result.days, cohorts), start=1):
        failures += [f"day {day}: {msg}" for msg in check_day(day_result, cohort, cohort.n)]
    plan = result.total_base_budget
    if not result.total_spend <= plan * (1 + 1e-12):
        failures.append(f"campaign spend {result.total_spend!r} exceeds plan {plan!r}")
    return failures


def check_latency(p999_ms: float, max_latency_ms: float, relative_error: float) -> list[str]:
    """Deadline flushing keeps every simulated submit→score wait within
    ``max_latency_ms``; the sketch's quantile may read up to its
    relative error above the exact order statistic."""
    if p999_ms <= max_latency_ms * (1.0 + relative_error):
        return []
    return [f"sim latency p99.9 {p999_ms!r} ms exceeds max_latency_ms {max_latency_ms!r}"]


def check_fleet(requests: int, arrivals: int, leaked: int) -> list[str]:
    """Fleet accounting and segment hygiene: the merged shard counters
    saw every arrival, and ``close()`` left no shared segment behind."""
    failures = []
    if requests != arrivals:
        failures.append(f"merged fleet requests {requests} != {arrivals} arrivals")
    if leaked != 0:
        failures.append(f"{leaked} shared-memory segments still live after close()")
    return failures
