"""Tests for the benchmark's own code: the span ledger, the correctness
checks, and tiny runs of every workload."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import bench
from perfbench.checks import check_campaign, check_day, check_fleet, check_latency
from perfbench.tracing import Ledger, SpanRecorder, Tracer, ledger
from perfbench.workloads import WORKLOADS, DayDrpStream, PreparedTraffic, draw_days
from repro.serving import BudgetPacer, ScoringEngine, TrafficReplay

ROOT = Path(__file__).resolve().parents[2]
TINY = 800


def quiet(*_args) -> None:
    pass


# ---------------------------------------------------------------------------
# ledger arithmetic
# ---------------------------------------------------------------------------
# replay [0,10] > engine.submit [1,4] > engine.flush [2,3.5] > model [2.5,3]
#              > pacer.offer [5,6] > roi_star [5.2,5.5]
NESTED = [
    ("replay.replay_day", 0.0, 10.0, -1),
    ("engine.submit", 1.0, 4.0, 0),
    ("engine.flush", 2.0, 3.5, 1),
    ("model.score_batch", 2.5, 3.0, 2),
    ("pacer.offer", 5.0, 6.0, 0),
    ("roi_star.binary_search_roi_star", 5.2, 5.5, 4),
]


def test_self_time_subtracts_direct_children_only():
    out = ledger(NESTED)
    expected = {"replay": 6.0, "engine": 2.5, "model": 0.5, "pacer": 0.7, "roi_star": 0.3}
    assert out.wall == 10.0
    for layer, value in expected.items():
        assert out.self_s[layer] == pytest.approx(value)
    assert out.calls["engine"] == 2
    assert out.totals["engine.flush"] == pytest.approx(1.5)
    assert sum(out.share(layer) for layer in out.self_s) == pytest.approx(1.0)


def test_nested_calls_are_counted_once():
    # has_result -> poll -> flush, all the engine's own calls
    spans = [
        ("replay.replay_day", 0.0, 4.0, -1),
        ("engine.has_result", 1.0, 3.0, 0),
        ("engine.poll", 1.1, 2.9, 1),
        ("engine.flush", 1.2, 2.8, 2),
        ("model.score_batch", 1.5, 2.5, 3),
    ]
    out = ledger(spans)
    # wall minus every inner span's total counts the flush (and the
    # model inside it) several times over and goes negative
    assert out.wall - sum(end - start for _n, start, end, parent in spans if parent >= 0) < 0
    assert out.self_s["replay"] == pytest.approx(2.0)
    assert out.self_s["engine"] == pytest.approx(1.0)
    assert out.self_s["model"] == pytest.approx(1.0)
    assert all(value >= 0 for value in out.self_s.values())
    assert sum(out.self_s.values()) == pytest.approx(out.wall)


def test_recorder_links_parents_and_ledgers_fold():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("model.score_batch", lambda: None)
    middle = recorder.wrap("engine.flush", lambda: inner())
    outer = recorder.wrap("replay.replay_day", lambda: (middle(), middle()))
    outer()
    spans = recorder.take()
    assert [s[0] for s in spans] == ["replay.replay_day", "engine.flush", "model.score_batch",
                                     "engine.flush", "model.score_batch"]
    assert [s[3] for s in spans] == [-1, 0, 1, 0, 3]
    first = ledger(spans)
    both = Ledger()
    both.add(first)
    both.add(ledger(spans))
    assert both.wall == 2 * first.wall
    assert both.share("engine") == pytest.approx(first.share("engine"))
    assert recorder.take() == []


def test_recorder_closes_spans_when_the_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise ValueError("model failed")

    with pytest.raises(ValueError):
        recorder.wrap("model.score_batch", boom)()
    (span,) = recorder.take()
    assert span[0] == "model.score_batch" and span[2] >= span[1]


def test_tracer_removes_every_wrap():
    module = types.SimpleNamespace(fn=lambda x: x + 1)

    class Loop:
        def poll(self):
            return 7

    class Engine:
        def submit(self, x):
            return x

    engine, original_poll, original_fn = Engine(), Loop.__dict__["poll"], module.fn
    with Tracer() as tracer:
        tracer.wrap_methods(engine, "engine", ("submit",))
        tracer.wrap_attr(Loop, "poll", "deadline.poll")
        tracer.wrap_attr(module, "fn", "oracle.fn")
        assert (engine.submit(3), Loop().poll(), module.fn(1)) == (3, 7, 2)
        assert [s[0] for s in tracer.recorder.take()] == ["engine.submit", "deadline.poll", "oracle.fn"]
    assert "submit" not in vars(engine)
    assert Loop.__dict__["poll"] is original_poll
    assert module.fn is original_fn


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------
class ThresholdModel:
    def predict_roi(self, x):
        return 1.0 / (1.0 + np.exp(-np.asarray(x)[:, 0]))


def tiny_replay(n_days: int = 1):
    days = draw_days(np.random.SeedSequence(3), 500, n_days)
    traffic = PreparedTraffic(days)
    replay = TrafficReplay(traffic, ScoringEngine(ThresholdModel(), batch_size=16, cache_size=0))
    if n_days == 1:
        cohort = days[1][0]
        pacer = BudgetPacer(0.3 * float(cohort.tau_c.sum()), cohort.n)
        return replay.replay_day(cohort.n, pacer=pacer), [cohort], traffic, pacer
    result = replay.replay_days(n_days, 500)
    return result, [days[d][0] for d in range(1, n_days + 1)], traffic, None


def test_checks_pass_on_a_real_day_and_trip_on_doctored_ones():
    result, (cohort,), traffic, pacer = tiny_replay()
    assert check_day(result, cohort, traffic.emitted, pacer=pacer) == []
    overspent = dataclasses.replace(result, spend=result.budget * 1.01)
    assert any("exceeds budget" in msg for msg in check_day(overspent, cohort, cohort.n))
    inflated = dataclasses.replace(result, incremental_revenue=result.incremental_revenue + 1.0)
    assert any("ground truth" in msg for msg in check_day(inflated, cohort, cohort.n))
    assert any("arrivals" in msg for msg in check_day(result, cohort, cohort.n - 1))
    lost = dataclasses.replace(result, engine_stats={**result.engine_stats, "requests": cohort.n - 1})
    assert any("requests" in msg for msg in check_day(lost, cohort, cohort.n))


def test_day_check_holds_the_treated_mask_against_what_the_pacer_counted():
    result, (cohort,), _traffic, pacer = tiny_replay()
    counters = {"n_seen": pacer.n_seen, "n_admitted": pacer.n_admitted, "offered_cost": pacer.offered_cost}

    def with_pacer(**doctored):
        return check_day(result, cohort, cohort.n, pacer=types.SimpleNamespace(**{**counters, **doctored}))

    assert with_pacer() == []
    assert any("pacer decided" in msg for msg in with_pacer(n_seen=cohort.n + 1))
    assert any("pacer admitted" in msg for msg in with_pacer(n_admitted=pacer.n_admitted + 1))
    assert any("offered cost" in msg for msg in with_pacer(offered_cost=pacer.offered_cost * 1.01))
    # an arrival admitted twice: the pacer paid for it twice, the mask holds it once
    first = int(np.flatnonzero(result.treated)[0])
    twice = dataclasses.replace(result, spend=result.spend + float(cohort.tau_c[first]))
    assert any("cost of the treated" in msg for msg in check_day(twice, cohort, cohort.n))
    # a mask that differs from the pacer's admissions, with revenue consistent with the mask
    mask = result.treated.copy()
    mask[first] = False
    unpaid = dataclasses.replace(
        result, treated=mask, incremental_revenue=float(np.sum(cohort.tau_r[mask]))
    )
    failures = check_day(unpaid, cohort, cohort.n, pacer=pacer)
    assert not any("ground truth" in msg for msg in failures)
    assert any("cost of the treated" in msg for msg in failures)
    assert any("pacer admitted" in msg for msg in failures)


def test_campaign_check_trips_when_spend_exceeds_the_plan():
    result, cohorts, traffic, _ = tiny_replay(n_days=2)
    assert check_campaign(result, cohorts, traffic.emitted) == []
    shrunk = dataclasses.replace(
        result, ledger=[(0.5 * base, b, s, c) for base, b, s, c in result.ledger]
    )
    assert any("exceeds plan" in msg for msg in check_campaign(shrunk, cohorts, traffic.emitted))


def test_latency_and_fleet_checks():
    assert check_latency(100.0, 100.0, 0.01) == []
    assert check_latency(100.9, 100.0, 0.01) == []
    assert check_latency(102.0, 100.0, 0.01) != []
    assert check_fleet(10, 10, 0) == []
    assert len(check_fleet(9, 10, 1)) == 2


class DroppingEngine:
    """A real engine that never reports one request as scored."""

    def __init__(self, engine, lost: int) -> None:
        self._engine, self._lost = engine, lost

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def has_result(self, rid: int) -> bool:
        return rid != self._lost and self._engine.has_result(rid)


class LossyFirstRep(DayDrpStream):
    name = "lossy_first_rep"

    def make_engine(self, registry):
        self.engines_made = getattr(self, "engines_made", 0) + 1
        engine = super().make_engine(registry)
        return DroppingEngine(engine, lost=5) if self.engines_made == 1 else engine


def test_a_dropped_request_fails_its_replay_and_the_run_continues(monkeypatch):
    monkeypatch.setitem(WORKLOADS, LossyFirstRep.name, LossyFirstRep)
    result = bench.run(LossyFirstRep.name, 0, 0.0, False, n_users=TINY, n_setups=1, log=quiet)
    assert len(result.reps) == 3
    assert [rep.ok for _traced, rep in result.reps] == [False, True, True]
    assert result.failed == TINY and result.attempted == 3 * TINY
    line = json.loads(result.json_line())
    assert line["correct"] is False and line["failed"] / line["attempted"] > 0


# ---------------------------------------------------------------------------
# tiny runs of every workload
# ---------------------------------------------------------------------------
CAMPAIGN_ONLY = {"promoter", "welch", "retrainer", "refit", "deadline"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_tiny_run_completes(name, trace):
    result = bench.run(name, 1, 0.0, trace, n_users=TINY, n_setups=1, log=quiet)
    assert result.failed == 0 and result.attempted > 0
    line = json.loads(result.json_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    if not trace:
        assert all(line["metrics"][k]["value"] > 0 for k in bench.END_TO_END)
        if name != "day_rdrp_fleet":  # the fleet's shared cache races
            assert len({rep.revenue for _t, rep in result.reps}) == 1
        return
    total, _ = result.ledger()
    present = {layer for layer, calls in total.calls.items() if calls}
    assert sum(total.share(layer) for layer in total.self_s) == pytest.approx(1.0)
    assert "replay" in present
    if name == "campaign_closed_loop":
        assert {"promoter", "retrainer", "deadline"} <= present
    else:
        assert not present & CAMPAIGN_ONLY
    assert ("fleet" in present) == (name == "day_rdrp_fleet")
    assert ("engine" in present) == (name != "day_rdrp_fleet")
    if name != "day_drp_stream":  # the roi* floor needs outcome feedback
        assert "roi_star" not in present


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "day_drp_stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
