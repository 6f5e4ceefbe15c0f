"""The verdicts of ``benchmarks/perf_pairs.py`` on made-up pair runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

METRICS = {
    "decided_eps": {"name": "decided_eps", "better": "higher", "bound": 0.25},
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
}


def result(decided_eps, setup_s, failed=0):
    return {
        "metrics": {"decided_eps": {"value": decided_eps}, "setup_s": {"value": setup_s}},
        "failed": failed,
        "attempted": 1000,
    }


def runs(parent, change):
    """One workload's runs from ``(decided_eps, setup_s)`` pairs."""
    return {"w": {"parent": [result(*v) for v in parent], "change": [result(*v) for v in change]}}


PARENT = [(100.0 + k, 1.0 + 0.01 * k) for k in range(10)]


def judge(parent, change, claim="decided_eps"):
    return perf_pairs.judge(runs(parent, change), METRICS, claim, {"w"})


def test_a_claim_that_holds():
    assert judge(PARENT, [(300.0 + k, 1.0 + 0.01 * k) for k in range(10)]) == []


def test_a_claim_won_on_eight_of_ten_pairs_fails():
    change = [(300.0, 1.0)] * 8 + [(50.0, 1.0)] * 2
    assert judge(PARENT, change) == ["w: claim on decided_eps does not hold"]


def test_a_claim_inside_the_parents_spread_fails():
    change = [(p + 5.0, s) for p, s in PARENT]  # wins every pair, gap 5 < parent IQR
    assert judge(PARENT, change) == ["w: claim on decided_eps does not hold"]


def test_a_metric_worse_than_its_bound():
    change = [(300.0, 1.5 + 0.01 * k) for k in range(10)]
    assert judge(PARENT, change) == ["w: setup_s worse than its bound"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [(100.0, s) for s in (0.5, 0.5, 0.5, 0.8, 1.0, 1.0, 1.2, 1.5, 1.5, 1.5)]
    assert judge(wide, wide, claim=None) == ["w: setup_s unresolved"]


def test_a_wide_spread_is_resolved_when_every_change_run_is_better():
    wide = [(100.0, s) for s in (1.0, 1.0, 1.0, 1.6, 2.0, 2.0, 2.4, 3.0, 3.0, 3.0)]
    faster = [(100.0, s - 0.5) for _, s in wide]
    assert judge(wide, faster, claim=None) == ["w: setup_s unresolved"]
    fastest = [(100.0, 0.9)] * 10
    assert judge(wide, fastest, claim=None) == []


def test_failed_share_may_not_grow():
    r = runs(PARENT, PARENT)
    r["w"]["change"][0]["failed"] = 1
    assert perf_pairs.judge(r, METRICS, None, set()) == ["w: failed share grew"]


def test_bounds_and_run_length_come_from_the_parent(tmp_path):
    spec = {"run_seconds": 20, "end_to_end": list(METRICS.values())}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    assert perf_pairs.load_spec(tmp_path / "parent", tmp_path / "change") == spec
    loosened = {**spec, "run_seconds": 5}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(loosened))
    with pytest.raises(ValueError, match="differs"):
        perf_pairs.load_spec(tmp_path / "parent", tmp_path / "change")
    with pytest.raises(SystemExit):
        perf_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                         "--workloads", "w"])


def test_fewer_than_ten_pairs_are_refused(tmp_path):
    with pytest.raises(SystemExit):
        perf_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--workloads", "w",
                         "--pairs", "9", "--claim", "decided_eps"])
