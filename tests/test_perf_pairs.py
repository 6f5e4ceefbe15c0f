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


def result(decided_eps, setup_s, failed=0, revenue=(500.0, 0.99)):
    incremental_revenue, revenue_ratio = revenue
    return {
        "metrics": {
            "decided_eps": {"value": decided_eps},
            "setup_s": {"value": setup_s},
            "incremental_revenue": {"value": incremental_revenue},
            "revenue_ratio": {"value": revenue_ratio},
        },
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


def test_identical_decisions_are_counted_not_judged(capsys):
    r = runs(PARENT, PARENT)
    r["w"]["change"][3]["metrics"]["revenue_ratio"]["value"] = 0.9900000000000001
    r["w"]["change"][5]["metrics"]["incremental_revenue"]["value"] = 499.0
    assert perf_pairs.identical_decisions(r["w"]) == 8
    assert perf_pairs.judge(r, METRICS, None, set()) == []
    assert "identical decisions: 8/10 pairs" in capsys.readouterr().out


def test_json_is_written_after_every_pair(tmp_path, monkeypatch):
    spec = {"run_seconds": 20, "end_to_end": list(METRICS.values())}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append(seed)
        if seed == 8 and root.name == "change":
            raise RuntimeError("run failed")
        return result(100.0 + seed, 1.0)

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    out = tmp_path / "runs.json"
    with pytest.raises(RuntimeError, match="run failed"):
        perf_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                         "--workloads", "w", "--json", str(out)])
    written = json.loads(out.read_text())
    assert [len(written["w"][side]) for side in ("parent", "change")] == [8, 8]
    assert [r["metrics"]["decided_eps"]["value"] for r in written["w"]["parent"]] == [
        100.0 + seed for seed in range(8)
    ]


@pytest.mark.parametrize(
    "claim_args",
    [["--claim", "decided_eps", "--claim-on", "w2"], ["--claim-on", "w"]],
    ids=["claim-on-a-workload-that-does-not-run", "claim-on-without-claim"],
)
def test_a_claim_that_would_go_unjudged_is_refused_before_any_run(tmp_path, monkeypatch, claim_args):
    """Regression: ``--claim-on`` a workload missing from ``--workloads``
    used to run every pair and print "all rules hold" with the claim
    never judged."""
    spec = {"run_seconds": 20, "end_to_end": list(METRICS.values())}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_once(root, workload, seed, seconds):
        raise AssertionError("a pair ran")

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    with pytest.raises(SystemExit) as exit_info:
        perf_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                         "--workloads", "w", *claim_args])
    assert exit_info.value.code == 2


def test_paired_decision_deltas_are_printed_not_judged(capsys):
    r = runs(PARENT, PARENT)
    for k, out in enumerate(r["w"]["change"]):
        out["metrics"]["incremental_revenue"]["value"] += k - 3.0
    assert perf_pairs.paired_deltas(r["w"], "incremental_revenue") == [k - 3.0 for k in range(10)]
    assert perf_pairs.judge(r, METRICS, None, set()) == []
    printed = capsys.readouterr().out
    assert ("paired delta incremental_revenue (change - parent): median +1.5 (+0.3000% of the parent's "
            "median), q1 -1.25, q3 +4.25, negative on 3/10 pairs") in printed
    assert ("paired delta revenue_ratio (change - parent): median +0 (+0.0000% of the parent's median), "
            "q1 +0, q3 +0, negative on 0/10 pairs") in printed


def traced(calls: dict[str, float], shares: dict[str, float], wall_s: float, counts: dict[str, float]) -> dict:
    """A made-up ``--trace 1`` JSON result."""
    metrics = {}
    for layer, n in calls.items():
        metrics[f"{layer}.share"] = {"value": shares[layer], "unit": "ratio"}
        metrics[f"{layer}.calls"] = {"value": n, "unit": "count"}
    metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    metrics.update({name: {"value": v, "unit": "count"} for name, v in counts.items()})
    metrics["model.rows_per_s"] = {"value": 1e6, "unit": "1/s"}
    return {"metrics": metrics, "failed": 0, "attempted": 1000}


def test_ledger_lines_compare_calls_and_self_seconds():
    parent = traced({"engine": 102275.0, "deadline": 141279.0}, {"engine": 0.25, "deadline": 0.125},
                    2.0, {"model.rows": 20000.0, "pacer.refreshes": 308.0})
    change = traced({"engine": 102275.0, "deadline": 141280.0}, {"engine": 0.3, "deadline": 0.1},
                    1.5, {"model.rows": 20000.0, "pacer.refreshes": 309.0})
    lines = perf_pairs.ledger_lines(parent, change)
    assert lines[1].split() == ["engine", "102275", "102275", "0.5000", "0.4500"]
    assert lines[2].split() == ["deadline", "141279", "141280", "0.2500", "0.1500", "calls", "differ"]
    assert lines[3].split() == ["model.rows", "20000", "20000"]
    assert lines[4].split() == ["pacer.refreshes", "308", "309", "differs"]
    assert len(lines) == 5  # rates and times are not counts


def test_ledger_runs_one_traced_run_per_side_after_the_pairs(tmp_path, monkeypatch, capsys):
    spec = {"run_seconds": 20, "end_to_end": list(METRICS.values())}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def run_once(root, workload, seed, seconds, trace=0):
        calls.append((root.name, seed, trace))
        if trace:
            return traced({"engine": 10.0}, {"engine": 0.5}, 1.0, {})
        return result(100.0 + seed, 1.0)

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    assert perf_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                            "--workloads", "w", "--ledger", "7"]) == 0
    assert calls[-2:] == [("parent", 7, 1), ("change", 7, 1)]
    assert all(trace == 0 for _root, _seed, trace in calls[:-2])
    printed = capsys.readouterr().out
    assert "ledger on seed 7" in printed
    assert printed.rstrip().endswith("verdict: all rules hold")


def test_src_line_totals_are_printed_before_the_first_pair(tmp_path, monkeypatch, capsys):
    spec = {"run_seconds": 20, "end_to_end": list(METRICS.values())}
    files = {
        "parent": {"src/a.py": "1\n2\n3\n", "src/pkg/b.py": "x = 1\ny = 2\n", "src/notes.txt": "1\n2\n"},
        "change": {"src/a.py": "1\n", "src/pkg/c.py": "a\nb\nc\nd\ne", "tests/t.py": "1\n" * 9},
    }
    for side, tree in files.items():
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
        for name, text in tree.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text)
    assert [perf_pairs.src_lines(tmp_path / side) for side in files] == [5, 6]
    assert perf_pairs.src_lines(tmp_path / "no-such-checkout") == 0

    monkeypatch.setattr(perf_pairs, "run_once", lambda root, workload, seed, seconds: result(100.0, 1.0))
    assert perf_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                            "--workloads", "w"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == "src/**/*.py lines: parent 5, change 6, net +1 (informative, judges nothing)"
    assert printed[2].startswith("pair 1 ")
