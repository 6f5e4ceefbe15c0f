"""Tests for repro.analysis — the contract linter.

Three layers:

1. **The gate**: the full rule set over ``src/`` yields zero findings.
   Because unused suppressions are themselves findings (RPR000), this
   single assertion pins every shipped fix *and* every shipped
   suppression: deleting a fix resurfaces its finding; deleting a
   violation while keeping its allow comment trips the staleness audit.
2. **Per-rule fixtures**: every ``bad_*`` fixture under
   ``tests/analysis_fixtures/`` must produce findings exactly on the
   lines marked ``# finding`` (and only with its directory's code);
   every other fixture must be clean.
3. **Plumbing**: suppressions, the RPR000 audit, the JSON schema
   round-trip, and the CLI's exit-code contract.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    META_CODE,
    SCHEMA,
    Analyzer,
    Finding,
    analyze_paths,
    analyze_source,
    default_rules,
    findings_from_json,
    iter_python_files,
    render_json,
    render_text,
    scan_suppressions,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "analysis_fixtures"

RULE_DIRS = sorted(
    d.name for d in FIXTURES.iterdir() if d.is_dir() and d.name.startswith("rpr")
)


# ---------------------------------------------------------------------------
# 1. the gate
# ---------------------------------------------------------------------------
def test_src_tree_is_clean():
    """The acceptance criterion: zero findings over src/.

    This also audits every inline suppression — a stale allow comment
    or an unknown code shows up here as RPR000.
    """
    findings = analyze_paths([SRC])
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_src_suppressions_are_few_and_deliberate():
    """Every shipped suppression is enumerable; growth is a review event."""
    total = 0
    for path in iter_python_files([SRC]):
        total += sum(len(s.codes) for s in scan_suppressions(path.read_text()))
    assert total <= 6, "suppression budget exceeded — fix the code instead"


# ---------------------------------------------------------------------------
# 2. per-rule fixtures
# ---------------------------------------------------------------------------
def _marked_lines(path: Path) -> set[int]:
    return {
        i
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "# finding" in line
    }


def _fixture_files(kind: str):
    for rule_dir in RULE_DIRS:
        for path in sorted((FIXTURES / rule_dir).rglob("*.py")):
            is_bad = path.name.startswith("bad_")
            if (kind == "bad") == is_bad:
                yield pytest.param(
                    rule_dir, path, id=f"{rule_dir}/{path.relative_to(FIXTURES / rule_dir)}"
                )


@pytest.mark.parametrize("rule_dir, path", _fixture_files("bad"))
def test_bad_fixture_findings(rule_dir, path):
    expected_code = rule_dir.upper()
    findings = analyze_source(path, path.read_text())
    assert findings, f"{path} should produce findings"
    assert {f.code for f in findings} == {expected_code}
    assert {f.line for f in findings} == _marked_lines(path), "\n" + "\n".join(
        f.format() for f in findings
    )


@pytest.mark.parametrize("rule_dir, path", _fixture_files("good"))
def test_good_fixture_is_clean(rule_dir, path):
    findings = analyze_source(path, path.read_text())
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_every_rule_has_fixtures():
    codes = {rule.code for rule in default_rules()}
    assert {d.upper() for d in RULE_DIRS} == codes
    for rule_dir in RULE_DIRS:
        names = [p.name for p in (FIXTURES / rule_dir).rglob("*.py")]
        assert any(n.startswith("bad_") for n in names), rule_dir
        assert not all(n.startswith("bad_") for n in names), rule_dir


# ---------------------------------------------------------------------------
# 3a. suppressions and the RPR000 audit
# ---------------------------------------------------------------------------
def test_suppressed_fixture_is_clean():
    path = FIXTURES / "suppress" / "good_suppressed.py"
    assert analyze_source(path, path.read_text()) == []


def test_multi_code_suppression_covers_both():
    source = (FIXTURES / "suppress" / "good_suppressed.py").read_text()
    sups = scan_suppressions(source)
    assert any(set(s.codes) == {"RPR001", "RPR006"} for s in sups)


def test_allow_shaped_string_literal_is_not_a_suppression():
    sups = scan_suppressions('X = "# repro: allow[RPR001]"\n')
    assert sups == []


def test_unused_suppression_is_reported():
    path = FIXTURES / "suppress" / "bad_unused_suppression.py"
    findings = analyze_source(path, path.read_text())
    assert [f.code for f in findings] == [META_CODE]
    assert "unused suppression" in findings[0].message


def test_unknown_code_suppression_is_reported_and_does_not_suppress():
    path = FIXTURES / "suppress" / "bad_unknown_code.py"
    findings = analyze_source(path, path.read_text())
    codes = sorted(f.code for f in findings)
    # the RPR999 comment silences nothing: the RPR001 finding survives,
    # and the bogus code is reported on top
    assert codes == [META_CODE, "RPR001"]


def test_suppression_on_wrong_line_does_not_apply():
    source = "import time\n# repro: allow[RPR001]\nt = time.time()\n"
    findings = analyze_source("x.py", source)
    assert sorted(f.code for f in findings) == [META_CODE, "RPR001"]


def test_syntax_error_is_a_meta_finding():
    findings = analyze_source("broken.py", "def f(:\n")
    assert [f.code for f in findings] == [META_CODE]
    assert "does not parse" in findings[0].message


def test_duplicate_rule_codes_rejected():
    rules = default_rules()
    with pytest.raises(ValueError, match="duplicate"):
        Analyzer(rules + [rules[0]])


def test_iter_python_files_rejects_non_python():
    with pytest.raises(FileNotFoundError):
        list(iter_python_files([FIXTURES / "does_not_exist.txt"]))


# ---------------------------------------------------------------------------
# 3b. reporters
# ---------------------------------------------------------------------------
def _sample_findings() -> list[Finding]:
    path = FIXTURES / "rpr006" / "bad_dropped.py"
    return analyze_source(path, path.read_text())


def test_json_round_trip():
    findings = _sample_findings()
    assert findings
    payload = render_json(findings)
    assert findings_from_json(payload) == findings
    doc = json.loads(payload)
    assert doc["schema"] == SCHEMA
    assert doc["count"] == len(findings)


def test_json_rejects_wrong_schema():
    with pytest.raises(ValueError, match="schema"):
        findings_from_json(json.dumps({"schema": "nope/9", "findings": []}))


def test_json_rejects_count_mismatch():
    doc = json.loads(render_json(_sample_findings()))
    doc["count"] += 1
    with pytest.raises(ValueError, match="count"):
        findings_from_json(json.dumps(doc))


def test_text_report_format():
    findings = _sample_findings()
    text = render_text(findings)
    lines = text.splitlines()
    assert lines[-1].endswith("findings")
    assert all(":RPR006 "[1:] in line for line in lines[:-1])
    assert render_text([]) == "0 findings"


# ---------------------------------------------------------------------------
# 3c. the CLI contract
# ---------------------------------------------------------------------------
def _run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )


def test_cli_clean_tree_exits_zero():
    proc = _run_cli(str(FIXTURES / "rpr006" / "good_consumed.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_cli_findings_exit_one_json():
    proc = _run_cli("--format", "json", str(FIXTURES / "rpr006" / "bad_dropped.py"))
    assert proc.returncode == 1
    findings = findings_from_json(proc.stdout)
    assert findings and all(f.code == "RPR006" for f in findings)


def test_cli_output_file(tmp_path):
    out = tmp_path / "report.json"
    proc = _run_cli(
        "--format",
        "json",
        "--output",
        str(out),
        str(FIXTURES / "rpr007" / "bad_bare_except.py"),
    )
    assert proc.returncode == 1
    assert findings_from_json(out.read_text())


def test_cli_missing_path_exits_two():
    proc = _run_cli("no/such/path.txt")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_cli_explain_lists_all_rules():
    proc = _run_cli("--explain")
    assert proc.returncode == 0
    for rule in default_rules():
        assert rule.code in proc.stdout
    assert META_CODE in proc.stdout


# the same contract exercised in-process (the subprocess tests above
# pin the real entry point; these pin main() itself)
def test_main_in_process_clean(capsys):
    from repro.analysis.cli import main

    code = main([str(FIXTURES / "rpr006" / "good_consumed.py")])
    assert code == 0
    assert "0 findings" in capsys.readouterr().out


def test_main_in_process_findings_json(capsys):
    from repro.analysis.cli import main

    code = main(["--format", "json", str(FIXTURES / "rpr006" / "bad_dropped.py")])
    assert code == 1
    findings = findings_from_json(capsys.readouterr().out)
    assert findings and all(f.code == "RPR006" for f in findings)


def test_main_in_process_output_file(tmp_path, capsys):
    from repro.analysis.cli import main

    out = tmp_path / "report.txt"
    code = main(
        ["--output", str(out), str(FIXTURES / "rpr007" / "bad_bare_except.py")]
    )
    assert code == 1
    assert capsys.readouterr().out == ""
    assert "RPR007" in out.read_text()


def test_main_in_process_missing_path(capsys):
    from repro.analysis.cli import main

    assert main(["no/such/path.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_in_process_explain(capsys):
    from repro.analysis.cli import main

    assert main(["--explain"]) == 0
    out = capsys.readouterr().out
    assert all(rule.code in out for rule in default_rules())
