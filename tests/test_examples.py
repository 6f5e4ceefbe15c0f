"""Smoke runs of the example scripts that drive the serving and A/B APIs.

Each script runs in a fresh interpreter at a small size and must exit
cleanly; the examples assert their own invariants (deadline bound,
budget, fleet accounting) along the way.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXAMPLES = [
    ["multi_day_serving.py", "--days", "2", "--users", "400"],
    ["serving_metrics.py", "--days", "2", "--users", "400"],
    ["policy_replay.py", "--days", "1", "--cohort", "400"],
    ["sharded_serving.py", "--users", "3000", "--shards", "2"],
    # the two examples that attribute outcomes to a promoter or a retrainer
    ["auto_promotion.py", "--days", "3", "--users", "1200"],
    ["streaming_retraining.py", "--days", "3", "--users", "800"],
]


@pytest.mark.parametrize("argv", EXAMPLES, ids=[argv[0] for argv in EXAMPLES])
def test_example_runs(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
