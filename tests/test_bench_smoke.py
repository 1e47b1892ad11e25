"""Smoke test of the benchmark harness: one quick pass of each workload.

Each run executes the workload's commands once through
`perfbench/run.py --quick` and must finish with every output check passed.
The run records go to the ignored `perfbench/out/`.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["selfplay-n25", "mw-train", "exact-n7"])
def test_quick_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "97", "--quick", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
