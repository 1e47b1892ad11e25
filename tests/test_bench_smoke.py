"""Smoke tests of the benchmark harness.

Each workload runs once through `perfbench/run.py --quick` and must finish
with every output check passed; the run records go to the ignored
`perfbench/out/`. The tracer must find every function it wraps, because a
renamed target would only be recorded as missing and its spans would read
zero. The only exceptions, DELETED_TARGETS, wrap functions the library
has deleted and no workload called, so their spans read zero either way;
the benchmark's next re-pin drops them from its target list, and empties
DELETED_TARGETS.
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


DELETED_TARGETS = ["advalloc.gradients.budget_gradient",
                   "advalloc.equilibrium.build_payoff_matrix"]


def test_tracer_finds_every_target(monkeypatch):
    import advalloc.cli  # noqa: F401  (run.py imports the CLI before tracing)

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from bench_trace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == DELETED_TARGETS
    finally:
        tracer.uninstall()
