"""Self-tests of the benchmark. Run from the repository root:

    python -m pytest perfbench -q

They run each workload once in quick mode (about a minute in all) and check
that every metric is reported with its unit, that each span fires on the
workload it is mapped to, and that a wrong pinned value is caught.
"""
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_workloads  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ALL = ("selfplay-n25", "mw-train", "exact-n7")
TRAINING = ("selfplay-n25", "mw-train")
# per-layer metric -> workloads on which it must be nonzero
FIRES_ON = {
    "game.welfare_grid.calls": ("mw-train", "exact-n7"),
    "game.welfare_grid.cells": ("mw-train", "exact-n7"),
    "game.benchmark_rows.s": ALL,
    "game.welfare_paired.s": ("mw-train",),
    "completion.optimal_completion.calls": ALL,
    "gradients.budget_gradient.calls": TRAINING,
    "nets.AlgorithmPolicy.forward.calls": TRAINING,
    "nets.AlgorithmPolicy.backprop.s": TRAINING,
    "nets.AdversaryPolicy.forward.s": TRAINING,
    "nets.AdversaryPolicy.backprop.s": TRAINING,
    "nets.step.s": TRAINING,
    "training.iterations": TRAINING,
    "training.play_batch.s": ("mw-train",),
    "training.algorithm_gradients.self_s": TRAINING,
    "training.loop.self_s": TRAINING,
    "training.adv_signal_share": TRAINING,
    "training.iter_ms.p50": TRAINING,
    "simplex.solve_lp.calls": ("exact-n7",),
    "simplex.pivots": ("exact-n7",),
    "equilibrium.build_payoff_matrix.s": ("exact-n7",),
    "equilibrium.payoff_mb": ("exact-n7",),
    "equilibrium.solve_zero_sum.self_s": ("exact-n7",),
    "equilibrium.sg_rounds": ("exact-n7",),
    "equilibrium.support_rows": ("exact-n7",),
    "equilibrium.support_cols": ("exact-n7",),
    "equilibrium.fictitious_play.s": ("exact-n7",),
    "equilibrium.fp_width": ("exact-n7",),
    "equilibrium.solve_acceptance_lp.self_s": ("exact-n7",),
    "baselines.play_protocol.calls": TRAINING,
    "baselines.evaluate_policies.self_s": ("mw-train",),
    "persist.save.s": TRAINING,
    "persist.load.s": TRAINING,
    "cli.self_s": ALL,
}
SEED = 3


@pytest.fixture(scope="module")
def quick():
    """(workload, trace) -> (stdout lines, parsed result), each run once."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--trace", str(trace), "--quick"],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
            lines = proc.stdout.splitlines()
            cache[workload, trace] = (lines, json.loads(lines[-1]))
        return cache[workload, trace]
    return get


@pytest.mark.parametrize("workload", ALL)
@pytest.mark.parametrize("trace", (0, 1))
def test_quick_mode_reports_every_metric_with_its_unit(quick, workload, trace):
    lines, result = quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    # the per-command metrics and the failure share are printed by name and unit
    printed = {line.split()[0]: line.split()[3] for line in lines[:-1]
               if line.startswith("  ") and " = " in line}
    commands = bench_workloads.WORKLOADS[workload](SEED, True).commands
    for name in {c.metric for c in commands} | {"solve_s", "check_s"}:
        assert printed[name] == ("1/s" if name.endswith("_per_s") else "s")
    assert printed["ops_failed_frac"] == "ratio"


@pytest.mark.parametrize("workload", ALL)
def test_each_span_fires_on_its_workload(quick, workload):
    metrics = {k: v["value"] for k, v in quick(workload, 1)[1]["metrics"].items()}
    for name, workloads in FIRES_ON.items():
        if workload in workloads:
            assert metrics[name] > 0, name


def test_completion_calls_are_exact(quick):
    selfplay = {k: v["value"] for k, v in quick("selfplay-n25", 1)[1]["metrics"].items()}
    # batch 32 x N=25 slots x 5 candidate budgets per joint iteration
    assert selfplay["training.iterations"] >= 1
    assert selfplay["completion.optimal_completion.calls"] == \
        selfplay["training.iterations"] * 32 * 25 * 5

    mw = {k: v["value"] for k, v in quick("mw-train", 1)[1]["metrics"].items()}
    commands = {c.label: c for c in bench_workloads.WORKLOADS["mw-train"](SEED, True).commands}
    adv_iterations = commands["train-adv-vs-mw"].work // 10   # batch 10
    # alg-vs-mw and bench never call the oracle; adv-vs-mw: batch 10 x N=7 x 3
    assert mw["completion.optimal_completion.calls"] == adv_iterations * 210


def _acceptance_only(seed, quick_mode):
    workload = bench_workloads.exact_n7(seed, quick_mode)
    workload.commands = [c for c in workload.commands if c.label.startswith("acceptance-")]
    return workload


def _run_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("pin, wrong", [(None, None), ("acceptance_l40", (40.0, 0.01))])
def test_a_wrong_pin_counts_as_failed(monkeypatch, pin, wrong):
    monkeypatch.setitem(bench_workloads.WORKLOADS, "exact-n7", _acceptance_only)
    if pin is not None:
        monkeypatch.setitem(bench_workloads.PINNED, pin, wrong)
    result = _run_in_process(["--workload", "exact-n7", "--seed", str(SEED), "--quick",
                              "--trace", "0"])
    if pin is None:
        assert result["correct"] and result["failed"] == 0
    else:
        assert not result["correct"] and result["failed"] == 1
