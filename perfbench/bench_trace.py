"""In-memory span tracer for the advalloc benchmark.

The tracer wraps the public functions and policy methods the per-layer
metrics need, from outside the package: nothing in `advalloc` knows it is
being traced. A function imported by name into another module
(`from .completion import optimal_completion`) is a second binding of the
same object, so every module of the package is scanned and each binding is
replaced; wrapping only the defining module would leave those call sites
untraced and their spans would silently read zero.

Spans are kept in a list while a traced pass runs and turned into metrics
(calls, total time, self time, counters) afterwards. Self time is a span's
duration minus the time its direct children cover.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time

MIX_EPS = 1e-12  # support threshold, the one the CLI uses for strategies.csv


# Counter hooks map (args, kwargs, result) to counts stored on the span.

def _cells(args, kwargs, result):
    budget_rows, price_rows = args[0], args[1]
    return {"cells": budget_rows.shape[0] * price_rows.shape[0] * budget_rows.shape[1]}


def _pivots(args, kwargs, result):
    return {"pivots": result.iterations}


def _payoff_bytes(args, kwargs, result):
    return {"bytes": result.values.nbytes + result.rows.nbytes + result.cols.nbytes}


def _support(args, kwargs, result):
    return {"support_rows": int((result.row_mix > MIX_EPS).sum()),
            "support_cols": int((result.col_mix > MIX_EPS).sum())}


def _fp_width(args, kwargs, result):
    return {"width": result.width}


# (span name, module, attribute path, counter hook); names may repeat
TARGETS = [
    ("game.welfare_grid", "advalloc.game", "welfare_grid", _cells),
    ("game.welfare_paired", "advalloc.game", "welfare_paired", None),
    ("game.benchmark_rows", "advalloc.game", "benchmark_rows", None),
    ("completion.optimal_completion", "advalloc.completion", "optimal_completion", None),
    ("completion.brute_force_completion", "advalloc.completion",
     "brute_force_completion", None),
    ("gradients.budget_gradient", "advalloc.gradients", "budget_gradient", None),
    ("nets.AlgorithmPolicy.forward", "advalloc.nets", "AlgorithmPolicy.forward", None),
    ("nets.AlgorithmPolicy.backprop", "advalloc.nets", "AlgorithmPolicy.backprop", None),
    ("nets.AlgorithmPolicy.step", "advalloc.nets", "AlgorithmPolicy.step", None),
    ("nets.AdversaryPolicy.forward", "advalloc.nets", "AdversaryPolicy.forward", None),
    ("nets.AdversaryPolicy.backprop", "advalloc.nets", "AdversaryPolicy.backprop", None),
    ("nets.AdversaryPolicy.step", "advalloc.nets", "AdversaryPolicy.step", None),
    ("training.play_batch", "advalloc.training", "play_batch", None),
    ("training.algorithm_gradients", "advalloc.training", "algorithm_gradients", None),
    ("training.loop", "advalloc.training", "train_joint", None),
    ("training.loop", "advalloc.training", "train_alg_vs_mw", None),
    ("training.loop", "advalloc.training", "train_adv_vs_mw", None),
    ("simplex.solve_lp", "advalloc.simplex", "solve_lp", _pivots),
    ("equilibrium.build_payoff_matrix", "advalloc.equilibrium", "build_payoff_matrix",
     _payoff_bytes),
    ("equilibrium.solve_zero_sum", "advalloc.equilibrium", "solve_zero_sum", _support),
    ("equilibrium.fictitious_play", "advalloc.equilibrium", "fictitious_play", _fp_width),
    ("equilibrium.solve_acceptance_lp", "advalloc.equilibrium", "solve_acceptance_lp",
     None),
    ("baselines.play_protocol", "advalloc.baselines", "play_protocol", None),
    ("baselines.evaluate_policies", "advalloc.baselines", "evaluate_policies", None),
    ("persist.save", "advalloc.persist", "save_model", None),
    ("persist.save", "advalloc.persist", "save_ring", None),
    ("persist.load", "advalloc.persist", "load_model", None),
    ("persist.load", "advalloc.persist", "load_ring", None),
]
# snapshot_sequence_sampler returns the closure that draws eval sequences;
# that closure is traced under its own name so its work is not billed to cli.
SAMPLER_TARGET = ("baselines.snapshot_sequence_sampler", "advalloc.baselines",
                  "snapshot_sequence_sampler")
SAMPLER_DRAW_SPAN = "baselines.snapshot_draw"
CLI_SPAN = "cli"

# (metric name, unit) reported by every traced run, in output order
PER_LAYER = [
    ("game.welfare_grid.calls", "count"),
    ("game.welfare_grid.s", "s"),
    ("game.welfare_grid.cells", "count"),
    ("game.benchmark_rows.s", "s"),
    ("game.welfare_paired.s", "s"),
    ("completion.optimal_completion.calls", "count"),
    ("completion.optimal_completion.s", "s"),
    ("completion.optimal_completion.us_per_call", "us"),
    ("gradients.budget_gradient.calls", "count"),
    ("gradients.budget_gradient.self_s", "s"),
    ("nets.AlgorithmPolicy.forward.calls", "count"),
    ("nets.AlgorithmPolicy.forward.s", "s"),
    ("nets.AlgorithmPolicy.backprop.s", "s"),
    ("nets.AdversaryPolicy.forward.s", "s"),
    ("nets.AdversaryPolicy.backprop.s", "s"),
    ("nets.step.s", "s"),
    ("training.iterations", "count"),
    ("training.play_batch.s", "s"),
    ("training.algorithm_gradients.self_s", "s"),
    ("training.loop.self_s", "s"),
    ("training.adv_signal_share", "ratio"),
    ("training.iter_ms.p50", "ms"),
    ("training.iter_ms.tail", "ms"),
    ("training.iter_ms.tail_pct", "%"),
    ("training.iter_ms.samples", "count"),
    ("simplex.solve_lp.calls", "count"),
    ("simplex.solve_lp.s", "s"),
    ("simplex.pivots", "count"),
    ("equilibrium.build_payoff_matrix.s", "s"),
    ("equilibrium.payoff_mb", "MB"),
    ("equilibrium.solve_zero_sum.self_s", "s"),
    ("equilibrium.sg_rounds", "count"),
    ("equilibrium.support_rows", "count"),
    ("equilibrium.support_cols", "count"),
    ("equilibrium.fictitious_play.s", "s"),
    ("equilibrium.fp_width", "value"),
    ("equilibrium.solve_acceptance_lp.self_s", "s"),
    ("baselines.play_protocol.calls", "count"),
    ("baselines.play_protocol.s", "s"),
    ("baselines.evaluate_policies.self_s", "s"),
    ("persist.save.s", "s"),
    ("persist.load.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def _resolve(module_name: str, path: str):
    """(owner, attribute) of a target, or None when the program lacks it."""
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Records spans [name, start_ns, end_ns, parent index, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []   # targets the program no longer defines

    def run(self, name: str, fn, *args, counter=None, **kwargs):
        """Call fn inside a span; the span closes even if fn raises."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter_ns(), 0, parent, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if counter is not None:
            span[4] = counter(args, kwargs, result)
        return result

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, counter=counter, **kwargs)
        return traced

    def _wrap_sampler(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.wrap(SAMPLER_DRAW_SPAN, fn(*args, **kwargs))
        return traced

    def _patch_everywhere(self, module_name: str, path: str, wrapper_for) -> None:
        resolved = _resolve(module_name, path)
        if resolved is None:
            self.missing.append(f"{module_name}.{path}")
            return
        owner, attr = resolved
        original = getattr(owner, attr)
        wrapper = wrapper_for(original)
        if isinstance(owner, type):  # a method: every caller goes through the class
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "advalloc" or mod_name.startswith("advalloc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, path, counter in TARGETS:
            self._patch_everywhere(module_name, path,
                                   lambda fn, n=name, c=counter: self.wrap(n, fn, c))
        self._patch_everywhere(SAMPLER_TARGET[1], SAMPLER_TARGET[2], self._wrap_sampler)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def _summaries(spans):
    """Per name: calls, total seconds, self seconds, summed counters."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, counters) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["s"] += (end - start) / 1e9
        s["self_s"] += (end - start - child_ns[i]) / 1e9
        for key, value in (counters or {}).items():
            s[key] = s.get(key, 0) + value
    return out


def _ancestor_named(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def iteration_ms(spans) -> list[float]:
    """Iteration lengths inside every training loop span.

    An iteration ends at the step of the policy the loop trains last in each
    iteration: the pricing policy when it is trained, else the generator.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)
    out = []
    for i, span in enumerate(spans):
        if span[0] != "training.loop":
            continue
        kids = children.get(i, [])
        ends = [spans[k][2] for k in kids if spans[k][0] == "nets.AlgorithmPolicy.step"]
        if not ends:
            ends = [spans[k][2] for k in kids if spans[k][0] == "nets.AdversaryPolicy.step"]
        prev = span[1]
        for end in ends:
            out.append((end - prev) / 1e6)
            prev = end
    return out


def tail_stats(samples: list[float]) -> dict[str, float]:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    stats = {"training.iter_ms.samples": n, "training.iter_ms.p50": 0.0,
             "training.iter_ms.tail": 0.0, "training.iter_ms.tail_pct": 0.0}
    if n == 0:
        return stats
    stats["training.iter_ms.p50"] = statistics.median(samples)
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            # nearest-rank percentile
            rank = max(1, -(-int(round(pct * n)) // 100))
            stats["training.iter_ms.tail"] = ordered[min(rank, n) - 1]
            stats["training.iter_ms.tail_pct"] = pct
            break
    return stats


def pass_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (iteration percentiles excluded)."""
    s = _summaries(spans)

    def get(name, key="s"):
        return s.get(name, {}).get(key, 0)

    completion_calls = get("completion.optimal_completion", "calls")
    loop_s = get("training.loop")
    lp_under_solve = sum(1 for i, span in enumerate(spans)
                         if span[0] == "simplex.solve_lp"
                         and _ancestor_named(spans, i, "equilibrium.solve_zero_sum"))
    return {
        "game.welfare_grid.calls": get("game.welfare_grid", "calls"),
        "game.welfare_grid.s": get("game.welfare_grid"),
        "game.welfare_grid.cells": get("game.welfare_grid", "cells"),
        "game.benchmark_rows.s": get("game.benchmark_rows"),
        "game.welfare_paired.s": get("game.welfare_paired"),
        "completion.optimal_completion.calls": completion_calls,
        "completion.optimal_completion.s": get("completion.optimal_completion"),
        "completion.optimal_completion.us_per_call":
            get("completion.optimal_completion") / completion_calls * 1e6
            if completion_calls else 0.0,
        "gradients.budget_gradient.calls": get("gradients.budget_gradient", "calls"),
        "gradients.budget_gradient.self_s": get("gradients.budget_gradient", "self_s"),
        "nets.AlgorithmPolicy.forward.calls": get("nets.AlgorithmPolicy.forward", "calls"),
        "nets.AlgorithmPolicy.forward.s": get("nets.AlgorithmPolicy.forward"),
        "nets.AlgorithmPolicy.backprop.s": get("nets.AlgorithmPolicy.backprop"),
        "nets.AdversaryPolicy.forward.s": get("nets.AdversaryPolicy.forward"),
        "nets.AdversaryPolicy.backprop.s": get("nets.AdversaryPolicy.backprop"),
        "nets.step.s": get("nets.AlgorithmPolicy.step") + get("nets.AdversaryPolicy.step"),
        "training.iterations": len(iteration_ms(spans)),
        "training.play_batch.s": get("training.play_batch"),
        "training.algorithm_gradients.self_s": get("training.algorithm_gradients", "self_s"),
        "training.loop.self_s": get("training.loop", "self_s"),
        "training.adv_signal_share":
            get("gradients.budget_gradient") / loop_s if loop_s else 0.0,
        "simplex.solve_lp.calls": get("simplex.solve_lp", "calls"),
        "simplex.solve_lp.s": get("simplex.solve_lp"),
        "simplex.pivots": get("simplex.solve_lp", "pivots"),
        "equilibrium.build_payoff_matrix.s": get("equilibrium.build_payoff_matrix"),
        "equilibrium.payoff_mb": get("equilibrium.build_payoff_matrix", "bytes") / 1e6,
        "equilibrium.solve_zero_sum.self_s": get("equilibrium.solve_zero_sum", "self_s"),
        "equilibrium.sg_rounds": lp_under_solve / 2,
        "equilibrium.support_rows": get("equilibrium.solve_zero_sum", "support_rows"),
        "equilibrium.support_cols": get("equilibrium.solve_zero_sum", "support_cols"),
        "equilibrium.fictitious_play.s": get("equilibrium.fictitious_play"),
        "equilibrium.fp_width": get("equilibrium.fictitious_play", "width"),
        "equilibrium.solve_acceptance_lp.self_s":
            get("equilibrium.solve_acceptance_lp", "self_s"),
        "baselines.play_protocol.calls": get("baselines.play_protocol", "calls"),
        "baselines.play_protocol.s": get("baselines.play_protocol"),
        "baselines.evaluate_policies.self_s": get("baselines.evaluate_policies", "self_s"),
        "persist.save.s": get("persist.save"),
        "persist.load.s": get("persist.load"),
        "cli.self_s": get(CLI_SPAN, "self_s"),
    }


def write_spans(path, spans) -> None:
    """CSV of (pass, span) pairs; parent indices count within a pass."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("pass,index,name,start_ns,end_ns,parent\n")
        index = {}
        for pass_no, (name, start, end, parent, _) in spans:
            i = index[pass_no] = index.get(pass_no, -1) + 1
            f.write(f"{pass_no},{i},{name},{start},{end},{parent}\n")
