"""Workloads of the advalloc benchmark: configs, command lists, output checks.

Each workload is a fixed list of `advalloc` CLI commands run in-process,
one after another. The benchmark writes the experiment files; the program
only receives them. Every command's output is checked against the paper's
pinned values or against invariants checked from outside, so a fast wrong
answer counts as a failed operation.

Import this module only after `advalloc` is importable: the checks keep the
original `load_model`, so tracing never sees the benchmark's own loads.
"""
from __future__ import annotations

import csv
import dataclasses
import math
import os
import re
from typing import Callable

from advalloc.nets import AdversaryPolicy, AlgorithmPolicy
from advalloc.persist import load_model

PINNED = {
    "full_game_lp": (3.279, 0.001),
    "acceptance_staircase": (7.834, 0.001),
    "acceptance_l40": (50.39, 0.01),
    "acceptance_l60": (58.39, 0.01),
}
FP_MAX_WIDTH = 0.1
FP_MID_TOL = 0.05
BRACKET_TOL = 1e-9   # the printed bracket is rounded to 10 significant digits
PROB_TOL = 1e-9
SUM_TOL = 1e-6       # sums over 10-significant-digit probabilities

STAIRCASE = tuple(v for v in range(1, 6) for _ in range(5))
SMALL_PRICE_MENU = ((1, 1, 2, 2, 3, 3, 3), (1, 1, 1, 2, 2, 2, 3), (1, 2, 2, 2, 3, 3, 3))


def _long_sequence(repeats: int) -> tuple[int, ...]:
    return tuple(v for v in range(1, 21) for _ in range(repeats))


Check = tuple[str, bool, str]   # (name, passed, detail)


@dataclasses.dataclass
class Command:
    """One CLI call. `{cfg}` and `{run}` in argv expand to the config and pass
    directories; the command writes into `{run}/<label>`. It feeds the named
    per-command metric `metric`: `work / seconds` when work is given, else
    its seconds (summed over the commands sharing the name)."""

    label: str
    phase: str          # "solve" or "check"
    argv: list[str]
    check: Callable[[str, str, dict], list[Check]]
    metric: str
    work: float | None = None


@dataclasses.dataclass
class Workload:
    configs: dict[str, str]
    commands: list[Command]


def _set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _seq(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def _config(n_users, n_resources, price_set, budget_set, **extra) -> str:
    lines = [f"n_users = {n_users}", f"n_resources = {n_resources}",
             f"price_set = {_set(price_set)}", f"budget_set = {_set(budget_set)}"]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


def _read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _within(name, value, target, tol) -> Check:
    return (name, abs(value - target) <= tol, f"{value!r} vs {target} +- {tol}")


def _first_float(stdout: str) -> float:
    return float(stdout.split()[0])


# ---------------------------------------------------------------- checks

def check_training(iterations: int, gap_max: float, models: dict[str, type]):
    """metrics.csv has one row per iteration, every gap in [0, gap_max], and
    each saved model reloads as the expected policy class."""
    def check(out_dir, stdout, ctx) -> list[Check]:
        printed = re.search(r"iterations=(\d+)", stdout)
        checks = [("iterations", printed is not None and int(printed.group(1)) == iterations,
                   f"printed {printed.group(0) if printed else None}, expected {iterations}")]
        rows = _read_csv(os.path.join(out_dir, "metrics.csv"))
        numbered = [int(r["iteration"]) for r in rows] == list(range(1, iterations + 1))
        checks.append(("metrics rows", numbered, f"{len(rows)} rows for {iterations} iterations"))
        gaps = [float(r[key]) for r in rows for key in ("mean_gap", "trailing_avg_gap")]
        checks.append(("metrics gaps", all(0.0 <= g <= gap_max for g in gaps),
                       f"range [{min(gaps, default=0)}, {max(gaps, default=0)}] "
                       f"allowed [0, {gap_max}]"))
        for filename, cls in models.items():
            policy = load_model(os.path.join(out_dir, filename))
            checks.append((f"reload {filename}", isinstance(policy, cls),
                           type(policy).__name__))
        return checks
    return check


def check_results(expected: list[tuple[str, str]], gap_max: float):
    """results.csv has the expected (policy, mode) rows, no ratio (random
    traffic certifies none), and welfare and gap in [0, gap_max]."""
    def check(out_dir, stdout, ctx) -> list[Check]:
        rows = _read_csv(os.path.join(out_dir, "results.csv"))
        got = [(r["policy"], r["mode"]) for r in rows]
        checks = [("results rows", got == expected, f"{got}"),
                  ("results cr empty", all(r["cr"] == "" for r in rows), "")]
        values = [float(r[key]) for r in rows for key in ("mean_welfare", "mean_gap")]
        checks.append(("results range", all(0.0 <= v <= gap_max for v in values),
                       f"{values} allowed [0, {gap_max}]"))
        return checks
    return check


def check_lp(out_dir, stdout, ctx) -> list[Check]:
    value = _first_float(stdout)
    ctx["lp_value"] = value
    return [_within("full game LP value", value, *PINNED["full_game_lp"])]


def check_fp(out_dir, stdout, ctx) -> list[Check]:
    m = re.search(r"bracket=\[([^,\]]+),([^\]]+)\] width=(\S+)", stdout)
    if m is None:
        return [("FP bracket printed", False, stdout.strip())]
    lower, upper, width = (float(g) for g in m.groups())
    lp = ctx.get("lp_value", math.nan)
    target = PINNED["full_game_lp"][0]
    return [
        ("FP bracket holds LP value",
         lower - BRACKET_TOL <= lp <= upper + BRACKET_TOL, f"[{lower}, {upper}] vs {lp}"),
        ("FP width", width <= FP_MAX_WIDTH, f"{width} <= {FP_MAX_WIDTH}"),
        _within("FP midpoint", 0.5 * (lower + upper), target, FP_MID_TOL),
    ]


def check_acceptance(sequence, n_resources, pin: str | None):
    """Probabilities feasible (each in [0, 1], sum <= R) and the printed z
    equal to the tightest prefix constraint, recomputed from outside; the
    value against its pin where the paper gives one."""
    def check(out_dir, stdout, ctx) -> list[Check]:
        z = _first_float(stdout)
        rows = _read_csv(os.path.join(out_dir, "strategies.csv"))
        probs = [float(r["probability"]) for r in rows]
        checks = [
            ("acceptance probs per slot", len(probs) == len(sequence), f"{len(probs)} rows"),
            ("acceptance probs in [0,1]",
             all(-PROB_TOL <= p <= 1 + PROB_TOL for p in probs), ""),
            ("acceptance probs sum <= R", sum(probs) <= n_resources + SUM_TOL,
             f"{sum(probs)} <= {n_resources}"),
        ]
        tightest = -math.inf
        served = 0.0
        for j, (b, p) in enumerate(zip(sequence, probs)):
            served += b * p
            top = sum(sorted(sequence[: j + 1], reverse=True)[:n_resources])
            tightest = max(tightest, top - served)
        checks.append(("acceptance z is tightest prefix", abs(z - tightest) <= SUM_TOL,
                       f"z={z} tightest={tightest}"))
        if pin is not None:
            checks.append(_within(f"{pin} value", z, *PINNED[pin]))
        return checks
    return check


def check_oracle(cases: int):
    def check(out_dir, stdout, ctx) -> list[Check]:
        return [("oracle agreement", f"{cases}/{cases} matched" in stdout, stdout.strip())]
    return check


# ------------------------------------------------------------- workloads

def _iterations(episodes: int, batch: int) -> int:
    return -(-episodes // batch)


def selfplay_n25(seed: int, quick: bool) -> Workload:
    """Joint self-play on the N=25, R=5 staircase game, then snapshot eval."""
    batch, episodes = 32, (32 if quick else 96)
    n_seq = 50 if quick else 500
    cfg = _config(25, 5, range(1, 6), range(1, 6), batch=batch, episodes=episodes)
    s = str(seed)
    return Workload({"selfplay.cfg": cfg}, [
        Command("train-joint", "solve",
                ["train", "--mode", "joint", "--config", "{cfg}/selfplay.cfg", "--seed", s],
                check_training(_iterations(episodes, batch), 25.0,
                               {"algorithm.model": AlgorithmPolicy,
                                "adversary.model": AdversaryPolicy}),
                metric="joint_episodes_per_s", work=episodes),
        Command("eval-snapshots", "check",
                ["eval", "--config", "{cfg}/selfplay.cfg",
                 "--model", "{run}/train-joint/algorithm.model",
                 "--adversary", "{run}/train-joint/adversary.model",
                 "--ring", "{run}/train-joint/adversary.ring",
                 "--n-sequences", str(n_seq), "--seed", s],
                check_results([("learned", "snapshots")], 25.0),
                metric="eval_sequences_per_s", work=n_seq),
    ])


def mw_train(seed: int, quick: bool) -> Workload:
    """Both single-network loops against MW, then the baseline table."""
    alg_episodes = 100 if quick else 1000
    adv_episodes = 50 if quick else 1000
    n_seq = 100 if quick else 1000
    alg_cfg = _config(25, 5, range(1, 6), range(1, 6), sequence=_seq(STAIRCASE),
                      episodes=alg_episodes, batch=10, lr_alg="3e-3", mw_rollouts=4,
                      hidden=32)
    adv_cfg = _config(7, 3, (1, 2, 3), (1, 2, 3),
                      expert_prices="; ".join(",".join(map(str, p)) for p in SMALL_PRICE_MENU),
                      episodes=adv_episodes, batch=10, lr_adv="1e-2", mw_rollouts=4,
                      hidden=32)
    s = str(seed)
    policies = ["greedy", "threshold", "randomized", "learned"]
    return Workload({"alg.cfg": alg_cfg, "adv.cfg": adv_cfg}, [
        Command("train-alg-vs-mw", "solve",
                ["train", "--mode", "alg-vs-mw", "--config", "{cfg}/alg.cfg", "--seed", s],
                check_training(_iterations(alg_episodes, 10), 25.0,
                               {"algorithm.model": AlgorithmPolicy}),
                metric="alg_mw_episodes_per_s", work=alg_episodes),
        Command("train-adv-vs-mw", "solve",
                ["train", "--mode", "adv-vs-mw", "--config", "{cfg}/adv.cfg", "--seed", s],
                check_training(_iterations(adv_episodes, 10), 9.0,
                               {"adversary.model": AdversaryPolicy}),
                metric="adv_mw_episodes_per_s", work=adv_episodes),
        Command("bench-random", "check",
                ["bench", "--mode", "random", "--config", "{cfg}/alg.cfg",
                 "--model", "{run}/train-alg-vs-mw/algorithm.model",
                 "--n-sequences", str(n_seq), "--seed", s],
                check_results([(p, "random") for p in policies], 25.0),
                metric="eval_sequences_per_s", work=len(policies) * n_seq),
    ])


def exact_n7(seed: int, quick: bool) -> Workload:
    """Exact solvers only: full 7-user game by LP and FP, acceptance LPs,
    and the completion oracle against brute force."""
    cases = 1000
    full = _config(7, 3, (1, 3, 5, 7), (2, 4, 6))
    sequences = {
        "staircase": (STAIRCASE, 5, "acceptance_staircase"),
        "l40": (_long_sequence(2), 10, "acceptance_l40"),
        "l60": (_long_sequence(3), 10, "acceptance_l60"),
        "l240": (_long_sequence(12), 10, None),
    }
    configs = {"full.cfg": full}
    commands = [
        Command("ne-lp", "solve", ["ne", "--mode", "lp", "--config", "{cfg}/full.cfg"],
                check_lp, metric="ne_lp_s"),
        Command("ne-fp", "solve", ["ne", "--mode", "fp", "--iterations", "100000",
                                   "--config", "{cfg}/full.cfg"],
                check_fp, metric="ne_fp_s"),
    ]
    for name, (seq, r, pin) in sequences.items():
        values = sorted(set(seq))
        configs[f"{name}.cfg"] = _config(len(seq), r, values, values, sequence=_seq(seq))
        commands.append(Command(f"acceptance-{name}", "check",
                                ["ne", "--mode", "acceptance-lp",
                                 "--config", f"{{cfg}}/{name}.cfg"],
                                check_acceptance(seq, r, pin), metric="acceptance_lp_s"))
    commands.append(Command("oracle-check", "check",
                            ["oracle-check", "--cases", str(cases), "--seed", str(seed)],
                            check_oracle(cases), metric="oracle_check_s"))
    return Workload(configs, commands)


WORKLOADS = {"selfplay-n25": selfplay_n25, "mw-train": mw_train, "exact-n7": exact_n7}
