"""Command-line front end: train, eval, ne, bench, oracle-check.

Every run writes a run-manifest.txt into --out-dir before any computation
starts; the manifest records the subcommand, flags, effective config, and
the artifact files the run will produce, so a finished directory is
self-describing and reproducible from the manifest alone. A command that
fails after writing its manifest (exit 1, one `error:` line) appends a
final `failed: <message>` line to it, since some listed artifacts may be
missing; a manifest left by an earlier run is never touched. All randomness
descends from --seed through labeled streams, CSV floats are rendered with
%.10g, and nothing time- or host-dependent is ever written, so same-seed
runs produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys

import numpy as np

from . import __version__
from .baselines import (
    RESULTS_HEADER,
    LearnedPolicy,
    default_policies,
    evaluate_policies,
    play_protocol,
    random_sequences,
    snapshot_sequence_sampler,
)
from .completion import (brute_force_completion, brute_force_completions, optimal_completion,
                         optimal_gaps)
from .config import ConfigError, load_config, parse_group, render_config
from .equilibrium import (
    PayoffTooLargeError,
    fictitious_play,
    payoff_game,
    solve_acceptance_lp,
    solve_zero_sum,
)
from .game import GameConfig, format_sequence, validate_sequence
from .nets import AlgorithmPolicy
from .persist import PersistError, load_model, load_ring, save_model, save_ring
from .rng import derive_rng
from .simplex import SimplexError
from .training import (
    METRICS_HEADER,
    train_adv_vs_mw,
    train_alg_vs_mw,
    train_joint,
)

MANIFEST_NAME = "run-manifest.txt"
STRATEGIES_HEADER = ("side", "index", "probability", "sequence")
MW_HEADER = ("expert", "weight", "probability")
METRICS_FLUSH_EVERY = 100
MIX_EPS = 1e-12  # strategy rows below this probability are not written
FP_ITERATIONS = 100_000


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_manifest(out_dir, subcommand, args, artifacts, ecfg=None) -> None:
    flags = {k: v for k, v in sorted(vars(args).items())
             if k != "func" and v is not None}
    lines = ["format: advalloc-run-manifest v1",
             f"code_version: {__version__}",
             f"subcommand: {subcommand}",
             "flags:"]
    lines += [f"  {key} = {value}" for key, value in flags.items()]
    lines.append("artifacts:")
    lines += [f"  {name}" for name in artifacts]
    if ecfg is not None:
        lines.append("config:")
        lines += [f"  {line}" for line in render_config(ecfg).splitlines()]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    args.manifest_path = path   # run_cli marks this manifest if the run then fails


def _read_strategy_file(path, cfg: GameConfig, what: str) -> list[tuple[int, ...]]:
    """One strategy per non-blank line, each checked against the game's
    budget or price set; budget strategies may be shorter than n_users."""
    budgets = what == "budgets"
    value_set = cfg.budget_set if budgets else cfg.price_set
    groups: list[tuple[int, ...]] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                where = f"{path} line {lineno}"
                group = parse_group(line, where)
                try:
                    validate_sequence(cfg, group, value_set, what, allow_partial=budgets)
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from exc
                groups.append(group)
    if not groups:
        raise ValueError(f"no sequences found in {path}")
    return groups


class _MetricsWriter:
    """Streams metric rows to CSV, flushing every METRICS_FLUSH_EVERY rows."""

    def __init__(self, path):
        self._f = open(path, "w", newline="")
        self._writer = csv.writer(self._f)
        self._writer.writerow(METRICS_HEADER)
        self._rows = 0

    def __call__(self, row) -> None:
        self._writer.writerow([_fmt(v) for v in row])
        self._rows += 1
        if self._rows % METRICS_FLUSH_EVERY == 0:
            self._f.flush()

    def close(self) -> None:
        self._f.close()


def _prefix_experts(sequence):
    return tuple(sequence[: i + 1] for i in range(len(sequence)))


def cmd_train(args) -> int:
    ecfg = load_config(args.config, episodes=args.episodes, seed=args.seed)
    cfg, tcfg = ecfg.game, ecfg.train
    artifacts = ["metrics.csv"]
    if args.mode in ("joint", "alg-vs-mw"):
        artifacts += ["algorithm.model", "algorithm.ring"]
    if args.mode in ("joint", "adv-vs-mw"):
        artifacts += ["adversary.model", "adversary.ring"]
    if args.mode != "joint":
        artifacts.append("mw_mixture.csv")
    _write_manifest(args.out_dir, "train", args, artifacts, ecfg)

    if args.mode == "alg-vs-mw":
        experts = ecfg.expert_budgets
        if experts is None and ecfg.sequence is not None:
            experts = _prefix_experts(ecfg.sequence)
        if experts is None:
            raise ConfigError(
                "alg-vs-mw needs expert_budgets or a sequence to take prefixes of")
    elif args.mode == "adv-vs-mw":
        experts = ecfg.expert_prices
        if experts is None:
            raise ConfigError("adv-vs-mw needs expert_prices in the config")

    writer = _MetricsWriter(os.path.join(args.out_dir, "metrics.csv"))
    try:
        if args.mode == "joint":
            result = train_joint(cfg, tcfg, metrics_hook=writer)
        elif args.mode == "alg-vs-mw":
            result = train_alg_vs_mw(cfg, tcfg, experts, metrics_hook=writer)
        else:
            result = train_adv_vs_mw(cfg, tcfg, experts, metrics_hook=writer)
    finally:
        writer.close()

    if result.algorithm is not None:
        save_model(os.path.join(args.out_dir, "algorithm.model"), result.algorithm)
        save_ring(os.path.join(args.out_dir, "algorithm.ring"), result.alg_ring)
    if result.adversary is not None:
        save_model(os.path.join(args.out_dir, "adversary.model"), result.adversary)
        save_ring(os.path.join(args.out_dir, "adversary.ring"), result.adv_ring)
    if result.mw is not None:
        mixture = result.mw.mixture
        rows = [(i, result.mw.weights[i], mixture[i]) for i in range(len(mixture))]
        _write_csv(os.path.join(args.out_dir, "mw_mixture.csv"), MW_HEADER, rows)

    trailing = _fmt(result.metrics[-1][3]) if result.metrics else "n/a"
    print(f"mode={args.mode} episodes={result.episodes} "
          f"iterations={result.iterations} trailing_gap={trailing} "
          f"stopped_early={result.stopped_early}")
    return 0


def _load_pricing_model(args, cfg: GameConfig):
    """The --model pricing network, plus a snapshot sequence sampler built
    from --adversary and --ring when both are given (else None)."""
    if (args.adversary is None) != (args.ring is None):
        raise ValueError("--adversary and --ring must be given together")
    sampler = None
    if args.adversary is not None:
        sampler = snapshot_sequence_sampler(cfg, load_model(args.adversary),
                                            load_ring(args.ring))
    policy = load_model(args.model)
    if not isinstance(policy, AlgorithmPolicy):
        raise PersistError(f"{args.model} holds an adversary, not a pricing policy")
    return policy, sampler


def cmd_eval(args) -> int:
    if args.n_sequences < 1:
        raise ValueError("--n-sequences must be at least 1")
    ecfg = load_config(args.config)
    cfg = ecfg.game
    _write_manifest(args.out_dir, "eval", args, ["results.csv"], ecfg)
    policy, sampler = _load_pricing_model(args, cfg)
    learned = LearnedPolicy(policy, sample=args.sample)
    rng = derive_rng(args.seed, "eval:model")
    if sampler is not None:
        rows = sampler(rng, args.n_sequences)
        mode = "snapshots"
    else:
        rows = random_sequences(cfg, rng, args.n_sequences)
        mode = "random"
    welfare, gaps = play_protocol(cfg, learned, rows, rng)
    mean_welfare = float(welfare.sum()) / args.n_sequences
    mean_gap = float(gaps.sum()) / args.n_sequences
    _write_csv(os.path.join(args.out_dir, "results.csv"), RESULTS_HEADER,
               [("learned", mode, None, mean_welfare, mean_gap)])
    print(f"mode={mode} sequences={args.n_sequences} "
          f"mean_gap={_fmt(mean_gap)} mean_welfare={_fmt(mean_welfare)}")
    return 0


def _mix_rows(side, mix, sequences):
    return [(side, int(i), float(mix[i]), format_sequence(sequences[i]))
            for i in np.flatnonzero(mix > MIX_EPS)]


def cmd_ne(args) -> int:
    if args.strategy_files and args.mode not in ("lp", "fp"):
        raise ValueError(f"--strategy-files needs --mode lp or fp, not {args.mode}")
    if args.strategy_files and len(args.strategy_files) > 2:
        raise ValueError("at most two strategy files: budgets, prices")
    if args.mode == "fp":
        if args.iterations is None:
            args.iterations = FP_ITERATIONS
    elif args.iterations is not None:
        raise ValueError(f"--iterations needs --mode fp, not {args.mode}")
    ecfg = load_config(args.config)
    cfg = ecfg.game
    _write_manifest(args.out_dir, "ne", args, ["strategies.csv"], ecfg)
    out_path = os.path.join(args.out_dir, "strategies.csv")

    if args.mode == "acceptance-lp":
        if ecfg.sequence is None:
            raise ConfigError("acceptance-lp needs a sequence in the config")
        value, probs = solve_acceptance_lp(ecfg.sequence, cfg.n_resources)
        rows = [("accept", i + 1, float(p), str(ecfg.sequence[i]))
                for i, p in enumerate(probs)]
        _write_csv(out_path, STRATEGIES_HEADER, rows)
        print(_fmt(value))
        return 0

    row_strategies = col_strategies = None
    if args.strategy_files:
        paths = list(args.strategy_files) + ["-"] * (2 - len(args.strategy_files))
        if paths[0] != "-":
            row_strategies = _read_strategy_file(paths[0], cfg, "budgets")
        if paths[1] != "-":
            col_strategies = _read_strategy_file(paths[1], cfg, "prices")
    payoff = payoff_game(cfg, row_strategies, col_strategies)

    if args.mode == "lp":
        mixed = solve_zero_sum(payoff)
        rows = _mix_rows("budget", mixed.row_mix, payoff.rows) + \
            _mix_rows("price", mixed.col_mix, payoff.cols)
        _write_csv(out_path, STRATEGIES_HEADER, rows)
        print(_fmt(mixed.value))
        return 0

    result = fictitious_play(payoff, iterations=args.iterations)
    rows = _mix_rows("budget", result.row_avg, payoff.rows) + \
        _mix_rows("price", result.col_avg, payoff.cols)
    _write_csv(out_path, STRATEGIES_HEADER, rows)
    print(f"{_fmt(result.value)} bracket=[{_fmt(result.lower)},{_fmt(result.upper)}] "
          f"width={_fmt(result.width)}")
    return 0


def cmd_bench(args) -> int:
    if args.n_sequences < 1:
        raise ValueError("--n-sequences must be at least 1")
    if args.model is None and (args.adversary is not None or args.ring is not None):
        raise ValueError("--adversary and --ring need --model")
    ecfg = load_config(args.config)
    cfg = ecfg.game
    _write_manifest(args.out_dir, "bench", args, ["results.csv"], ecfg)
    available = default_policies()
    names = [n.strip() for n in args.policies.split(",")] if args.policies else \
        list(available)
    policies = {}
    for name in names:
        if name not in available:
            raise ValueError(f"unknown policy {name!r}; choose from "
                             f"{', '.join(available)}")
        policies[name] = available[name]
    if args.model is not None:
        policy, sampler = _load_pricing_model(args, cfg)
        policies["learned"] = LearnedPolicy(policy, opponent_sampler=sampler)
    rows = evaluate_policies(cfg, policies, mode=args.mode,
                             n_sequences=args.n_sequences, seed=args.seed)
    _write_csv(os.path.join(args.out_dir, "results.csv"), RESULTS_HEADER,
               [(r.policy, r.mode, r.cr, r.mean_welfare, r.mean_gap) for r in rows])
    for r in rows:
        print(f"{r.policy} mode={r.mode} cr={_fmt(r.cr) or 'n/a'} "
              f"mean_welfare={_fmt(r.mean_welfare)} mean_gap={_fmt(r.mean_gap)}")
    return 0


def _random_instance(rng):
    n_users = int(rng.integers(1, 7))
    n_resources = int(rng.integers(1, 4))
    budget_set = np.sort(rng.choice(np.arange(1, 13), size=int(rng.integers(1, 4)),
                                    replace=False))
    price_set = np.sort(rng.choice(np.arange(1, 13), size=int(rng.integers(1, 4)),
                                   replace=False))
    cfg = GameConfig(n_users=n_users, n_resources=n_resources,
                     price_set=tuple(int(v) for v in price_set),
                     budget_set=tuple(int(v) for v in budget_set))
    prices = tuple(int(v) for v in rng.choice(price_set, size=n_users))
    prefix_len = int(rng.integers(0, n_users + 1))
    prefix = tuple(int(v) for v in rng.choice(budget_set, size=prefix_len))
    return cfg, prices, prefix


def cmd_oracle_check(args) -> int:
    if args.cases < 1:
        raise ValueError("--cases must be at least 1")
    artifact = "oracle-counterexample.txt"
    _write_manifest(args.out_dir, "oracle-check", args, [artifact + " (on failure)"])
    rng = derive_rng(args.seed, "oracle-check")
    cases = [_random_instance(rng) for _ in range(args.cases)]
    groups = {}   # draw indices by (N, R): each group is scored in one call per oracle
    for index, (cfg, _, _) in enumerate(cases):
        groups.setdefault((cfg.n_users, cfg.n_resources), []).append(index)
    agree = [False] * args.cases
    for indices in groups.values():
        group = [cases[i] for i in indices]
        for i, fast, slow in zip(indices, optimal_gaps(group), brute_force_completions(group)):
            agree[i] = fast == slow.gap
    matched = sum(agree)
    print(f"{matched}/{args.cases} matched")
    if matched == args.cases:
        return 0
    cfg, prices, prefix = cases[agree.index(False)]
    fast = optimal_completion(cfg, prices, prefix)
    slow = brute_force_completion(cfg, prices, prefix)
    path = os.path.join(args.out_dir, artifact)
    with open(path, "w", encoding="utf-8") as f:
        f.write("completion oracle mismatch\n"
                f"config: n_users={cfg.n_users} n_resources={cfg.n_resources} "
                f"price_set={cfg.price_set} budget_set={cfg.budget_set}\n"
                f"prices: {format_sequence(prices)}\n"
                f"prefix: {format_sequence(prefix)}\n"
                f"fast gap: {fast.gap} via {format_sequence(fast.full_sequence)}\n"
                f"brute gap: {slow.gap} via {format_sequence(slow.full_sequence)}\n")
    print(f"counterexample written to {path}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advalloc",
        description="Adversarial training and verification for posted-price "
                    "allocation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="experiment file")
        p.add_argument("--seed", type=int, default=None if config else 0,
                       help="root seed for all labeled streams")
        p.add_argument("--out-dir", default=".", help="artifact directory")

    p = sub.add_parser("train", help="run a training loop")
    common(p)
    p.add_argument("--mode", choices=("joint", "alg-vs-mw", "adv-vs-mw"),
                   default="joint")
    p.add_argument("--episodes", type=int, default=None,
                   help="override the config's episode budget")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved pricing model")
    common(p)
    p.add_argument("--model", required=True, help="saved pricing network")
    p.add_argument("--adversary", default=None,
                   help="saved generator; with --ring, sequences come from "
                        "uniformly sampled generator snapshots")
    p.add_argument("--ring", default=None, help="saved generator snapshot ring")
    p.add_argument("--n-sequences", type=int, default=1000)
    p.add_argument("--sample", action="store_true",
                   help="sample prices instead of argmax decoding")
    p.set_defaults(func=cmd_eval, seed=0)

    p = sub.add_parser("ne", help="equilibrium values and strategies")
    common(p)
    p.add_argument("--mode", choices=("lp", "acceptance-lp", "fp"), default="lp")
    p.add_argument("--strategy-files", nargs="+", default=None,
                   metavar="FILE",
                   help="restrict pure strategies: budgets file then prices "
                        "file, '-' keeps a side fully enumerated")
    p.add_argument("--iterations", type=int, default=None,
                   help=f"fictitious-play steps (fp mode, default {FP_ITERATIONS})")
    p.set_defaults(func=cmd_ne, seed=0)

    p = sub.add_parser("bench", help="baseline comparison table")
    common(p)
    p.add_argument("--policies", default=None,
                   help="comma-separated subset of: greedy, threshold, randomized")
    p.add_argument("--mode", choices=("worst", "random"), default="worst")
    p.add_argument("--n-sequences", type=int, default=1000)
    p.add_argument("--model", default=None,
                   help="add a saved pricing network as policy 'learned'")
    p.add_argument("--adversary", default=None,
                   help="generator model supplying worst-case candidates")
    p.add_argument("--ring", default=None, help="generator snapshot ring")
    p.set_defaults(func=cmd_bench, seed=0)

    p = sub.add_parser("oracle-check",
                       help="completion oracle vs brute force on random instances")
    common(p, config=False)
    p.add_argument("--cases", type=int, default=1000)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ConfigError, PersistError, PayoffTooLargeError, SimplexError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest = getattr(args, "manifest_path", None)
        if manifest is not None:
            with contextlib.suppress(OSError), open(manifest, "a", encoding="utf-8") as f:
                f.write("failed: " + str(exc).replace("\n", " ") + "\n")
        return 1


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
