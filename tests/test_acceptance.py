"""End-to-end checks of the package's published numbers and guarantees.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per check.
Each test pins one externally meaningful claim: an equilibrium value, an
oracle equivalence, a convergence target with documented seeds, a
worst-case ratio, or a reproducibility guarantee. Tolerances are part of
the claims and are asserted exactly as stated.
"""
import csv
import hashlib
import itertools
import time

import numpy as np
import pytest

from advalloc.baselines import (
    GreedyPolicy,
    LearnedPolicy,
    RandomizedPolicy,
    _ScheduleRule,
    exact_worst_case,
    play_protocol,
)
from advalloc.cli import run_cli
from advalloc.equilibrium import (
    enumerate_strategies,
    fictitious_play,
    payoff_game,
    solve_acceptance_lp,
    solve_zero_sum,
)
from advalloc.game import GameConfig, gap
from advalloc.nets import AdversaryPolicy, AlgorithmPolicy, SoftmaxMlp
from advalloc.training import (
    TrainConfig,
    play_batch,
    train_adv_vs_mw,
    train_alg_vs_mw,
    train_joint,
)

STAIRCASE = tuple(v for v in range(1, 6) for _ in range(5))
STAIRCASE_GAME = GameConfig(n_users=25, n_resources=5,
                            price_set=(1, 2, 3, 4, 5), budget_set=(1, 2, 3, 4, 5))
SMALL_GAME = GameConfig(n_users=7, n_resources=3,
                        price_set=(1, 2, 3), budget_set=(1, 2, 3))
SMALL_PRICE_MENU = ((1, 1, 2, 2, 3, 3, 3), (1, 1, 1, 2, 2, 2, 3),
                    (1, 2, 2, 2, 3, 3, 3))
FULL_GAME = GameConfig(n_users=7, n_resources=3,
                       price_set=(1, 3, 5, 7), budget_set=(2, 4, 6))


def test_acceptance_lp_value_for_staircase_sequence():
    start = time.perf_counter()
    value, probs = solve_acceptance_lp(STAIRCASE, STAIRCASE_GAME.n_resources)
    elapsed = time.perf_counter() - start
    assert abs(value - 7.834) <= 0.001
    assert elapsed < 1.0
    assert probs.sum() <= STAIRCASE_GAME.n_resources + 1e-9


def test_restricted_game_value():
    payoff = payoff_game(SMALL_GAME, None, SMALL_PRICE_MENU)
    assert payoff.shape == (3**7, 3)
    mixed = solve_zero_sum(payoff)
    assert abs(mixed.value - 13.0 / 3.0) <= 0.001


def test_full_game_value_exact_and_bracketed():
    start = time.perf_counter()
    payoff = payoff_game(FULL_GAME)
    assert payoff.shape == (3**7, 4**7)
    mixed = solve_zero_sum(payoff)
    assert abs(mixed.value - 3.279) <= 0.001

    result = fictitious_play(payoff, iterations=100_000)
    assert result.width <= 0.1
    assert result.lower - 1e-9 <= mixed.value <= result.upper + 1e-9
    assert abs(result.value - 3.279) <= 0.05
    # the exact output of the per-step loop (one argmax/argmin per step)
    assert result.lower == 3.2694202898550726
    assert result.upper == 3.2905845511482257
    assert hashlib.sha256(result.row_avg.tobytes()).hexdigest() == (
        "627e702c3de523586237bb9ed983aa6fcadb3e4eb8c428b23774ba00a704f91e")
    assert hashlib.sha256(result.col_avg.tobytes()).hexdigest() == (
        "1ca841eb92a934ed4bf6987043706326bb9b469b13af4c8389767e7866748837")
    assert time.perf_counter() - start < 600.0


def test_long_sequence_acceptance_values():
    length_40 = [v for v in range(1, 21) for _ in range(2)]
    length_60 = [v for v in range(1, 21) for _ in range(3)]
    value_40, _ = solve_acceptance_lp(length_40, 10)
    value_60, _ = solve_acceptance_lp(length_60, 10)
    assert abs(value_40 - 50.39) <= 0.01
    assert abs(value_60 - 58.39) <= 0.01


def test_completion_oracle_matches_brute_force(tmp_path, capsys):
    code = run_cli(["oracle-check", "--cases", "1000", "--seed", "7",
                    "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    counterexample = tmp_path / "oracle-counterexample.txt"
    detail = counterexample.read_text() if counterexample.exists() else ""
    assert code == 0 and "1000/1000 matched" in out, (
        f"oracle disagreement, artifact at {counterexample}:\n{detail}")


def _fd_max_rel_error(forward, params, probe, step=1e-5):
    """Central finite differences of probe.forward against supplied params."""
    analytic_grads = forward(probe, analytic=True)
    worst = 0.0
    for grad, param in zip(analytic_grads, params):
        if param.size == 0:
            continue
        for idx in range(param.size):
            original = param.flat[idx]
            param.flat[idx] = original + step
            up = forward(probe)
            param.flat[idx] = original - step
            down = forward(probe)
            param.flat[idx] = original
            fd = (up - down) / (2.0 * step)
            a = grad.flat[idx]
            denom = max(abs(a), abs(fd), 1e-3)
            worst = max(worst, abs(a - fd) / denom)
    return worst


def test_backprop_matches_finite_differences():
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        kind = case % 3
        if kind == 0:
            sizes = (int(rng.integers(2, 5)), int(rng.integers(3, 7)), 4)
            net = SoftmaxMlp(sizes, (2, 2), rng=rng)
            x = rng.normal(size=(2, sizes[0]))
            g = rng.normal(size=(2, 4))

            def forward(g, analytic=False, net=net, x=x):
                probs, tape = net.forward(x)
                if analytic:
                    return net.backprop(tape, g)
                return float((g * probs).sum())
        elif kind == 1:
            net = AlgorithmPolicy(int(rng.integers(1, 5)), 3, hidden=(5, 4), rng=rng)
            x = rng.normal(size=(2, 4))
            g = rng.normal(size=(2, 3))

            def forward(g, analytic=False, net=net, x=x):
                if analytic:
                    return net.backprop(x, g)
                return float((g * net.forward(x)).sum())
        else:
            n_users = int(rng.integers(1, 4))
            net = AdversaryPolicy(n_users, 3, latent_dim=3, hidden=(6, 5),
                                  rng=rng)
            z = rng.normal(size=(2, 3))
            g = rng.normal(size=(2, n_users, 3))

            def forward(g, analytic=False, net=net, z=z):
                probs, tape = net.forward(z)
                if analytic:
                    return net.backprop(tape, g)
                return float((g * probs).sum())
        worst = max(worst, _fd_max_rel_error(forward, net.params, g))
    assert worst <= 1e-4, f"worst relative error {worst:.3e}"


def test_training_converges_to_equilibrium_gaps():
    # pricing side: trailing-500 gap within 10% of the 7.834 staircase value
    prefix_menu = tuple(STAIRCASE[: i + 1] for i in range(len(STAIRCASE)))
    alg_cfg = TrainConfig(episodes=100_000, batch=10, lr_alg=3e-3, seed=11,
                          mw_rollouts=4, hidden=32, target_gap=7.834,
                          stop_rtol=0.06)
    alg_run = train_alg_vs_mw(STAIRCASE_GAME, alg_cfg, prefix_menu)
    assert alg_run.episodes <= 100_000
    trailing = alg_run.metrics[-1][3]
    assert abs(trailing - 7.834) <= 0.1 * 7.834, (
        f"trailing gap {trailing} after {alg_run.episodes} episodes")

    # generator side: trailing-500 gap within 10% of the 13/3 menu value
    adv_cfg = TrainConfig(episodes=100_000, batch=10, lr_adv=1e-2, seed=7,
                          mw_rollouts=4, hidden=32, target_gap=13.0 / 3.0,
                          stop_rtol=0.06)
    adv_run = train_adv_vs_mw(SMALL_GAME, adv_cfg, SMALL_PRICE_MENU)
    assert adv_run.episodes <= 100_000
    trailing = adv_run.metrics[-1][3]
    assert abs(trailing - 13.0 / 3.0) <= 0.1 * 13.0 / 3.0, (
        f"trailing gap {trailing} after {adv_run.episodes} episodes")


def test_joint_trained_pricer_is_certified_within_2_of_the_optimum():
    # 12,800 joint episodes on the full 7-user game, then argmax play over all
    # 3^7 budget rows, and over every prefix of them, certifies the pricer's
    # exact worst gap. The best deterministic pricer's is 4 fixed-length and
    # 6 truncated; seeds 0-7 all reach 6 both ways.
    pricer = train_joint(FULL_GAME, TrainConfig(episodes=12_800, seed=0)).algorithm
    rows = np.array(list(itertools.product(FULL_GAME.budget_set, repeat=FULL_GAME.n_users)))
    worst = [int(play_batch(FULL_GAME, pricer, rows, lengths=np.full(len(rows), k),
                            sample=False).gap.max())
             for k in range(1, FULL_GAME.n_users + 1)]
    assert worst[-1] <= 6, f"fixed-length worst gap {worst[-1]}"
    assert max(worst) <= 6, f"worst gap by prefix length {worst}"


def test_greedy_worst_case_ratio_is_exact():
    configs = [
        GameConfig(8, 3, (1,), (1, 2, 4, 8)),
        GameConfig(6, 3, (2,), (2, 10)),
        GameConfig(10, 5, (1,), (1, 3, 9)),
        GameConfig(4, 2, (5,), (5, 7)),
    ]
    for cfg in configs:
        assert cfg.n_users >= 2 * cfg.n_resources
        ratio, welfare, gap_value, seq = exact_worst_case(cfg, GreedyPolicy().mixture(cfg))
        assert ratio == cfg.upper_bound / cfg.lower_bound, cfg
        assert play_protocol(cfg, GreedyPolicy(), seq) == (welfare, gap_value)


def _game_file(cfg):
    def braces(values):
        return "{" + ", ".join(map(str, values)) + "}"
    return (f"n_users = {cfg.n_users}\nn_resources = {cfg.n_resources}\n"
            f"price_set = {braces(cfg.price_set)}\nbudget_set = {braces(cfg.budget_set)}\n")


@pytest.mark.parametrize("cfg,expected", [
    (FULL_GAME, {"greedy": 3.0, "threshold": 2.25, "randomized": 2.0}),
    (STAIRCASE_GAME, {"greedy": 5.0, "threshold": 25 / 9, "randomized": 3.0}),
], ids=["full-7-user", "staircase-25-user"])
def test_bench_worst_mode_ratios_are_exact(tmp_path, cfg, expected):
    cfg_path = tmp_path / "game.cfg"
    cfg_path.write_text(_game_file(cfg))
    assert run_cli(["bench", "--config", str(cfg_path), "--mode", "worst",
                    "--out-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert {r["policy"]: float(r["cr"]) for r in rows} == pytest.approx(expected, rel=1e-9)


class _Schedule(_ScheduleRule):
    """One row of a schedule mixture, played on its own."""

    def __init__(self, prices):
        self.prices = prices

    def mixture(self, cfg):
        return self.prices[None, :]


def test_randomized_rule_worst_cases_on_full_game():
    table = RandomizedPolicy().mixture(FULL_GAME)
    cr, welfare, gap_value, _ = exact_worst_case(FULL_GAME, table)
    assert (cr, welfare, gap_value) == (2.0, 3.0, 3.0)
    # the largest expected gap over all 3^7 sequences comes at a lower ratio
    rows = np.array(list(itertools.product(FULL_GAME.budget_set, repeat=FULL_GAME.n_users)))
    gaps = sum(play_protocol(FULL_GAME, _Schedule(t), rows)[1] for t in table) / len(table)
    assert gaps.max() == 7.0


def test_single_user_game_is_free():
    for price_set, budget_set, n_resources in [
        ((1, 2), (1, 2), 1),
        ((3, 9), (3, 5, 7), 2),
        ((2, 4, 8), (6, 8), 1),
    ]:
        cfg = GameConfig(1, n_resources, price_set, budget_set)
        assert min(price_set) <= min(budget_set)
        payoff = payoff_game(cfg)
        mixed = solve_zero_sum(payoff)
        assert abs(mixed.value) <= 1e-9
        # the cheapest price is a pure optimum: zero gap against every budget
        assert (payoff.col(0) == 0).all()
        for b in budget_set:
            assert gap(cfg, (b,), (min(price_set),)) == 0


def test_abundant_resources_give_zero_gap():
    cfg = GameConfig(n_users=3, n_resources=3, price_set=(1, 2, 5),
                     budget_set=(2, 4))
    tcfg = TrainConfig(episodes=400, batch=4, seed=3, hidden=8, latent_dim=4,
                       mw_rollouts=2)
    learned = LearnedPolicy(train_joint(cfg, tcfg).algorithm)
    greedy = GreedyPolicy()
    for seq in itertools.product(cfg.budget_set, repeat=cfg.n_users):
        for policy in (learned, greedy):
            welfare, gap_value = play_protocol(cfg, policy, seq)
            assert gap_value == 0, (seq, type(policy).__name__)
            assert welfare == sum(seq)


CLI_CONFIG = """
n_users = 4
n_resources = 2
price_set = {1, 2, 3}
budget_set = {1, 2, 3}
sequence = [1, 2, 2, 3]
expert_prices = [1,1,2,3]; [1,2,2,2]; [2,2,3,3]
episodes = 40
batch = 4
hidden = 8
latent_dim = 4
mw_rollouts = 2
seed = 5
"""


def test_same_seed_cli_runs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CLI_CONFIG)
    commands = {
        "train-joint": ["train", "--mode", "joint"],
        "train-mw": ["train", "--mode", "adv-vs-mw"],
        "bench": ["bench", "--mode", "random", "--n-sequences", "50",
                  "--seed", "3"],
        "ne": ["ne", "--mode", "lp"],
    }
    for label, tail in commands.items():
        csv_sets = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{label}-{attempt}"
            argv = [tail[0], "--config", str(cfg_path),
                    "--out-dir", str(out), *tail[1:]]
            assert run_cli(argv) == 0, label
            csv_sets.append({p.name: p.read_bytes()
                             for p in sorted(out.glob("*.csv"))})
        assert csv_sets[0] and csv_sets[0] == csv_sets[1], label

    # a saved model scored twice gives the same table too
    model = tmp_path / "train-joint-a" / "algorithm.model"
    evals = []
    for attempt in ("a", "b"):
        out = tmp_path / f"eval-{attempt}"
        assert run_cli(["eval", "--config", str(cfg_path), "--model",
                        str(model), "--n-sequences", "30", "--seed", "4",
                        "--out-dir", str(out)]) == 0
        evals.append((out / "results.csv").read_bytes())
    assert evals[0] == evals[1]
