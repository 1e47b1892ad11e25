"""Baseline policies, their exact worst cases, and the evaluation table."""
import csv
import functools
import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import advalloc.baselines as baselines
from advalloc.baselines import (
    EVAL_MODES,
    RESULTS_HEADER,
    BaselineParams,
    EvalRow,
    GreedyPolicy,
    LearnedPolicy,
    RandomizedPolicy,
    ThresholdPolicy,
    competitive_ratio,
    default_policies,
    doubling_levels,
    evaluate_policies,
    exact_worst_case,
    play_protocol,
    random_sequences,
    snapshot_sequence_sampler,
    threshold_price,
)
from advalloc.cli import run_cli
from advalloc.game import GameConfig, benchmark_rows
from advalloc.nets import AdversaryPolicy, AlgorithmPolicy, sample_categorical
from advalloc.rng import derive_rng
from advalloc.training import (
    SnapshotRing,
    TrainConfig,
    make_adversary_policy,
    play_batch,
)

POW2 = GameConfig(n_users=8, n_resources=3, price_set=(1, 2, 4, 8),
                  budget_set=(1, 2, 4, 8))


class OverpricedPolicy(baselines._ScheduleRule):
    """Prices above every budget whatever is sold; never sells anything."""

    name = "overpriced"

    def mixture(self, cfg):
        return np.full((1, cfg.n_resources + 1), cfg.upper_bound + 1.0)


class FixedSchedule(baselines._ScheduleRule):
    """Posts prices[k] after k sales, whatever the game."""

    name = "fixed"

    def __init__(self, prices):
        self.prices = np.asarray(prices, dtype=np.float64)

    def mixture(self, cfg):
        return self.prices[None, :]


def _sweep_configs():
    """Seeded games with N in 1..9 and R in 1..6, R = N and R > N included."""
    rng = np.random.default_rng(2024)
    configs = [GameConfig(n_users=3, n_resources=3, price_set=(1,), budget_set=(1, 2, 5)),
               GameConfig(n_users=2, n_resources=5, price_set=(1,), budget_set=(2, 3, 9))]
    for _ in range(60):
        budgets = rng.choice(np.arange(1, 21), size=int(rng.integers(1, 6)), replace=False)
        configs.append(GameConfig(n_users=int(rng.integers(1, 10)),
                                  n_resources=int(rng.integers(1, 7)), price_set=(1,),
                                  budget_set=tuple(sorted(int(b) for b in budgets))))
    return configs


class TestBaselineParams:
    def test_from_config(self):
        params = BaselineParams.from_config(POW2)
        assert params.upper == 8.0
        assert params.lower == 1.0

    @pytest.mark.parametrize("upper,lower", [(1.0, 2.0), (1.0, 0.0), (2.0, -1.0)])
    def test_rejects_bad_bounds(self, upper, lower):
        with pytest.raises(ValueError):
            BaselineParams(upper=upper, lower=lower)


class TestThresholdPrice:
    def test_untouched_inventory(self):
        params = BaselineParams(upper=100.0, lower=10.0)
        assert threshold_price(params, 0.0) == pytest.approx(10.0 / math.e,
                                                             rel=1e-12)

    @pytest.mark.parametrize("upper,lower", [(100.0, 10.0), (8.0, 1.0), (5.0, 5.0)])
    def test_exhausted_inventory_prices_at_upper(self, upper, lower):
        params = BaselineParams(upper=upper, lower=lower)
        assert threshold_price(params, 1.0) == pytest.approx(upper, rel=1e-12)

    def test_degenerate_bounds(self):
        # U == L collapses the rule to L * e^(z - 1)
        params = BaselineParams(upper=10.0, lower=10.0)
        for z in (0.0, 0.25, 0.5, 1.0):
            assert threshold_price(params, z) == pytest.approx(
                10.0 * math.e ** (z - 1.0), rel=1e-12)

    def test_strictly_increasing_in_utilization(self):
        params = BaselineParams(upper=64.0, lower=2.0)
        zs = np.linspace(0.0, 1.0, 33)
        prices = [threshold_price(params, z) for z in zs]
        assert all(a < b for a, b in zip(prices, prices[1:]))

    @pytest.mark.parametrize("z", [-0.01, 1.01, 2.0])
    def test_rejects_utilization_outside_unit_interval(self, z):
        with pytest.raises(ValueError):
            threshold_price(BaselineParams(upper=4.0, lower=1.0), z)


class TestDoublingLevels:
    @pytest.mark.parametrize("upper,lower,expected", [
        (4.0, 1.0, 3),
        (1.0, 1.0, 1),
        (8.0, 1.0, 4),
        (7.0, 1.0, 3),
        (100.0, 10.0, 4),
    ])
    def test_level_count(self, upper, lower, expected):
        assert doubling_levels(BaselineParams(upper=upper, lower=lower)) == expected

    def test_uniform_draw_over_levels(self):
        cfg = GameConfig(n_users=3, n_resources=1, price_set=(1,),
                         budget_set=(1, 2, 4))
        rng = np.random.default_rng(5)
        draws = RandomizedPolicy().schedules(cfg, rng, 3000)[:, 0].tolist()
        counts = {t: draws.count(t) for t in (1.0, 2.0, 4.0)}
        assert set(counts) == {1.0, 2.0, 4.0}
        for c in counts.values():
            assert 0.28 < c / 3000 < 0.39


class TestPlayProtocol:
    def test_greedy_accepts_prefix(self):
        welfare, gap = play_protocol(POW2, GreedyPolicy(), (2, 8, 1, 4, 4, 8, 8, 8))
        # first three arrivals buy at price 1, then units run out
        assert welfare == 2 + 8 + 1
        assert gap == (8 + 8 + 8) - welfare

    def test_capacity_binds(self):
        cfg = GameConfig(n_users=4, n_resources=1, price_set=(1,),
                         budget_set=(1, 9))
        welfare, gap = play_protocol(cfg, GreedyPolicy(), (1, 9, 9, 9))
        assert welfare == 1
        assert gap == 8

    def test_acceptance_requires_budget_at_or_above_price(self):
        params = BaselineParams.from_config(POW2)
        rows = random_sequences(POW2, np.random.default_rng(2), 50)
        expected = []
        for row in rows.tolist():
            sold, welfare = 0, 0
            for b in row:
                if sold < POW2.n_resources and \
                        b >= threshold_price(params, sold / POW2.n_resources):
                    welfare += b
                    sold += 1
            expected.append(welfare)
        assert ThresholdPolicy().play_rows(POW2, rows, None).tolist() == expected

    def test_randomized_rule_needs_an_rng(self):
        with pytest.raises(ValueError, match="pass an rng"):
            play_protocol(POW2, RandomizedPolicy(), (1, 2, 4, 8, 1, 2, 4, 8))
        # a single-schedule rule draws nothing
        assert play_protocol(POW2, ThresholdPolicy(), (1, 2, 4, 8, 1, 2, 4, 8)) == (7, 13)

    def test_threshold_policy_raises_price_as_units_sell(self):
        (prices,) = ThresholdPolicy().schedules(POW2, None, 1)
        assert len(prices) == POW2.n_resources + 1
        assert all(a < b for a, b in zip(prices, prices[1:]))
        # sold out after R accepts: the price holds at its ceiling
        assert prices[-1] == pytest.approx(8.0)


class TestPlayProtocolInput:
    CFG = GameConfig(n_users=4, n_resources=2, price_set=(1, 2), budget_set=(1, 2))

    def policies(self):
        return [GreedyPolicy(), LearnedPolicy(AlgorithmPolicy(4, 2))]

    @pytest.mark.parametrize("row", [(2, 2), (1, 2, 2, 1, 2)])
    def test_sequence_of_wrong_length_is_rejected(self, row):
        for policy in self.policies():
            with pytest.raises(ValueError, match="length"):
                play_protocol(self.CFG, policy, row)

    @pytest.mark.parametrize("width", [2, 5])
    def test_rows_of_wrong_width_are_rejected(self, width):
        rows = np.ones((3, width), dtype=np.int64)
        for policy in self.policies():
            with pytest.raises(ValueError, match=rf"^budgets must be integer rows of shape "
                                                 rf"\(M, 4\), got int64 \(3, {width}\)$"):
                play_protocol(self.CFG, policy, rows)

    def test_off_grid_budgets_are_rejected(self):
        for policy in self.policies():
            with pytest.raises(ValueError, match="not in"):
                play_protocol(self.CFG, policy, (1, 2, 3, 1))
            with pytest.raises(ValueError, match="not in"):
                play_protocol(self.CFG, policy, np.array([[1, 2, 2, 1], [1, 3, 2, 1]]))
            with pytest.raises(ValueError, match=r"^budgets must be integer rows of shape "
                                                 r"\(M, 4\), got float64 \(2, 4\)$"):
                play_protocol(self.CFG, policy, np.ones((2, 4)))


def _varied_policy(cfg):
    """An argmax network whose posted prices move across the whole grid."""
    policy = AlgorithmPolicy(cfg.n_users, cfg.n_prices, hidden=(16, 16),
                             rng=np.random.default_rng(0))
    rng = np.random.default_rng(2)
    policy.set_params([rng.normal(scale=0.5, size=p.shape) for p in policy.params])
    return policy


class TestBatchedPlay:
    """The 2-D play_protocol equals per-row 1-D calls."""

    def per_row(self, policy, rows, rng=None):
        pairs = [play_protocol(POW2, policy, [int(b) for b in row], rng) for row in rows]
        return [w for w, _ in pairs], [g for _, g in pairs]

    def check(self, policy, rows, *, seed=None):
        rng = None if seed is None else np.random.default_rng(seed)
        welfare, gaps = play_protocol(POW2, policy, rows, rng)
        assert welfare.dtype == gaps.dtype == np.int64
        rng = None if seed is None else np.random.default_rng(seed)
        assert (welfare.tolist(), gaps.tolist()) == self.per_row(policy, rows, rng)

    @pytest.mark.parametrize("policy", [GreedyPolicy(), ThresholdPolicy()])
    def test_threshold_rules(self, policy):
        self.check(policy, random_sequences(POW2, np.random.default_rng(3), 40))

    def test_randomized_rule_with_equal_rng_draws(self):
        self.check(RandomizedPolicy(), random_sequences(POW2, np.random.default_rng(3), 40),
                   seed=8)

    @pytest.mark.parametrize("count", [1, 7, 23])
    def test_argmax_learned_policy_across_blocks(self, monkeypatch, count):
        monkeypatch.setattr(baselines, "_BLOCK_CELLS", 3 * POW2.n_users)
        policy = _varied_policy(POW2)
        rows = random_sequences(POW2, np.random.default_rng(5), count)
        res = play_batch(POW2, policy, rows, sample=False)
        assert len(set(res.prices[res.price_idx >= 0])) > 1   # settled cells post no price
        self.check(LearnedPolicy(policy), rows)

    def test_sampled_learned_one_row_blocks_match_per_row(self, monkeypatch):
        # one-row blocks draw the uniforms in the same order as per-row calls
        monkeypatch.setattr(baselines, "_BLOCK_CELLS", POW2.n_users)
        rows = random_sequences(POW2, np.random.default_rng(6), 12)
        self.check(LearnedPolicy(_varied_policy(POW2), sample=True), rows, seed=10)


class TestCompetitiveRatio:
    def test_ratio(self):
        assert competitive_ratio(12.0, 4.0) == 3.0

    @pytest.mark.parametrize("welfare", [0.0, -1.0])
    def test_starved_run_is_infinite(self, welfare):
        assert competitive_ratio(5.0, welfare) == math.inf


def _small_sweep_configs(limit=300_000):
    """The sweep games whose |B|^N sequences exhaustive search can play."""
    return [c for c in _sweep_configs() if c.n_budgets ** c.n_users <= limit]


def _all_sequences(cfg):
    """Every one of the |B|^N budget sequences, (|B|^N, n_users)."""
    idx = np.indices((cfg.n_budgets,) * cfg.n_users).reshape(cfg.n_users, -1).T
    return np.asarray(cfg.budget_set, dtype=np.int64)[idx]


def _exhaustive_worst(cfg, table):
    """(cr, gap at the largest cr, largest gap) of a schedule table over all
    sequences, from exhaustive play; gaps are Fractions, cr is a float."""
    rows = _all_sequences(cfg)
    total = sum(FixedSchedule(t).play_rows(cfg, rows, None) for t in table)
    scaled_bench = len(table) * benchmark_rows(rows, cfg.n_resources)
    gaps = scaled_bench - total
    largest_gap = Fraction(int(gaps.max()), len(table))
    if (total == 0).any():
        return math.inf, Fraction(int(gaps[total == 0].max()), len(table)), largest_gap
    first = int(np.argmax(scaled_bench / total))
    p, q = int(scaled_bench[first]), int(total[first])
    assert (scaled_bench * q <= total * p).all()  # no float rounding hid a larger ratio
    at_worst = scaled_bench * q == total * p
    return p / q, Fraction(int(gaps[at_worst].max()), len(table)), largest_gap


@functools.lru_cache(maxsize=None)
def _exhaustive_rule(cfg, name):
    return _exhaustive_worst(cfg, default_policies()[name].mixture(cfg))


def _largest_gap(cfg, table):
    """The DP's largest gap over all sequences (p = q = 1 maximizes L bench - W)."""
    moves = baselines._schedule_moves(cfg, table)
    _, bench, total = baselines._best_sequence(cfg, table, moves, 1, 1)
    return Fraction(len(table) * bench - total, len(table))


FULL_GAME = GameConfig(n_users=7, n_resources=3, price_set=(1, 3, 5, 7),
                       budget_set=(2, 4, 6))
SMALL_GAME = GameConfig(n_users=7, n_resources=3, price_set=(1, 2, 3),
                        budget_set=(1, 2, 3))


class TestExactWorstCase:
    """exact_worst_case against exhaustive play over all |B|^N sequences."""

    def check(self, cfg, table, expected):
        cr, welfare, gap_value, seq = exact_worst_case(cfg, table)
        worst_cr, worst_gap, largest_gap = expected
        assert cr == worst_cr
        assert gap_value == float(worst_gap)
        assert _largest_gap(cfg, table) == largest_gap
        # replaying the sequence once per schedule reproduces the reported row
        plays = [play_protocol(cfg, FixedSchedule(t), seq) for t in table]
        assert welfare == sum(w for w, _ in plays) / len(table)
        assert gap_value == sum(g for _, g in plays) / len(table)
        assert competitive_ratio(welfare + gap_value, welfare) == pytest.approx(cr, rel=1e-12)

    @pytest.mark.parametrize("name", ["greedy", "threshold", "randomized"])
    def test_default_rules_match_exhaustive_search(self, name):
        configs = [*_small_sweep_configs(), POW2, FULL_GAME, SMALL_GAME]
        assert len(configs) > 50
        for cfg in configs:
            self.check(cfg, default_policies()[name].mixture(cfg), _exhaustive_rule(cfg, name))

    def test_random_schedules_match_exhaustive_search(self):
        # mixtures of up to three schedules, decreasing ones included, whose
        # prices run on and off the grid
        rng = np.random.default_rng(21)
        for cfg in _small_sweep_configs(20_000):
            table = rng.uniform(0.5, cfg.upper_bound + 2.0,
                                (int(rng.integers(1, 4)), cfg.n_resources + 1))
            self.check(cfg, table, _exhaustive_worst(cfg, table))

    def test_huge_budgets_stay_exact(self):
        # past int64 range for the DP's packed keys, Python integers take over
        cfg = GameConfig(n_users=5, n_resources=2, price_set=(1,),
                         budget_set=(1, 3, 10 ** 6, 3 * 10 ** 6, 10 ** 7))
        for policy in default_policies().values():
            table = policy.mixture(cfg)
            self.check(cfg, table, _exhaustive_worst(cfg, table))

    def test_decreasing_schedule_matches_exhaustive_search(self):
        table = np.array([[1.0, 4.0, 2.0, 8.0]])
        self.check(POW2, table, _exhaustive_worst(POW2, table))

    def test_state_count_guard(self):
        cfg = GameConfig(n_users=50, n_resources=10, price_set=(1,),
                         budget_set=tuple(range(1, 101)))
        with pytest.raises(ValueError, match=r"\d+\+ reachable sold-count states"):
            exact_worst_case(cfg, RandomizedPolicy().mixture(cfg))
        with pytest.raises(ValueError, match="^randomized: "):
            evaluate_policies(cfg, {"randomized": RandomizedPolicy()}, mode="worst")


class TestGreedyWorstCase:
    def test_shape_drains_then_starves(self):
        *_, seq = exact_worst_case(POW2, GreedyPolicy().mixture(POW2))
        assert seq == (1, 1, 1, 8, 8, 8, 8, 8)

    @pytest.mark.parametrize("cfg", [
        POW2,
        GameConfig(n_users=6, n_resources=3, price_set=(2,), budget_set=(2, 10)),
        GameConfig(n_users=10, n_resources=5, price_set=(1,), budget_set=(1, 3, 9)),
        GameConfig(n_users=4, n_resources=2, price_set=(5,), budget_set=(5, 7)),
    ])
    def test_ratio_is_exactly_bound_spread(self, cfg):
        assert cfg.n_users >= 2 * cfg.n_resources
        cr, *_ = exact_worst_case(cfg, GreedyPolicy().mixture(cfg))
        assert cr == cfg.upper_bound / cfg.lower_bound

    @pytest.mark.parametrize("policy", [GreedyPolicy(), ThresholdPolicy()])
    def test_constructed_case_dominates_random_play(self, policy):
        worst_cr, *_ = exact_worst_case(POW2, policy.mixture(POW2))
        rng = np.random.default_rng(17)
        for row in random_sequences(POW2, rng, 1000):
            w, g = play_protocol(POW2, policy, [int(b) for b in row])
            assert competitive_ratio(w + g, w) <= worst_cr

    def test_unsellable_policy_gets_top_budget_filler(self):
        for cfg in [POW2, *_sweep_configs()]:
            cr, welfare, gap_value, seq = exact_worst_case(cfg, OverpricedPolicy().mixture(cfg))
            assert (cr, welfare) == (math.inf, 0.0)
            assert gap_value == min(cfg.n_resources, cfg.n_users) * cfg.upper_bound
            assert seq == (cfg.upper_bound,) * cfg.n_users


class TestRandomizedWorstCase:
    def test_exact_expectation_matches_enumeration(self):
        cr, mean_welfare, mean_gap, seq = exact_worst_case(
            POW2, RandomizedPolicy().mixture(POW2))
        bench = int(benchmark_rows(np.asarray(seq)[None, :], POW2.n_resources)[0])
        welfares = []
        for threshold in (1.0, 2.0, 4.0, 8.0):
            y, w = POW2.n_resources, 0
            for b in seq:
                if y > 0 and b >= threshold:
                    w += b
                    y -= 1
            welfares.append(w)
        expected = sum(welfares) / len(welfares)
        assert mean_welfare == pytest.approx(expected, rel=1e-12)
        assert mean_gap == pytest.approx(bench - expected, rel=1e-12)
        assert cr == pytest.approx(bench / expected, rel=1e-12)

    def test_pow2_exact_ratios(self):
        # randomizing over four doubling levels does not beat the
        # deterministic threshold's worst case on this game
        crs = {name: exact_worst_case(POW2, policy.mixture(POW2))[0]
               for name, policy in default_policies().items()}
        assert crs == {"greedy": 8.0, "threshold": 24 / 7, "randomized": 4.0}

    @pytest.mark.parametrize("n_users, n_resources, cr, gap, peak_mb", [
        (100, 8, 4.0, 42.0, None), (50, 10, 4.0, 52.5, 8.0)])
    def test_long_games_on_ten_levels(self, n_users, n_resources, cr, gap, peak_mb):
        # the DP stores each slot's choices in the narrowest integer dtype:
        # the N=50 peak is 7.3 MB, and was 11.1 MB with int64 choices
        levels = tuple(range(1, 11))
        cfg = GameConfig(n_users=n_users, n_resources=n_resources, price_set=levels,
                         budget_set=levels)
        table = RandomizedPolicy().mixture(cfg)
        tracemalloc.start()
        try:
            got_cr, _, got_gap, _ = exact_worst_case(cfg, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got_cr, got_gap) == (cr, gap)
        assert peak_mb is None or peak <= peak_mb * 1e6


class TestLearnedPolicy:
    def test_untrained_network_prices_at_cheapest_entry(self):
        cfg = GameConfig(n_users=5, n_resources=2, price_set=(1, 2, 3),
                         budget_set=(1, 2, 3))
        policy = AlgorithmPolicy(cfg.n_users, cfg.n_prices)
        learned = LearnedPolicy(policy)
        rng = np.random.default_rng(4)
        for row in random_sequences(cfg, rng, 20):
            seq = [int(b) for b in row]
            assert play_protocol(cfg, learned, seq) == \
                play_protocol(cfg, GreedyPolicy(), seq)

    def test_sampled_sequences_are_pinned(self):
        # (welfare, gap) pairs computed when a 1-D call streamed the sequence
        # slot by slot through the network with one uniform per slot
        learned = LearnedPolicy(_varied_policy(POW2), sample=True)
        rng = np.random.default_rng(11)
        rows = random_sequences(POW2, np.random.default_rng(7), 40)
        plays = [play_protocol(POW2, learned, [int(b) for b in row], rng) for row in rows]
        assert all(type(w) is int and type(g) is int for w, g in plays)
        assert hashlib.sha256(repr(plays).encode()).hexdigest() == \
            "d0b0de906a304499293d515fee9695d7165237ad99649b581c17a167ff5e16e8"

    def test_snapshot_sampler_is_seeded_and_on_grid(self):
        cfg = GameConfig(n_users=4, n_resources=2, price_set=(1, 2),
                         budget_set=(2, 4, 6))
        tcfg = TrainConfig(latent_dim=4, hidden=8)
        adversary = make_adversary_policy(cfg, tcfg, derive_rng(1, "adv"))
        ring = SnapshotRing(8)
        ring.record(10, adversary.get_params())
        adversary.step([0.1 * np.ones_like(p) for p in adversary.params], 1.0)
        ring.record(20, adversary.get_params())
        sampler = snapshot_sequence_sampler(cfg, adversary, ring)
        rows_a = sampler(np.random.default_rng(9), 6)
        rows_b = sampler(np.random.default_rng(9), 6)
        np.testing.assert_array_equal(rows_a, rows_b)
        assert rows_a.shape == (6, 4)
        assert set(rows_a.ravel()) <= {2, 4, 6}

    @pytest.mark.parametrize("cfg", [
        GameConfig(n_users=4, n_resources=2, price_set=(1, 2), budget_set=(2, 4, 6)),
        GameConfig(n_users=25, n_resources=5, price_set=(1, 2, 3, 4, 5),
                   budget_set=(1, 2, 3, 4, 5)),
        GameConfig(n_users=1, n_resources=1, price_set=(1,), budget_set=(1, 9)),
    ])
    def test_snapshot_draws_match_one_row_draws(self, cfg):
        # grouping the rows by snapshot (in blocks of rows) keeps each
        # sequence's rng order (snapshot, latent, uniforms) and the 1-row
        # forward's bytes
        adversary = make_adversary_policy(cfg, TrainConfig(latent_dim=5, hidden=12),
                                          derive_rng(2, "adv"))
        ring = SnapshotRing(3)
        rng = np.random.default_rng(8)
        for episode in range(3):
            adversary.step([rng.normal(size=p.shape) for p in adversary.params], 0.5)
            ring.record(episode, adversary.get_params())
        budget_arr = np.asarray(cfg.budget_set)
        ref_rng = np.random.default_rng(9)
        ref = []
        for _ in range(300):
            adversary.set_params(ring.sample(ref_rng).params)
            probs, _ = adversary.forward(ref_rng.normal(size=(1, adversary.latent_dim)))
            ref.append(budget_arr[sample_categorical(ref_rng, probs)[0]])
        ref_params = adversary.get_params()
        adversary.set_params(ring.entries[0].params)
        draw_rng = np.random.default_rng(9)
        rows = snapshot_sequence_sampler(cfg, adversary, ring)(draw_rng, 300)
        assert rows.tobytes() == np.array(ref).tobytes()
        assert draw_rng.random() == ref_rng.random()
        assert all(p.tobytes() == q.tobytes() for p, q in zip(adversary.params, ref_params))
        assert snapshot_sequence_sampler(cfg, adversary, ring)(draw_rng, 0).shape == \
            (0, cfg.n_users)

    @pytest.mark.parametrize("built", [(4, 2), (4, 5), (3, 3)])
    def test_snapshot_sampler_rejects_adversary_of_another_game(self, built):
        cfg = GameConfig(n_users=4, n_resources=2, price_set=(1, 2),
                         budget_set=(2, 4, 6))
        adversary = AdversaryPolicy(*built, latent_dim=2, hidden=(4,))
        ring = SnapshotRing(2)
        ring.record(1, adversary.get_params())
        with pytest.raises(ValueError, match=re.escape(f"{built}, config has (4, 3)")):
            snapshot_sequence_sampler(cfg, adversary, ring)

    def test_opponent_sampler_drives_worst_mode(self):
        cfg = GameConfig(n_users=3, n_resources=1, price_set=(1, 2),
                         budget_set=(1, 2))
        fixed = np.array([[2, 2, 2], [1, 1, 1]], dtype=np.int64)
        policy = AlgorithmPolicy(cfg.n_users, cfg.n_prices)
        learned = LearnedPolicy(policy, opponent_sampler=lambda rng, k: fixed)
        (row,) = evaluate_policies(cfg, {"learned": learned}, mode="worst",
                                   n_sequences=2)
        crs = []
        for cand in fixed:
            w, g = play_protocol(cfg, learned, [int(b) for b in cand])
            crs.append(competitive_ratio(w + g, w))
        assert row.cr == max(crs)


class TestPinnedBaselines:
    """random-mode tables pinned when the worst cases were still built per
    rule; worst-mode rows checked against exhaustive search."""

    def test_sweep_matches_pinned_fingerprint(self):
        configs = _sweep_configs()
        assert any(c.n_resources == c.n_users for c in configs)
        assert any(c.n_resources > c.n_users for c in configs)
        h = hashlib.sha256()
        for seed, cfg in enumerate(configs):
            h.update(repr(evaluate_policies(cfg, default_policies(), mode="random",
                                            n_sequences=20, seed=seed)).encode())
        assert h.hexdigest() == \
            "82b820058547f4b4444fdceb2d7681fb40b089c7962d2664e17719ef75fd9f88"

    def test_worst_rows_match_exhaustive_search(self):
        for cfg in _small_sweep_configs():
            for row in evaluate_policies(cfg, default_policies(), mode="worst"):
                cr, gap_value, _ = _exhaustive_rule(cfg, row.policy)
                assert (row.cr, row.mean_gap) == (cr, float(gap_value))
                if cr != math.inf:
                    assert row.mean_welfare + row.mean_gap == pytest.approx(
                        cr * row.mean_welfare, rel=1e-12)


class TestEvaluatePolicies:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            evaluate_policies(POW2, default_policies(), mode="typical")

    @pytest.mark.parametrize("n_sequences", [0, -3, 2.5, True])
    def test_random_mode_rejects_empty_sample(self, n_sequences):
        with pytest.raises(ValueError, match="n_sequences"):
            evaluate_policies(POW2, default_policies(), mode="random",
                              n_sequences=n_sequences)

    @pytest.mark.parametrize("n_sequences", [0, -3])
    def test_worst_mode_rejects_empty_snapshot_attack(self, n_sequences):
        adversary = make_adversary_policy(POW2, TrainConfig(latent_dim=4, hidden=8),
                                          derive_rng(1, "adv"))
        ring = SnapshotRing(4)
        ring.record(1, adversary.get_params())
        learned = LearnedPolicy(AlgorithmPolicy(POW2.n_users, POW2.n_prices),
                                opponent_sampler=snapshot_sequence_sampler(
                                    POW2, adversary, ring))
        with pytest.raises(ValueError, match="n_sequences"):
            evaluate_policies(POW2, {"learned": learned}, mode="worst",
                              n_sequences=n_sequences)

    @pytest.mark.parametrize("mode", ["worst", "random"])
    def test_same_seed_same_table(self, mode):
        first = evaluate_policies(POW2, default_policies(), mode=mode,
                                  n_sequences=60, seed=12)
        second = evaluate_policies(POW2, default_policies(), mode=mode,
                                   n_sequences=60, seed=12)
        assert first == second

    def test_worst_mode_rows(self):
        rows = evaluate_policies(POW2, default_policies(), mode="worst",
                                 n_sequences=20, seed=0)
        by_name = {r.policy: r for r in rows}
        assert by_name["greedy"].cr == POW2.upper_bound / POW2.lower_bound
        assert all(r.mode == "worst" and r.cr >= 1.0 for r in rows)

    def test_random_mode_leaves_ratio_empty_and_averages_welfare(self):
        rows = evaluate_policies(POW2, {"greedy": GreedyPolicy()},
                                 mode="random", n_sequences=40, seed=6)
        (row,) = rows
        assert row.cr is None
        shared = random_sequences(POW2, derive_rng(6, "eval:sequences"), 40)
        # greedy sells the first R arrivals of every sequence
        expected = shared[:, :POW2.n_resources].sum() / 40
        assert row.mean_welfare == pytest.approx(expected, rel=1e-12)

    def test_infinite_ratio_survives_the_table(self):
        rows = evaluate_policies(POW2, {"overpriced": OverpricedPolicy()},
                                 mode="worst", n_sequences=10, seed=0)
        assert rows[0].cr == math.inf
        assert rows[0].mean_welfare == 0.0

    def test_abundant_resources_make_greedy_optimal(self):
        cfg = GameConfig(n_users=3, n_resources=3, price_set=(1,),
                         budget_set=(1, 2, 4))
        rows = evaluate_policies(cfg, {"greedy": GreedyPolicy()},
                                 mode="worst", n_sequences=30, seed=0)
        assert rows[0].cr == 1.0
        assert rows[0].mean_gap == 0.0


# A joint-trained eight-user game. The rows below are the results.csv lines
# that eval and bench write for it with argmax decoding; batched play must
# reproduce them exactly.
PIN_CFG = """
n_users = 8
n_resources = 3
price_set = {1, 2, 4, 6, 8}
budget_set = {1, 2, 4, 8}
episodes = 192
batch = 16
hidden = 16
encoder_width = 4
latent_dim = 4
snapshot_window = 64
seed = 3
"""
PINNED_RESULTS = {
    "eval-random": (
        ["eval"], False,
        [["learned", "random", "", "11.32", "8.386666667"]]),
    "eval-snapshots": (
        ["eval"], True,
        [["learned", "snapshots", "", "11.76", "8.12"]]),
    "bench-random": (
        ["bench", "--mode", "random"], False,
        [["greedy", "random", "", "10.84666667", "7.42"],
         ["threshold", "random", "", "13.74666667", "4.52"],
         ["randomized", "random", "", "13.84666667", "4.42"],
         ["learned", "random", "", "11.08666667", "7.18"]]),
    "bench-worst": (
        ["bench", "--mode", "worst"], True,
        [["greedy", "worst", "8", "3", "21"],
         ["threshold", "worst", "3.428571429", "7", "17"],
         ["randomized", "worst", "4", "0.75", "2.25"],
         ["learned", "worst", "4.8", "5", "19"]]),
}


class TestPinnedEvalResults:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pinned")
        cfg = root / "game.cfg"
        cfg.write_text(PIN_CFG)
        assert run_cli(["train", "--config", str(cfg), "--out-dir", str(root / "t")]) == 0
        return root

    @pytest.mark.parametrize("name", list(PINNED_RESULTS))
    def test_results_csv_is_pinned(self, trained, name):
        head, snapshots, expected = PINNED_RESULTS[name]
        argv = [*head, "--config", str(trained / "game.cfg"),
                "--model", str(trained / "t" / "algorithm.model"),
                "--n-sequences", "150", "--seed", "4", "--out-dir", str(trained / name)]
        if snapshots:
            argv += ["--adversary", str(trained / "t" / "adversary.model"),
                     "--ring", str(trained / "t" / "adversary.ring")]
        assert run_cli(argv) == 0
        with open(trained / name / "results.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(RESULTS_HEADER)
        assert rows[1:] == expected
