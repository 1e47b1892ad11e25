"""Classical posted-price baselines and their worst-case sequence builders.

Every policy speaks one protocol: play_rows(cfg, rows, rng) -> welfare
scores a whole (count, n_users) array of budget rows, and play_protocol
plays a 1-D sequence as one row. The classical rules post a price that
depends only on how many units are sold, so each is a price schedule by
units sold: schedules(cfg, rng, count) returns one (R + 1)-entry row per
sequence (floats allowed; thresholds are not snapped to the price grid),
and the randomized rule draws its level per row. LearnedPolicy plays fixed
blocks of rows through training.play_batch (one network call per slot per
block, and with sampling one uniform per slot across the block).
Acceptance is budget >= price while resources remain, and welfare counts
accepted budgets, so competitive ratios divide the offline benchmark by
realized welfare.

Worst cases: deterministic threshold policies get the drive-then-starve
construction (force accepts at the cheapest grid budget, then feed budgets
just under the final price), built in closed form from the schedule; the
randomized policy gets the doubling ladder scored in exact expectation over
its threshold draw; a learned policy is attacked by sampling its trained
opponent's snapshots. Anything defining play_rows (an externally
implemented optimal-threshold rule, for instance) plugs into the same
evaluation; none is special-cased.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .game import GameConfig, benchmark_rows, validate_budgets
from .nets import AdversaryPolicy, AlgorithmPolicy, sample_categorical
from .rng import derive_rng
from .training import SnapshotRing, play_batch

RESULTS_HEADER = ("policy", "mode", "cr", "mean_welfare", "mean_gap")
EVAL_MODES = ("worst", "random")
# LearnedPolicy.play_rows plays at most this many budget cells (rows x
# n_users) per batch, so scoring many rows keeps a flat memory peak
_BLOCK_CELLS = 1 << 11


@dataclasses.dataclass(frozen=True)
class BaselineParams:
    """Budget bounds driving the threshold rules."""

    upper: float
    lower: float

    def __post_init__(self):
        if not self.upper >= self.lower > 0:
            raise ValueError(f"need U >= L > 0, got U={self.upper}, L={self.lower}")

    @classmethod
    def from_config(cls, cfg: GameConfig) -> "BaselineParams":
        return cls(upper=float(cfg.upper_bound), lower=float(cfg.lower_bound))


def threshold_price(params: BaselineParams, z: float) -> float:
    """(U e / L)^z * (L / e): L/e when untouched, exactly U when exhausted."""
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"utilization z must lie in [0, 1], got {z}")
    u, low = params.upper, params.lower
    return (u * math.e / low) ** z * (low / math.e)


def doubling_levels(params: BaselineParams) -> int:
    """Number of thresholds L*2^i, i in [0, floor(log2(U/L))] inclusive."""
    return int(math.floor(math.log2(params.upper / params.lower) + 1e-12)) + 1


def _play_schedules(rows: np.ndarray, schedules: np.ndarray, n_resources: int) -> np.ndarray:
    """Welfare of (M, N) budget rows, row j posting schedules[j, k] after k sales."""
    count = len(rows)
    at = np.arange(count)
    sold = np.zeros(count, dtype=np.int64)
    welfare = np.zeros(count, dtype=np.int64)
    for b in rows.T:
        take = (sold < n_resources) & (b >= schedules[at, sold])
        welfare += b * take
        sold += take
    return welfare


class _ScheduleRule:
    """A rule whose posted price depends only on the number of units sold."""

    def schedules(self, cfg: GameConfig, rng: np.random.Generator | None,
                  count: int) -> np.ndarray:
        """(count, R + 1) prices; entry k is posted after k sales."""
        raise NotImplementedError

    def play_rows(self, cfg: GameConfig, rows: np.ndarray,
                  rng: np.random.Generator | None) -> np.ndarray:
        return _play_schedules(rows, self.schedules(cfg, rng, len(rows)), cfg.n_resources)

    def worst_case(self, cfg: GameConfig) -> tuple[int, ...]:
        return worst_case_for_threshold(self, cfg)


class GreedyPolicy(_ScheduleRule):
    """Posts the lowest budget value, accepting everyone while units remain."""

    name = "greedy"

    def schedules(self, cfg, rng, count):
        return np.full((count, cfg.n_resources + 1), float(cfg.lower_bound))


class ThresholdPolicy(_ScheduleRule):
    """Deterministic rule pricing at (U e / L)^z (L / e) for utilization z."""

    name = "threshold"

    def schedules(self, cfg, rng, count):
        params, r = BaselineParams.from_config(cfg), cfg.n_resources
        row = [threshold_price(params, k / r) for k in range(r + 1)]
        return np.tile(row, (count, 1))


class RandomizedPolicy(_ScheduleRule):
    """Per-sequence threshold L*2^i with i drawn uniformly from the levels."""

    name = "randomized"

    def schedules(self, cfg, rng, count):
        params = BaselineParams.from_config(cfg)
        levels = params.lower * 2.0 ** rng.integers(doubling_levels(params), size=count)
        return np.repeat(levels[:, None], cfg.n_resources + 1, axis=1)

    def worst_case(self, cfg: GameConfig) -> tuple[int, ...]:
        return doubling_ladder(cfg)


class LearnedPolicy:
    """Trained pricing network scored through play_rows only; decodes by
    argmax unless sampling is requested. An attached opponent sampler
    supplies worst-case candidate sequences drawn from trained generator
    snapshots."""

    name = "learned"

    def __init__(self, policy: AlgorithmPolicy, *, sample: bool = False,
                 opponent_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None):
        self.policy = policy
        self.sample = sample
        self.opponent_sampler = opponent_sampler

    def play_rows(self, cfg: GameConfig, rows: np.ndarray,
                  rng: np.random.Generator | None) -> np.ndarray:
        """Welfare of each trusted budget row, played in blocks of rows."""
        step = max(1, _BLOCK_CELLS // cfg.n_users)
        welfare = np.empty(len(rows), dtype=np.int64)
        for lo in range(0, len(rows), step):
            welfare[lo:lo + step] = play_batch(cfg, self.policy, rows[lo:lo + step],
                                               rng, sample=self.sample).welfare
        return welfare


def snapshot_sequence_sampler(cfg: GameConfig, adversary: AdversaryPolicy,
                              ring: SnapshotRing):
    """Budget-row sampler that loads a uniformly drawn snapshot per sequence."""
    built = (adversary.n_users, adversary.n_budgets)
    if built != (cfg.n_users, cfg.n_budgets):
        raise ValueError(f"adversary was built for (n_users, n_budgets) = {built}, "
                         f"config has {(cfg.n_users, cfg.n_budgets)}")
    budget_arr = np.asarray(cfg.budget_set, dtype=np.int64)

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        rows = np.empty((count, cfg.n_users), dtype=np.int64)
        for j in range(count):
            adversary.set_params(ring.sample(rng).params)
            probs, _ = adversary.forward(rng.normal(size=(1, adversary.latent_dim)))
            rows[j] = budget_arr[sample_categorical(rng, probs)[0]]
        return rows

    return draw


def play_protocol(cfg: GameConfig, policy, budgets,
                  rng: np.random.Generator | None = None):
    """Play budgets through a policy and score them against the benchmark.

    A 1-D sequence returns (welfare, gap) as ints. A 2-D array of rows
    returns per-row (welfare, gap) int64 arrays. Both are scored by one
    policy.play_rows call, a sequence as one row. Every row must hold
    exactly n_users budgets from the budget set.
    """
    one_row = np.ndim(budgets) != 2
    if one_row:
        rows = np.asarray([validate_budgets(cfg, budgets)], dtype=np.int64)
    else:
        rows = np.asarray(budgets)
        if rows.shape[1] != cfg.n_users:
            raise ValueError(f"budget rows have {rows.shape[1]} slots, "
                             f"config has {cfg.n_users}")
        if rows.dtype.kind not in "iu":
            raise ValueError(f"budget rows must be integers, got dtype {rows.dtype}")
        if not np.isin(rows, cfg.budget_set).all():
            raise ValueError(f"budget rows hold entries not in {cfg.budget_set}")
        rows = rows.astype(np.int64, copy=False)
    welfare = np.asarray(policy.play_rows(cfg, rows, rng), dtype=np.int64)
    gaps = benchmark_rows(rows, cfg.n_resources) - welfare
    if one_row:
        return int(welfare[0]), int(gaps[0])
    return welfare, gaps


def competitive_ratio(benchmark: float, welfare: float) -> float:
    """Benchmark over welfare; infinity flags a starved run."""
    if welfare <= 0:
        return math.inf
    return benchmark / welfare


def _snap_up(grid: Sequence[int], price: float) -> int | None:
    for g in grid:
        if g >= price:
            return g
    return None


def _snap_down_strict(grid: Sequence[int], price: float) -> int | None:
    best = None
    for g in grid:
        if g < price:
            best = g
    return best


def worst_case_for_threshold(policy, cfg: GameConfig) -> tuple[int, ...]:
    """Adversarial sequence for a deterministic rule with a price schedule s,
    s[k] posted after k sales.

    For each target utilization t in 1..R: force t accepts at the cheapest
    grid budget the posted price admits, then starve the remaining slots
    with the largest grid budget strictly below max(s[:t+1]) (or the top
    budget once nothing can be accepted). Returns the first
    max-competitive-ratio candidate; candidates off the grid are skipped.
    This closed form is the adaptive construction only for a non-decreasing
    schedule, so a decreasing one is rejected.
    """
    grid = cfg.budget_set
    n, r = cfg.n_users, cfg.n_resources
    s = policy.schedules(cfg, None, 1)[0]
    if (np.diff(s) < 0).any():
        raise ValueError(f"{type(policy).__name__} posts a decreasing price schedule "
                         f"{s.tolist()}")
    candidates = []
    for target in range(1, r + 1):
        forced = [_snap_up(grid, p) for p in s[:min(target, n)]]
        starve = grid[-1] if target == r else _snap_down_strict(grid, s[:target + 1].max())
        seq = forced + [starve] * (n - len(forced))
        if None not in seq:
            candidates.append(seq)
    if not candidates:
        # the policy prices everything off the grid; any sequence starves it
        return (grid[-1],) * n
    welfare, gaps = play_protocol(cfg, policy, np.asarray(candidates, dtype=np.int64))
    crs = [competitive_ratio(w + g, w) for w, g in zip(welfare.tolist(), gaps.tolist())]
    return tuple(candidates[crs.index(max(crs))])


def doubling_ladder(cfg: GameConfig) -> tuple[int, ...]:
    """Gradually increasing budgets: R copies of each snapped threshold level,
    topped up with the largest budget."""
    params = BaselineParams.from_config(cfg)
    seq: list[int] = []
    for i in range(doubling_levels(params)):
        snapped = _snap_up(cfg.budget_set, params.lower * 2.0 ** i)
        if snapped is not None:
            seq.extend([snapped] * cfg.n_resources)
    seq.extend([cfg.budget_set[-1]] * cfg.n_users)
    return tuple(seq[:cfg.n_users])


def randomized_worst_case_cr(cfg: GameConfig) -> tuple[float, float, float]:
    """Exact expected performance of the randomized rule on the ladder.

    Returns (cr, expected welfare, expected gap) with the expectation taken
    over the uniform threshold draw, not Monte-Carlo.
    """
    params = BaselineParams.from_config(cfg)
    ladder = doubling_ladder(cfg)
    levels = doubling_levels(params)
    rows = np.tile(np.asarray(ladder, dtype=np.int64), (levels, 1))
    thresholds = params.lower * 2.0 ** np.arange(levels)
    schedules = np.repeat(thresholds[:, None], cfg.n_resources + 1, axis=1)
    mean_welfare = int(_play_schedules(rows, schedules, cfg.n_resources).sum()) / levels
    bench = int(benchmark_rows(rows[:1], cfg.n_resources)[0])
    return competitive_ratio(bench, mean_welfare), mean_welfare, bench - mean_welfare


def random_sequences(cfg: GameConfig, rng: np.random.Generator,
                     count: int) -> np.ndarray:
    """Uniform i.i.d. grid budgets, (count, n_users)."""
    idx = rng.integers(cfg.n_budgets, size=(count, cfg.n_users))
    return np.asarray(cfg.budget_set, dtype=np.int64)[idx]


@dataclasses.dataclass(frozen=True)
class EvalRow:
    policy: str
    mode: str
    cr: float | None
    mean_welfare: float
    mean_gap: float


def _worst_row(cfg: GameConfig, name: str, policy, rng: np.random.Generator,
               n_candidates: int) -> EvalRow:
    if isinstance(policy, RandomizedPolicy):
        cr, welfare, gap_value = randomized_worst_case_cr(cfg)
        return EvalRow(name, "worst", cr, welfare, gap_value)
    sampler = getattr(policy, "opponent_sampler", None)
    if sampler is not None:
        candidates = sampler(rng, n_candidates)
    elif hasattr(policy, "worst_case"):
        candidates = np.asarray(policy.worst_case(cfg), dtype=np.int64)[None, :]
    else:
        candidates = random_sequences(cfg, rng, n_candidates)
    welfare, gaps = play_protocol(cfg, policy, candidates, rng)
    welfare, gaps = welfare.tolist(), gaps.tolist()
    crs = [competitive_ratio(w + g, w) for w, g in zip(welfare, gaps)]
    # max() keeps the first of equal (cr, gap) keys
    best = max(range(len(crs)), key=lambda i: (crs[i], gaps[i]))
    return EvalRow(name, "worst", crs[best], float(welfare[best]), float(gaps[best]))


def evaluate_policies(cfg: GameConfig, policies, *, mode: str,
                      n_sequences: int = 1000, seed: int = 0) -> list[EvalRow]:
    """Score named policies in one mode.

    worst: each policy's adversarial construction (exact expectation for the
    randomized rule, snapshot attack candidates for a learned policy);
    rows carry the achieved competitive ratio.
    random: welfare and gap averaged over shared uniform sequences; the
    competitive-ratio column is left empty.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    if n_sequences < 1:
        raise ValueError(f"n_sequences must be at least 1, got {n_sequences}")
    named = list(policies.items()) if isinstance(policies, dict) else \
        [(p.name, p) for p in policies]
    rows: list[EvalRow] = []
    if mode == "worst":
        for name, policy in named:
            rng = derive_rng(seed, f"eval:worst:{name}")
            rows.append(_worst_row(cfg, name, policy, rng, n_sequences))
        return rows
    shared = random_sequences(cfg, derive_rng(seed, "eval:sequences"), n_sequences)
    for name, policy in named:
        rng = derive_rng(seed, f"eval:random:{name}")
        welfare, gaps = play_protocol(cfg, policy, shared, rng)
        rows.append(EvalRow(name, "random", None, float(welfare.sum()) / n_sequences,
                            float(gaps.sum()) / n_sequences))
    return rows


def default_policies() -> dict[str, object]:
    """The three classical baselines; learned policies are added by callers."""
    return {
        "greedy": GreedyPolicy(),
        "threshold": ThresholdPolicy(),
        "randomized": RandomizedPolicy(),
    }
