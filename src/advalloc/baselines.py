"""Classical posted-price baselines and their exact worst cases.

Every policy speaks one protocol: play_rows(cfg, rows, rng) -> welfare
scores a whole (count, n_users) array of budget rows, and play_protocol
plays a 1-D sequence as one row. Each classical rule defines only its
mixture(cfg): an (L, R + 1) table of price schedules by units sold (floats
allowed; thresholds are not snapped to the price grid), played with equal
weight, so one row is drawn per sequence. LearnedPolicy plays blocks of
rows through training.play_batch. Both score rows with game.play_out,
the one batched acceptance rule (budget >= price while resources remain);
welfare counts accepted budgets, and competitive ratios divide the offline
benchmark by welfare.

Worst cases: exact_worst_case finds the sequence of largest competitive
ratio over all |B|^N for every schedule rule; a learned policy is attacked
by sampling its trained opponent's snapshots. Anything defining play_rows
plugs into the same evaluation.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .game import (
    GameConfig,
    _narrowest_int,
    benchmark_rows,
    checked_int,
    checked_rows,
    play_out,
    validate_budgets,
)
from .nets import AdversaryPolicy, AlgorithmPolicy, categorical_from_uniform
from .rng import derive_rng
from .training import SnapshotRing, TrainSnapshot, check_fits, play_batch

RESULTS_HEADER = ("policy", "mode", "cr", "mean_welfare", "mean_gap")
EVAL_MODES = ("worst", "random")
# LearnedPolicy.play_rows plays, and snapshot_sequence_sampler draws, at most
# this many budget cells (rows x n_users) per batch, so scoring many rows
# keeps a flat memory peak
_BLOCK_CELLS = 1 << 11
# exact_worst_case refuses a schedule table whose DP tracks more (reachable
# sold-count state, benchmark picks left) cells than this per slot
MAX_WORST_CASE_CELLS = 50_000


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


class _ScheduleRule:
    """A rule whose posted price depends only on the number of units sold."""

    def mixture(self, cfg: GameConfig) -> np.ndarray:
        """(L, R + 1) price schedules by units sold, each played with weight 1/L."""
        raise NotImplementedError

    def schedules(self, cfg: GameConfig, rng: np.random.Generator | None,
                  count: int) -> np.ndarray:
        """(count, R + 1) prices, one mixture row drawn per sequence."""
        table = self.mixture(cfg)
        if len(table) == 1:
            return np.repeat(table, count, axis=0)
        if rng is None:
            raise ValueError(f"{type(self).__name__} draws a schedule per sequence: pass an rng")
        return table[rng.integers(len(table), size=count)]

    def play_rows(self, cfg: GameConfig, rows: np.ndarray,
                  rng: np.random.Generator | None) -> np.ndarray:
        table, at, r = self.schedules(cfg, rng, len(rows)), np.arange(len(rows)), cfg.n_resources
        return play_out(rows, r, lambda i, left: table[at, r - left])[0]


class GreedyPolicy(_ScheduleRule):
    """Posts the lowest budget value, accepting everyone while units remain."""

    def mixture(self, cfg):
        return np.full((1, cfg.n_resources + 1), float(cfg.lower_bound))


class ThresholdPolicy(_ScheduleRule):
    """Deterministic rule pricing at (U e / L)^z (L / e) for utilization z."""

    def mixture(self, cfg):
        params, r = BaselineParams.from_config(cfg), cfg.n_resources
        return np.array([[threshold_price(params, k / r) for k in range(r + 1)]])


class RandomizedPolicy(_ScheduleRule):
    """Per-sequence threshold L*2^i with i drawn uniformly from the levels."""

    def mixture(self, cfg):
        params = BaselineParams.from_config(cfg)
        levels = params.lower * 2.0 ** np.arange(doubling_levels(params))
        return np.repeat(levels[:, None], cfg.n_resources + 1, axis=1)


class LearnedPolicy:
    """Trained pricing network scored through play_rows only; decodes by
    argmax unless sampling is requested. An attached opponent sampler
    supplies worst-case candidate sequences drawn from trained generator
    snapshots."""

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
    """Budget-row sampler that loads a uniformly drawn snapshot per sequence.

    Each sequence draws its snapshot, its latent and its uniforms in that
    order, as drawing one sequence at a time does. The rows are then made by
    one stacked forward per snapshot and block of at most _BLOCK_CELLS
    budget cells: its (m, 1, latent) product runs the 1-row kernel on every
    row, so they match 1-row draws byte for byte. The adversary is left
    holding the last sequence's snapshot.
    """
    check_fits(cfg, adversary)
    budget_arr = np.asarray(cfg.budget_set, dtype=np.int64)

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        latents = np.empty((count, 1, adversary.latent_dim))
        uniforms = np.empty((count, cfg.n_users, 1))
        groups: dict[int, tuple[TrainSnapshot, list[int]]] = {}
        for j in range(count):
            snapshot = ring.sample(rng)
            latents[j] = rng.normal(size=(1, adversary.latent_dim))
            uniforms[j] = rng.random(size=(cfg.n_users, 1))
            groups.setdefault(id(snapshot), (snapshot, []))[1].append(j)
        if count:   # the last sequence's snapshot is loaded last
            groups[id(snapshot)] = groups.pop(id(snapshot))
        rows = np.empty((count, cfg.n_users), dtype=np.int64)
        step = max(1, _BLOCK_CELLS // cfg.n_users)
        for snapshot, picks in groups.values():
            adversary.set_params(snapshot.params)
            for lo in range(0, len(picks), step):
                block = picks[lo:lo + step]
                probs, _ = adversary.forward(latents[block])
                rows[block] = budget_arr[categorical_from_uniform(probs, uniforms[block])]
        return rows

    return draw


def play_protocol(cfg: GameConfig, policy, budgets,
                  rng: np.random.Generator | None = None):
    """Play budgets through a policy and score them against the benchmark.

    A 1-D sequence returns (welfare, gap) as ints. A 2-D array of rows
    returns per-row (welfare, gap) int64 arrays. Both are scored by one
    policy.play_rows call, a sequence as one row. Every row must hold
    exactly n_users budgets from the budget set (game.checked_rows checks
    an array of rows).
    """
    one_row = np.ndim(budgets) != 2
    if one_row:
        rows = np.asarray([validate_budgets(cfg, budgets)], dtype=np.int64)
    else:
        rows, _ = checked_rows(cfg, budgets, "budgets")
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


def _schedule_moves(cfg: GameConfig, table: np.ndarray):
    """(budget, accepts, succ), each (S, C): move c from reachable sold-count
    state u (state 0 is all zeros) posts budget[u, c], which accepts[u, c]
    rows of the (L, R + 1) schedule table accept, and leads to succ[u, c].

    Between two posted prices the same rows accept and a move's gain is
    linear in its budget, so only the smallest budget at or above each
    posted price, the largest below it and the two extreme budgets are tried.
    """
    units = min(cfg.n_resources, cfg.n_users)  # no row sells more than N
    budgets = np.asarray(cfg.budget_set, dtype=np.int64)
    index, moves = {bytes(8 * len(table)): 0}, []
    frontier = np.zeros((1, len(table)), dtype=np.int64)
    while len(frontier):
        price = np.where(frontier < units, table[np.arange(len(table)), frontier], np.inf)
        up = np.searchsorted(budgets, price)
        ends = np.broadcast_to([0, len(budgets) - 1], (len(up), 2))
        budget = budgets[np.clip(np.hstack([up, up - 1, ends]), 0, len(budgets) - 1)]
        accept = budget[:, :, None] >= price[:, None, :]
        reached = (frontier[:, None, :] + accept).reshape(-1, len(table))
        keys = [state.tobytes() for state in reached]
        fresh = {k: state for k, state in zip(keys, reached) if k not in index}
        index.update({k: len(index) + i for i, k in enumerate(fresh)})
        if len(index) * (units + 1) > MAX_WORST_CASE_CELLS:
            raise ValueError(f"exact worst case needs over {MAX_WORST_CASE_CELLS} cells: "
                             f"{len(index)}+ reachable sold-count states x {units + 1} picks")
        succ = np.reshape([index[k] for k in keys], budget.shape)
        moves.append((budget, accept.sum(axis=2), succ))
        frontier = np.asarray(list(fresh.values()), dtype=np.int64).reshape(-1, len(table))
    return tuple(np.concatenate(part) for part in zip(*moves))


def _best_sequence(cfg: GameConfig, table: np.ndarray, moves, p: int, q: int):
    """(sequence, bench, W) maximizing (q L bench - p W, L bench - W) in
    lexicographic order, W the welfare summed over the L schedule rows."""
    budget, accepts, succ = moves
    n, units = len(table), min(cfg.n_resources, cfg.n_users)
    # the first key scaled past the second's range compares both in one integer
    scale = 2 * n * units * cfg.upper_bound + 1
    dtype = np.int64 if scale ** 3 < 2 ** 63 else object
    unpicked = -(p * scale + 1) * budget.astype(dtype) * accepts.astype(dtype)
    picked = unpicked + (q * scale + 1) * n * budget.astype(dtype)
    value, choices = np.zeros((len(budget), units + 1), dtype=dtype), []
    choice_type = _narrowest_int(0, 2 * budget.shape[1] - 1)   # a choice indexes 2 x width options
    for _ in range(cfg.n_users):
        after = value[succ]
        keep = unpicked[:, :, None] + after
        # choice c >= C plays move c - C and picks its budget; with no picks
        # left that option copies the move and loses the tie
        take = np.concatenate([keep[:, :, :1], picked[:, :, None] + after[:, :, :-1]], axis=2)
        options = np.concatenate([keep, take], axis=1)
        choices.append(options.argmax(axis=1).astype(choice_type))
        value = options.max(axis=1)
    seq, state, left, width = [], 0, units, budget.shape[1]
    for choice in reversed(choices):
        c = int(choice[state, left])
        c, left = (c - width, left - 1) if c >= width else (c, left)
        seq.append(int(budget[state, c]))
        state = succ[state, c]
    rows, at, r = np.asarray([seq], dtype=np.int64), np.arange(n), cfg.n_resources
    total = play_out(np.repeat(rows, n, axis=0), r, lambda i, left: table[at, r - left])[0].sum()
    return tuple(seq), int(benchmark_rows(rows, cfg.n_resources)[0]), int(total)


def exact_worst_case(cfg: GameConfig, schedules) -> tuple[float, float, float, tuple[int, ...]]:
    """(cr, mean welfare, gap, sequence) of the budget sequence of largest
    competitive ratio (largest gap on ties) against an (L, R + 1) table of
    price schedules by units sold, played with equal weight. If some
    sequence starves every row, cr is inf on the starving one of largest gap.

    Against a sequence fixed in advance every row plays deterministically,
    so a backward DP over (slot, units sold under each row, benchmark picks
    left) maximizes any linear objective. Dinkelbach's method in exact
    integers gives the ratio: from p/q = +inf, maximize (q L bench - p W,
    L bench - W) and move p/q to the found L bench / W until nothing beats it.
    """
    table = np.asarray(schedules, dtype=np.float64)
    n, moves = len(table), _schedule_moves(cfg, table)
    p, q = 1, 0  # ratio +inf: a sequence starving every row beats any other
    while True:
        seq, bench, total = _best_sequence(cfg, table, moves, p, q)
        if q * n * bench == p * total:
            return competitive_ratio(p, q), total / n, (n * bench - total) / n, seq
        p, q = n * bench, total


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
    if hasattr(policy, "mixture"):
        try:
            cr, welfare, gap_value, _ = exact_worst_case(cfg, policy.mixture(cfg))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        return EvalRow(name, "worst", cr, welfare, gap_value)
    sampler = getattr(policy, "opponent_sampler", None) or \
        (lambda r, count: random_sequences(cfg, r, count))
    welfare, gaps = play_protocol(cfg, policy, sampler(rng, n_candidates), rng)
    welfare, gaps = welfare.tolist(), gaps.tolist()
    crs = [competitive_ratio(w + g, w) for w, g in zip(welfare, gaps)]
    # max() keeps the first of equal (cr, gap) keys
    best = max(range(len(crs)), key=lambda i: (crs[i], gaps[i]))
    return EvalRow(name, "worst", crs[best], float(welfare[best]), float(gaps[best]))


def evaluate_policies(cfg: GameConfig, policies, *, mode: str,
                      n_sequences: int = 1000, seed: int = 0) -> list[EvalRow]:
    """Score a {name: policy} dict in one mode, in its order.

    worst: the exact worst case of each schedule rule, snapshot attack
    candidates for a learned policy, uniform random candidates for any
    other policy; rows carry the achieved competitive ratio.
    random: welfare and gap averaged over shared uniform sequences; the
    competitive-ratio column is left empty.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    n_sequences = checked_int(n_sequences, "n_sequences")
    rows: list[EvalRow] = []
    if mode == "worst":
        for name, policy in policies.items():
            rng = derive_rng(seed, f"eval:worst:{name}")
            rows.append(_worst_row(cfg, name, policy, rng, n_sequences))
        return rows
    shared = random_sequences(cfg, derive_rng(seed, "eval:sequences"), n_sequences)
    for name, policy in policies.items():
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
