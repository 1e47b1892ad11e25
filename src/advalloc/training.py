"""Adversarial training loops for the pricing policy and budget generator.

Joint training alternates xi generator ascent steps with one pricing-policy
ascent step per iteration, all on one sampled batch: latents -> budget
sequences -> sequentially played price sequences with realized accepts. The
single-network variants replace the other side with a multiplicative-weights
(MW) learner over an explicit list of pure strategies.

Welfare counts accepted users' budgets, so the pricing gradient is the
shadow-price signal on each slot's price distribution and the generator
gradient is the best-completion gap per candidate budget.

A row is settled at a slot once it has no unit left or the slot is past its
length; no later price can change its welfare or its signal. A play makes
at most one pricing-policy forward per slot. A play without gradients
forwards only a set of rows holding every unsettled one: the set shrinks
once a quarter of it has settled, never below 2 rows (numpy sends a 1-row
product to gemv, whose bits differ from the gemm row), and the play stops
forwarding once every row has settled. Rows are independent in every
product, so each unsettled row gets the bits of a full-batch play; sampling
still draws one uniform per row and slot, settled rows included, all of them
in one call before the first slot. A gradient play forwards every row at
every slot, since the generator's signal reads every posted price. It
records the tape of each slot with a live row in place, into one tape block
of at most _TAPE_BYTES that it allocates once, and as soon as the block is
full or the live slots end it scores the block's signal with one sort and
back-propagates it in one pass, adding the slots in order, then records the
next slots over the same buffers: the gradient has the same bits as one
backprop per slot, and memory stays flat in the number of slots. The slots
after the last live one have an all-zero signal and are never recorded.
play_batch and algorithm_gradients check their rows with game.checked_rows,
as candidate_gaps does. train_alg_vs_mw checks its experts once; train_joint
re-checks its rows in algorithm_gradients and candidate_gaps every
iteration, train_adv_vs_mw its experts in candidate_gaps. Each loop checks
at entry that the nets it trains fit the game (check_fits), but train_joint
leaves its pricing policy to algorithm_gradients. Episode = one played
sequence; the convergence statistic is the gap averaged over the trailing
500 episodes.
"""
from __future__ import annotations

import collections
import dataclasses
import math
from typing import Sequence

import numpy as np

from .completion import candidate_gaps
from .game import (
    GameConfig,
    benchmark_rows,
    checked_int,
    checked_rows,
    play_out,
    strategy_rows,
    welfare_grid,
    welfare_paired,
)
from .nets import (
    N_STEP_FEATURES,
    AdversaryPolicy,
    AlgorithmPolicy,
    categorical_from_uniform,
    clip_grads,
    sample_categorical,
    scale_grads,
)

METRICS_HEADER = ("iteration", "mean_gap", "mean_welfare", "trailing_avg_gap")
TRAILING_EPISODES = 500
# raw MW weights only ever shrink relative to each other by (1+eta); rescale
# all of them together long before float64 overflow can bite
WEIGHT_RESCALE_LIMIT = 1e100
# a gradient play records its slots' tapes in place into a block of at most
# this many bytes (one slot if a slot's tape is larger) and back-propagates
# each block as soon as it is played, so its memory peak stays flat in the
# number of slots
_TAPE_BYTES = 320 * 1024


@dataclasses.dataclass
class TrainConfig:
    """Knobs for the training loops; defaults follow the experiment setups."""

    episodes: int = 100_000
    batch: int = 32
    xi: int = 1
    lr_alg: float = 1e-3
    lr_adv: float = 1e-3
    seed: int = 0
    snapshot_window: int = 1000
    mw_eta: float = 0.01
    mw_rollouts: int = 16
    latent_dim: int = 16
    hidden: int = 64
    encoder_width: int = 8
    clip: float | None = None
    target_gap: float | None = None
    stop_rtol: float = 0.1

    def __post_init__(self):
        for name in ("episodes", "batch", "xi", "snapshot_window", "mw_rollouts",
                     "latent_dim", "hidden", "encoder_width"):
            setattr(self, name, checked_int(getattr(self, name), name,
                                            minimum=0 if name == "episodes" else 1))
        self.seed = checked_int(self.seed, "seed", minimum=None)
        for name in ("lr_alg", "lr_adv", "mw_eta", "clip", "target_gap", "stop_rtol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.lr_alg <= 0 or self.lr_adv <= 0 or self.mw_eta <= 0:
            raise ValueError("learning rates must be positive")
        if self.clip is not None and self.clip <= 0:
            raise ValueError("clip must be positive when set")
        if self.stop_rtol <= 0:
            raise ValueError("stop_rtol must be positive")


def make_algorithm_policy(cfg: GameConfig, tcfg: TrainConfig,
                          rng: np.random.Generator) -> AlgorithmPolicy:
    return AlgorithmPolicy(cfg.n_users, cfg.n_prices, hidden=(tcfg.hidden,) * 3,
                           encoder_width=tcfg.encoder_width, rng=rng)


def make_adversary_policy(cfg: GameConfig, tcfg: TrainConfig,
                          rng: np.random.Generator) -> AdversaryPolicy:
    return AdversaryPolicy(cfg.n_users, cfg.n_budgets, latent_dim=tcfg.latent_dim,
                           hidden=(tcfg.hidden,) * 4, rng=rng)


@dataclasses.dataclass
class MwState:
    """Multiplicative-weights learner over an explicit pure-strategy list.

    Weights stay raw (a textbook update multiplies by 1 + eta * r with r
    normalized into [0, 1]); the induced mixture is weights / sum.
    """

    weights: np.ndarray
    eta: float = 0.01

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if (self.weights <= 0).any():
            raise ValueError("weights must stay positive")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")

    @classmethod
    def uniform(cls, n_strategies: int, eta: float = 0.01) -> "MwState":
        return cls(weights=np.ones(n_strategies), eta=eta)

    @property
    def mixture(self) -> np.ndarray:
        return self.weights / self.weights.sum()


def normalize_payoffs(payoffs: np.ndarray) -> np.ndarray:
    """Affine min-max map onto [0, 1]; a constant vector maps to all 0.5."""
    payoffs = np.asarray(payoffs, dtype=np.float64)
    lo = payoffs.min()
    hi = payoffs.max()
    if hi <= lo:
        return np.full_like(payoffs, 0.5)
    return (payoffs - lo) / (hi - lo)


def mw_update(state: MwState, payoffs: Sequence[float]) -> MwState:
    """One weight update; callers pass gains (negate first to make MW minimize)."""
    payoffs = np.asarray(payoffs, dtype=np.float64)
    if payoffs.shape != state.weights.shape:
        raise ValueError(f"{payoffs.size} payoffs for {state.weights.size} weights")
    weights = state.weights * (1.0 + state.eta * normalize_payoffs(payoffs))
    if weights.max() > WEIGHT_RESCALE_LIMIT:
        weights = weights / weights.max()
    return MwState(weights=weights, eta=state.eta)


@dataclasses.dataclass(frozen=True)
class TrainSnapshot:
    episode: int
    params: list[np.ndarray]


class SnapshotRing:
    """Bounded ring of recent parameter snapshots tagged by episode count."""

    def __init__(self, capacity: int):
        self.capacity = checked_int(capacity, "capacity")
        self._entries: collections.deque[TrainSnapshot] = collections.deque(
            maxlen=self.capacity)

    def record(self, episode: int, params: Sequence[np.ndarray]) -> None:
        self._entries.append(TrainSnapshot(
            episode=int(episode), params=[np.array(p, copy=True) for p in params]))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[TrainSnapshot, ...]:
        return tuple(self._entries)

    @property
    def episodes(self) -> tuple[int, ...]:
        return tuple(e.episode for e in self._entries)

    def latest(self) -> TrainSnapshot:
        if not self._entries:
            raise IndexError("ring is empty")
        return self._entries[-1]

    def sample(self, rng: np.random.Generator) -> TrainSnapshot:
        if not self._entries:
            raise IndexError("ring is empty")
        return self._entries[int(rng.integers(len(self._entries)))]


@dataclasses.dataclass
class BatchResult:
    """Outcome of playing a pricing policy against a batch of budget rows.

    A play without gradients posts no price in a settled cell (no unit left
    before the slot, or the slot past the row's end): its price_idx is -1
    and its price 0, which lies outside every price set, so feeding it on
    as a price fails validation. A gradient play posts a price in every cell.
    """

    price_idx: np.ndarray   # (batch, n_users) indices into the price set; -1 if settled
    prices: np.ndarray      # posted prices; 0 if settled
    accepted: np.ndarray    # realized accepts
    welfare: np.ndarray     # (batch,) accepted-budget totals
    benchmark: np.ndarray   # (batch,) offline benchmark per row
    gap: np.ndarray         # (batch,) benchmark - welfare


def _price_signal(budgets: np.ndarray, lengths: np.ndarray, slots: np.ndarray,
                  left: np.ndarray, price_arr: np.ndarray) -> np.ndarray:
    """Shadow-price signal on the price distributions of a block of slots.

    slots (S,) and left (S, batch), the units left before each slot, give
    (S, batch, n_prices). Zero where the slot is past the row's end or no
    resource remains. One sort ranks every slot's remaining budgets: the
    budgets before a slot are masked to zero and sort last, where they
    double, like trailing padding, as the missing-order-statistic convention.
    """
    n_slots, batch = left.shape
    n = budgets.shape[1]
    # ranked[..., k] is the k-th largest remaining budget; 0 at k = 0 and k > n
    ranked = np.zeros((n_slots, batch, n + 2), dtype=np.int64)
    ranked[..., n:0:-1] = np.sort(budgets * (np.arange(n) >= slots[:, None, None]), axis=-1)
    rows = np.arange(n_slots * batch).reshape(n_slots, batch) * (n + 2)
    ranked = ranked.ravel()
    lam = (ranked[rows + np.minimum(left, n + 1)]
           + ranked[rows + np.minimum(left + 1, n + 1)]) / 2.0
    b = budgets[:, slots].T
    active = (left > 0) & (slots[:, None] < lengths)
    signal = np.where(active, b - lam, 0.0)
    return signal[..., None] * (price_arr <= b[..., None])


def check_fits(cfg: GameConfig, net) -> None:
    """Refuse a pricing policy or an adversary built for another game."""
    size, who = (("n_prices", "pricing policy") if net.kind == "algorithm"
                 else ("n_budgets", "adversary"))
    built, want = (net.n_users, getattr(net, size)), (cfg.n_users, getattr(cfg, size))
    if built != want:
        raise ValueError(f"{who} was built for (n_users, {size}) = {built}, "
                         f"config has {want}")


def _play(cfg: GameConfig, policy: AlgorithmPolicy, budgets: np.ndarray, lengths: np.ndarray,
          rng, sample: bool, want_grads: bool):
    """Play rows and lengths from game.checked_rows through the policy."""
    if sample and rng is None:
        raise ValueError("sampling prices requires an rng")
    batch, n = budgets.shape
    price_arr = np.asarray(cfg.price_set, dtype=np.int64)
    max_price = float(price_arr[-1])
    r = cfg.n_resources

    history = policy.encoder.empty(batch)
    # slot i's features: scaled index, scaled units left, last budget, last price
    features = np.zeros((n, batch, N_STEP_FEATURES))
    features[:, :, 0] = (np.arange(n) + 1)[:, None] / n
    features[1:, :, 2] = budgets[:, :-1].T / float(cfg.upper_bound)
    price_idx = np.zeros((batch, n), dtype=np.int64)
    lefts = np.zeros((n, batch), dtype=np.int64)
    # the rows a play forwards, and history holds, with their lengths: all of
    # them in a gradient play, a shrinking set holding every unsettled row in
    # a play without
    rows, row_lengths = slice(None), lengths
    posted = np.zeros(batch, dtype=np.int64)   # a settled row may keep any price
    u = rng.random((n, batch, 1)) if sample else None   # every slot draws for every row
    grad_total = None
    if want_grads:
        slot_bytes = 8 * batch * sum(policy.mlp.layer_sizes)   # float64 inputs and probs
        block = policy.tape_block(history, max(1, min(n, _TAPE_BYTES // slot_bytes)))

    def price_at(i, left):
        nonlocal grad_total, history, rows, row_lengths
        lefts[i] = left
        row_left = left[rows]
        live = (row_left > 0) & (i < row_lengths)
        if not want_grads:
            kept, n_live = live.size, np.count_nonzero(live)
            if n_live == 0:   # every row has settled: no price can matter any more
                return posted
            # Shrink geometrically, once a quarter of the kept rows have settled,
            # and to no fewer than 2 rows: numpy sends a 1-row product to gemv,
            # whose bits differ from the gemm row the full batch gets.
            if 4 * (kept - n_live) >= kept and max(n_live, 2) < kept:
                keep = live
                if n_live == 1:   # pad with a settled row
                    keep[np.argmin(keep)] = True
                rows = np.arange(batch)[rows][keep]
                row_left, row_lengths = row_left[keep], row_lengths[keep]
                history = dataclasses.replace(history, history=history.history[keep],
                                              row=history.row[keep])
        # the pass reads the history's input row, its features filled in place
        step = history.step
        step[...] = features[i, rows]
        step[:, 1] = row_left / r
        # A slot where no row is live has an all-zero signal. Settling is
        # permanent, so such slots form a suffix that is never recorded.
        recorded = want_grads and live.any()
        probs, _ = policy.forward(block if recorded else history, step)
        if sample:
            idx = categorical_from_uniform(probs, u[i, rows])
        else:
            idx = np.argmax(probs, axis=1)
        price_idx[rows, i] = idx
        posted[rows] = price_arr[idx]
        if want_grads:
            end = i + 1 if recorded else i   # the block holds slots end - block.slots ..
            if block.slots and (block.slots == block.filled.size or end in (i, n)):
                slots = np.arange(end - block.slots, end)
                grad_total = policy.backprop(
                    block, _price_signal(budgets, lengths, slots, lefts[slots], price_arr),
                    into=grad_total)
                block.slots = 0
        if i < n - 1:
            policy.encoder.extend(history, step)
            features[i + 1, rows, 3] = posted[rows] / max_price
        return posted

    welfare, accepted = play_out(budgets, r, price_at)
    bench = benchmark_rows(budgets, r)
    prices = price_arr[price_idx]
    if not want_grads:
        settled = (lefts.T == 0) | (np.arange(n) >= lengths[:, None])
        price_idx[settled] = -1
        prices[settled] = 0
    result = BatchResult(price_idx=price_idx, prices=prices, accepted=accepted,
                         welfare=welfare, benchmark=bench, gap=bench - welfare)
    if not want_grads:
        return result, None
    return result, scale_grads(grad_total, 1.0 / batch)


def play_batch(cfg: GameConfig, policy: AlgorithmPolicy, budgets, rng=None, *,
               lengths=None, sample: bool = True) -> BatchResult:
    """Play budget rows through the policy; sample=False decodes by argmax."""
    check_fits(cfg, policy)
    budgets, lengths = checked_rows(cfg, budgets, "budgets", lengths)
    return _play(cfg, policy, budgets, lengths, rng, sample, want_grads=False)[0]


def algorithm_gradients(cfg: GameConfig, policy: AlgorithmPolicy, budgets, rng, *,
                        lengths=None, sample: bool = True):
    """Play a batch and return (result, mean shadow-price gradient on params)."""
    check_fits(cfg, policy)
    budgets, lengths = checked_rows(cfg, budgets, "budgets", lengths)
    return _play(cfg, policy, budgets, lengths, rng, sample, want_grads=True)


@dataclasses.dataclass
class TrainResult:
    algorithm: AlgorithmPolicy | None
    adversary: AdversaryPolicy | None
    alg_ring: SnapshotRing | None
    adv_ring: SnapshotRing | None
    mw: MwState | None
    metrics: list[tuple[int, float, float, float]]
    episodes: int
    iterations: int
    stopped_early: bool


def _trailing_average(trailing) -> float:
    return float(sum(trailing)) / len(trailing)


def _should_stop(tcfg: TrainConfig, trailing) -> bool:
    if tcfg.target_gap is None or len(trailing) < TRAILING_EPISODES:
        return False
    avg = _trailing_average(trailing)
    return abs(avg - tcfg.target_gap) <= tcfg.stop_rtol * abs(tcfg.target_gap)


def _sample_adversary_rows(cfg: GameConfig, adversary: AdversaryPolicy,
                           rng: np.random.Generator, count: int):
    latents = rng.normal(size=(count, adversary.latent_dim))
    probs, tape = adversary.forward(latents)
    idx = sample_categorical(rng, probs)
    budget_arr = np.asarray(cfg.budget_set, dtype=np.int64)
    return latents, budget_arr[idx], probs, tape


def _ascend(net, grads: list[np.ndarray], tcfg: TrainConfig, lr: float) -> None:
    if tcfg.clip is not None:
        clip_grads(grads, tcfg.clip)
    net.step(grads, lr)


def _run_loop(tcfg: TrainConfig, step, snapshots, metrics_hook) -> dict:
    """Call step() until the episode budget is spent or the stop rule fires.

    step() runs one iteration's updates on tcfg.batch episodes and returns
    their (gap, welfare) rows; a floating-point overflow or invalid result
    inside it is a ValueError. After each iteration every net in snapshots
    must still have finite params (else ValueError), the metrics row goes to
    metrics_hook, then every (ring, net) pair in snapshots records the net's
    params, then the trailing-gap stop rule is checked. Returns the
    TrainResult fields metrics, episodes, iterations and stopped_early.
    """
    trailing = collections.deque(maxlen=TRAILING_EPISODES)
    metrics: list[tuple[int, float, float, float]] = []
    episodes = 0
    iteration = 0
    stopped = False
    while episodes < tcfg.episodes:
        iteration += 1
        try:
            with np.errstate(over="raise", invalid="raise"):
                gap, welfare = step()
        except FloatingPointError as exc:
            raise ValueError(f"training diverged at iteration {iteration}: {exc}") from None
        for _, net in snapshots:
            if not all(np.isfinite(p).all() for p in net.params):
                raise ValueError(f"{net.kind} net parameters became non-finite at "
                                 f"iteration {iteration}")
        episodes += tcfg.batch
        trailing.extend(gap.tolist())
        metrics.append((iteration, float(gap.mean()), float(welfare.mean()),
                        _trailing_average(trailing)))
        if metrics_hook is not None:
            metrics_hook(metrics[-1])
        for ring, net in snapshots:
            ring.record(episodes, net.params)
        if _should_stop(tcfg, trailing):
            stopped = True
            break
    return dict(metrics=metrics, episodes=episodes, iterations=iteration,
                stopped_early=stopped)


def train_joint(cfg: GameConfig, tcfg: TrainConfig, *,
                algorithm: AlgorithmPolicy | None = None,
                adversary: AdversaryPolicy | None = None,
                rng: np.random.Generator | None = None,
                metrics_hook=None) -> TrainResult:
    """Alternating ascent: xi generator steps then one pricing step per batch.

    Both updates reuse the iteration's single sampled batch; the generator's
    probability gradients depend only on the sampled sequences, so each of
    its xi steps re-runs the forward pass at the current parameters.
    """
    rng = np.random.default_rng(tcfg.seed) if rng is None else rng
    algorithm = algorithm or make_algorithm_policy(cfg, tcfg, rng)
    adversary = adversary or make_adversary_policy(cfg, tcfg, rng)
    check_fits(cfg, adversary)
    alg_ring = SnapshotRing(tcfg.snapshot_window)
    adv_ring = SnapshotRing(tcfg.snapshot_window)

    def step():
        latents, budgets, _, _ = _sample_adversary_rows(cfg, adversary, rng, tcfg.batch)
        result, alg_grads = algorithm_gradients(cfg, algorithm, budgets, rng)
        adv_signal = candidate_gaps(cfg, result.prices, budgets).astype(np.float64)
        for _ in range(tcfg.xi):
            _, tape = adversary.forward(latents)
            grads = adversary.backprop(tape, adv_signal)
            scale_grads(grads, 1.0 / tcfg.batch)
            _ascend(adversary, grads, tcfg, tcfg.lr_adv)
        _ascend(algorithm, alg_grads, tcfg, tcfg.lr_alg)
        return result.gap, result.welfare

    loop = _run_loop(tcfg, step, [(alg_ring, algorithm), (adv_ring, adversary)],
                     metrics_hook)
    return TrainResult(algorithm=algorithm, adversary=adversary, alg_ring=alg_ring,
                       adv_ring=adv_ring, mw=None, **loop)


def train_alg_vs_mw(cfg: GameConfig, tcfg: TrainConfig, adversary_pure_strategies, *,
                    algorithm: AlgorithmPolicy | None = None,
                    rng: np.random.Generator | None = None,
                    metrics_hook=None) -> TrainResult:
    """Pricing policy against an MW learner over fixed budget sequences.

    MW payoffs are each sequence's mean gap against the current policy,
    estimated with mw_rollouts sampled plays (common across strategies).
    """
    rng = np.random.default_rng(tcfg.seed) if rng is None else rng
    algorithm = algorithm or make_algorithm_policy(cfg, tcfg, rng)
    check_fits(cfg, algorithm)
    experts, expert_lengths = strategy_rows(cfg, adversary_pure_strategies, "budgets",
                                            allow_partial=True)
    n_experts = experts.shape[0]
    rep_rows = np.repeat(experts, tcfg.mw_rollouts, axis=0)
    rep_lens = np.repeat(expert_lengths, tcfg.mw_rollouts)
    mw = MwState.uniform(n_experts, tcfg.mw_eta)
    ring = SnapshotRing(tcfg.snapshot_window)

    def step():
        nonlocal mw
        # expected gap per pure strategy, fresh sampled plays
        rollout, _ = _play(cfg, algorithm, rep_rows, rep_lens, rng, sample=True,
                           want_grads=False)
        payoffs = rollout.gap.reshape(n_experts, tcfg.mw_rollouts).mean(axis=1)
        mw = mw_update(mw, payoffs)

        # policy ascent against the updated mixture
        pick = sample_categorical(rng, np.tile(mw.mixture, (tcfg.batch, 1)))
        result, grads = _play(cfg, algorithm, experts[pick], expert_lengths[pick], rng,
                              sample=True, want_grads=True)
        _ascend(algorithm, grads, tcfg, tcfg.lr_alg)
        return result.gap, result.welfare

    loop = _run_loop(tcfg, step, [(ring, algorithm)], metrics_hook)
    return TrainResult(algorithm=algorithm, adversary=None, alg_ring=ring,
                       adv_ring=None, mw=mw, **loop)


def train_adv_vs_mw(cfg: GameConfig, tcfg: TrainConfig, algorithm_pure_strategies, *,
                    adversary: AdversaryPolicy | None = None,
                    rng: np.random.Generator | None = None,
                    metrics_hook=None) -> TrainResult:
    """Budget generator against an MW learner over fixed price sequences.

    MW is the minimizing side here, so its payoff is the negated mean gap of
    each price sequence against freshly sampled generator output.
    """
    rng = np.random.default_rng(tcfg.seed) if rng is None else rng
    adversary = adversary or make_adversary_policy(cfg, tcfg, rng)
    check_fits(cfg, adversary)
    experts, _ = strategy_rows(cfg, algorithm_pure_strategies, "prices")
    mw = MwState.uniform(experts.shape[0], tcfg.mw_eta)
    ring = SnapshotRing(tcfg.snapshot_window)

    def step():
        nonlocal mw
        # expected gap per price sequence on shared generator samples
        _, roll_budgets, _, _ = _sample_adversary_rows(cfg, adversary, rng,
                                                       tcfg.mw_rollouts)
        gaps = (benchmark_rows(roll_budgets, cfg.n_resources)[:, None]
                - welfare_grid(roll_budgets, experts, cfg.n_resources))
        mw = mw_update(mw, -gaps.mean(axis=0))

        # generator ascent against the updated mixture
        pick = sample_categorical(rng, np.tile(mw.mixture, (tcfg.batch, 1)))
        prices = experts[pick]
        latents, budgets, probs, tape = _sample_adversary_rows(cfg, adversary, rng,
                                                               tcfg.batch)
        signal = candidate_gaps(cfg, prices, budgets).astype(np.float64)
        grads = adversary.backprop(tape, signal)
        scale_grads(grads, 1.0 / tcfg.batch)
        _ascend(adversary, grads, tcfg, tcfg.lr_adv)
        bench = benchmark_rows(budgets, cfg.n_resources)
        welfare = welfare_paired(budgets, prices, cfg.n_resources)
        return bench - welfare, welfare

    loop = _run_loop(tcfg, step, [(ring, adversary)], metrics_hook)
    return TrainResult(algorithm=None, adversary=adversary, alg_ring=None,
                       adv_ring=ring, mw=mw, **loop)
