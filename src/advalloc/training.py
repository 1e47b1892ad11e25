"""Adversarial training loops for the pricing policy and budget generator.

Joint training alternates xi generator ascent steps with one pricing-policy
ascent step per iteration, all on one sampled batch: latents -> budget
sequences -> sequentially played price sequences with realized accepts. The
single-network variants replace the other side with a multiplicative-weights
(MW) learner over an explicit list of pure strategies.

Welfare counts accepted users' budgets, so the pricing gradient is the
shadow-price signal on each slot's price distribution and the generator
gradient is the best-completion gap per candidate budget. Episode = one
played sequence; the convergence statistic is the gap averaged over the
trailing 500 episodes.
"""
from __future__ import annotations

import collections
import dataclasses
from typing import Sequence

import numpy as np

from .game import (
    GameConfig,
    benchmark_rows,
    checked_int,
    validate_budgets,
    validate_prices,
    welfare_grid,
    welfare_paired,
)
from .gradients import budget_gradient
from .nets import (
    N_STEP_FEATURES,
    AdversaryPolicy,
    AlgorithmPolicy,
    add_grads,
    clip_grads,
    sample_categorical,
    scale_grads,
)

METRICS_HEADER = ("iteration", "mean_gap", "mean_welfare", "trailing_avg_gap")
TRAILING_EPISODES = 500
# raw MW weights only ever shrink relative to each other by (1+eta); rescale
# all of them together long before float64 overflow can bite
WEIGHT_RESCALE_LIMIT = 1e100


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
    """Outcome of playing a pricing policy against a batch of budget rows."""

    price_idx: np.ndarray   # (batch, n_users) indices into the price set
    prices: np.ndarray      # posted prices
    accepted: np.ndarray    # realized accepts
    welfare: np.ndarray     # (batch,) accepted-budget totals
    benchmark: np.ndarray   # (batch,) offline benchmark per row
    gap: np.ndarray         # (batch,) benchmark - welfare


def _prepare_budget_rows(cfg: GameConfig, budgets, lengths):
    budgets = np.asarray(budgets, dtype=np.int64)
    if budgets.ndim == 1:
        budgets = budgets[None, :]
    batch, n = budgets.shape
    if n != cfg.n_users:
        raise ValueError(f"budget rows have {n} slots, config has {cfg.n_users}")
    if lengths is None:
        lengths = np.full(batch, n, dtype=np.int64)
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (batch,):
            raise ValueError("one length per budget row required")
        if (lengths < 1).any() or (lengths > n).any():
            raise ValueError("lengths must lie in [1, n_users]")
    # zero out slots past each row's end; zeros are inert everywhere downstream
    live = np.arange(n)[None, :] < lengths[:, None]
    return np.where(live, budgets, 0), lengths


def _price_grad_matrix(budgets: np.ndarray, lengths: np.ndarray, step: int,
                       y: np.ndarray, price_arr: np.ndarray) -> np.ndarray:
    """Per-row shadow-price signal on the slot's price distribution.

    Zero rows where the slot is past the sequence end or no resource remains.
    Trailing zero padding doubles as the missing-order-statistic convention.
    """
    batch = budgets.shape[0]
    rem = np.sort(budgets[:, step:], axis=1)[:, ::-1]
    width = rem.shape[1]
    rows = np.arange(batch)
    d_y = np.where((y >= 1) & (y <= width),
                   rem[rows, np.clip(y - 1, 0, width - 1)], 0)
    d_next = np.where(y + 1 <= width,
                      rem[rows, np.clip(y, 0, width - 1)], 0)
    lam = (d_y + d_next) / 2.0
    b = budgets[:, step]
    active = (y > 0) & (step < lengths)
    signal = np.where(active, b - lam, 0.0)
    return signal[:, None] * (price_arr[None, :] <= b[:, None])


def _play(cfg: GameConfig, policy: AlgorithmPolicy, budgets, lengths, rng,
          sample: bool, want_grads: bool):
    built = (policy.n_users, policy.n_prices)
    if built != (cfg.n_users, cfg.n_prices):
        raise ValueError(f"pricing policy was built for (n_users, n_prices) = {built}, "
                         f"config has {(cfg.n_users, cfg.n_prices)}")
    budgets, lengths = _prepare_budget_rows(cfg, budgets, lengths)
    if sample and rng is None:
        raise ValueError("sampling prices requires an rng")
    batch, n = budgets.shape
    price_arr = np.asarray(cfg.price_set, dtype=np.int64)
    u = float(cfg.upper_bound)
    max_price = float(price_arr[-1])
    r = cfg.n_resources

    history = np.zeros((batch, n - 1, N_STEP_FEATURES))
    y = np.full(batch, r, dtype=np.int64)
    welfare = np.zeros(batch, dtype=np.int64)
    price_idx = np.zeros((batch, n), dtype=np.int64)
    accepted = np.zeros((batch, n), dtype=bool)
    prev_b = np.zeros(batch)
    prev_p = np.zeros(batch)
    grad_total = None
    for i in range(n):
        current = np.stack([
            np.full(batch, (i + 1) / n),
            y / r,
            prev_b / u,
            prev_p / max_price,
        ], axis=1)
        probs, tape = policy.forward(history, current)
        if sample:
            idx = sample_categorical(rng, probs)
        else:
            idx = np.argmax(probs, axis=1)
        p = price_arr[idx]
        b = budgets[:, i]
        take = (b >= p) & (y > 0)
        price_idx[:, i] = idx
        accepted[:, i] = take
        welfare += np.where(take, b, 0)
        if want_grads:
            g = _price_grad_matrix(budgets, lengths, i, y, price_arr)
            grad_total = add_grads(grad_total, policy.backprop(tape, g))
        y = y - take
        if i < n - 1:
            history[:, i, :] = current
        prev_b = b.astype(np.float64)
        prev_p = p.astype(np.float64)

    bench = benchmark_rows(budgets, r)
    result = BatchResult(price_idx=price_idx, prices=price_arr[price_idx],
                         accepted=accepted, welfare=welfare, benchmark=bench,
                         gap=bench - welfare)
    if not want_grads:
        return result, None
    if grad_total is None:
        grad_total = policy.zero_grads()
    scale_grads(grad_total, 1.0 / batch)
    return result, grad_total


def play_batch(cfg: GameConfig, policy: AlgorithmPolicy, budgets, rng=None, *,
               lengths=None, sample: bool = True) -> BatchResult:
    """Play budget rows through the policy; sample=False decodes by argmax."""
    result, _ = _play(cfg, policy, budgets, lengths, rng, sample, want_grads=False)
    return result


def algorithm_gradients(cfg: GameConfig, policy: AlgorithmPolicy, budgets, rng, *,
                        lengths=None, sample: bool = True):
    """Play a batch and return (result, mean shadow-price gradient on params)."""
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


def _pad_expert_budgets(cfg: GameConfig, strategies):
    if not strategies:
        raise ValueError("need at least one pure strategy")
    rows = []
    lengths = []
    for seq in strategies:
        seq = validate_budgets(cfg, seq, allow_partial=True)
        lengths.append(len(seq))
        rows.append(list(seq) + [0] * (cfg.n_users - len(seq)))
    return np.asarray(rows, dtype=np.int64), np.asarray(lengths, dtype=np.int64)


def _trailing_average(trailing) -> float:
    return float(sum(trailing)) / len(trailing)


def _should_stop(tcfg: TrainConfig, trailing) -> bool:
    if tcfg.target_gap is None or len(trailing) < TRAILING_EPISODES:
        return False
    avg = _trailing_average(trailing)
    return abs(avg - tcfg.target_gap) <= tcfg.stop_rtol * abs(tcfg.target_gap)


def _adversary_grad_probs(cfg: GameConfig, prices: np.ndarray,
                          budgets: np.ndarray) -> np.ndarray:
    """Best-completion gap per candidate budget, for every (row, slot)."""
    batch, n = budgets.shape
    out = np.zeros((batch, n, cfg.n_budgets))
    for j in range(batch):
        pj = tuple(int(v) for v in prices[j])
        bj = tuple(int(v) for v in budgets[j])
        for i in range(n):
            out[j, i] = budget_gradient(cfg, pj, bj, i).per_action
    return out


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
    their (gap, welfare) rows. After each iteration the metrics row goes to
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
        gap, welfare = step()
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
    alg_ring = SnapshotRing(tcfg.snapshot_window)
    adv_ring = SnapshotRing(tcfg.snapshot_window)

    def step():
        latents, budgets, _, _ = _sample_adversary_rows(cfg, adversary, rng, tcfg.batch)
        result, alg_grads = algorithm_gradients(cfg, algorithm, budgets, rng)
        adv_signal = _adversary_grad_probs(cfg, result.prices, budgets)
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
    experts, expert_lengths = _pad_expert_budgets(cfg, adversary_pure_strategies)
    n_experts = experts.shape[0]
    mw = MwState.uniform(n_experts, tcfg.mw_eta)
    ring = SnapshotRing(tcfg.snapshot_window)

    def step():
        nonlocal mw
        # expected gap per pure strategy, fresh sampled plays
        rep_rows = np.repeat(experts, tcfg.mw_rollouts, axis=0)
        rep_lens = np.repeat(expert_lengths, tcfg.mw_rollouts)
        rollout = play_batch(cfg, algorithm, rep_rows, rng, lengths=rep_lens)
        payoffs = rollout.gap.reshape(n_experts, tcfg.mw_rollouts).mean(axis=1)
        mw = mw_update(mw, payoffs)

        # policy ascent against the updated mixture
        pick = sample_categorical(rng, np.tile(mw.mixture, (tcfg.batch, 1)))
        result, grads = algorithm_gradients(cfg, algorithm, experts[pick], rng,
                                            lengths=expert_lengths[pick])
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
    experts = np.asarray([validate_prices(cfg, seq) for seq in algorithm_pure_strategies],
                         dtype=np.int64)
    if experts.size == 0:
        raise ValueError("need at least one pure strategy")
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
        signal = _adversary_grad_probs(cfg, prices, budgets)
        grads = adversary.backprop(tape, signal)
        scale_grads(grads, 1.0 / tcfg.batch)
        _ascend(adversary, grads, tcfg, tcfg.lr_adv)
        bench = benchmark_rows(budgets, cfg.n_resources)
        welfare = welfare_paired(budgets, prices, cfg.n_resources)
        return bench - welfare, welfare

    loop = _run_loop(tcfg, step, [(ring, adversary)], metrics_hook)
    return TrainResult(algorithm=None, adversary=adversary, alg_ring=None,
                       adv_ring=ring, mw=mw, **loop)
