"""Posted-price allocation game: instance config, play-out, benchmark, gap.

One unit of resource per user. A user with budget b faced with posted price p
accepts iff b >= p and a unit is still available; an accepted user pays
nothing here -- welfare is the sum of accepted budgets. The offline benchmark
accepts the largest min(R, N) budgets of the whole sequence. The gap of a
(budget sequence, price sequence) pair is benchmark minus algorithm welfare.

All game values are exact integers. Rational price/budget sets must be
pre-scaled to integers by the caller.
"""
from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

import numpy as np


def _as_int_tuple(values: Iterable, what: str) -> tuple[int, ...]:
    values = tuple(values)
    if {int}.issuperset(map(type, values)):  # fast path: exact ints, so no bool
        return values
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{what} entries must be integers, got {v!r}")
    return tuple(int(v) for v in values)


def checked_int(value, name: str, minimum: int | None = 1) -> int:
    """A Python or numpy integer (not a bool) of at least minimum, as an int.

    minimum=None sets no lower bound.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)) \
            or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


@dataclasses.dataclass(frozen=True)
class GameConfig:
    """Instance description: N users, R resource units, price set A, budget set B."""

    n_users: int
    n_resources: int
    price_set: tuple[int, ...]
    budget_set: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "price_set", _as_int_tuple(self.price_set, "price_set"))
        object.__setattr__(self, "budget_set", _as_int_tuple(self.budget_set, "budget_set"))
        for name in ("n_users", "n_resources"):
            object.__setattr__(self, name, checked_int(getattr(self, name), name))
        for name, vals in (("price_set", self.price_set), ("budget_set", self.budget_set)):
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            if vals[0] <= 0:
                raise ValueError(f"{name} entries must be positive")
            if any(a >= b2 for a, b2 in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly increasing: {vals}")

    @property
    def upper_bound(self) -> int:
        return self.budget_set[-1]

    @property
    def lower_bound(self) -> int:
        return self.budget_set[0]

    @property
    def n_prices(self) -> int:
        return len(self.price_set)

    @property
    def n_budgets(self) -> int:
        return len(self.budget_set)


@dataclasses.dataclass(frozen=True)
class AllocationTrace:
    """One play-through of a price sequence against a budget sequence."""

    accepted: tuple[bool, ...]
    resources_before: tuple[int, ...]
    alg_welfare: int
    benchmark_flags: tuple[bool, ...]
    benchmark_value: int
    gap: int


def validate_sequence(cfg: GameConfig, seq: Sequence[int], value_set: tuple[int, ...],
                      what: str, allow_partial: bool = False) -> tuple[int, ...]:
    """Check entries against a value set and the instance length; return a tuple."""
    seq = _as_int_tuple(seq, what)
    if allow_partial:
        if len(seq) > cfg.n_users:
            raise ValueError(f"{what} longer than n_users: {len(seq)} > {cfg.n_users}")
    elif len(seq) != cfg.n_users:
        raise ValueError(f"{what} length {len(seq)} != n_users {cfg.n_users}")
    allowed = set(value_set)
    if not allowed.issuperset(seq):
        for v in seq:
            if v not in allowed:
                raise ValueError(f"{what} entry {v} not in {value_set}")
    return seq


def validate_budgets(cfg: GameConfig, budgets: Sequence[int],
                     allow_partial: bool = False) -> tuple[int, ...]:
    return validate_sequence(cfg, budgets, cfg.budget_set, "budgets", allow_partial)


def validate_prices(cfg: GameConfig, prices: Sequence[int],
                    allow_partial: bool = False) -> tuple[int, ...]:
    return validate_sequence(cfg, prices, cfg.price_set, "prices", allow_partial)


def benchmark(cfg: GameConfig, budgets: Sequence[int]) -> tuple[int, tuple[bool, ...]]:
    """Offline optimum: value and flags of the top-min(R, len) budgets.

    Ties at the cutoff go to the earliest arrival, which fixes the flags
    canonically; the value is unaffected.
    """
    return _top_picks(validate_budgets(cfg, budgets, allow_partial=True), cfg.n_resources)


def _top_picks(budgets: tuple[int, ...], n_resources: int) -> tuple[int, tuple[bool, ...]]:
    """benchmark() of an already validated budget tuple."""
    k = min(n_resources, len(budgets))
    order = sorted(range(len(budgets)), key=lambda i: (-budgets[i], i))
    chosen = set(order[:k])
    flags = tuple(i in chosen for i in range(len(budgets)))
    return sum(budgets[i] for i in chosen), flags


def simulate(cfg: GameConfig, budgets: Sequence[int], prices: Sequence[int]) -> AllocationTrace:
    """Greedy arrival-order play-out of posted prices against a budget sequence.

    Sequences must have equal length (at most n_users; shorter sequences are
    prefixes of an instance, as used by prefix-style pure strategies).
    """
    budgets = validate_budgets(cfg, budgets, allow_partial=True)
    prices = validate_prices(cfg, prices, allow_partial=True)
    if len(budgets) != len(prices):
        raise ValueError(f"length mismatch: {len(budgets)} budgets vs {len(prices)} prices")
    y = cfg.n_resources
    accepted = []
    before = []
    welfare = 0
    for b, p in zip(budgets, prices):
        before.append(y)
        take = y > 0 and b >= p
        accepted.append(take)
        if take:
            welfare += b
            y -= 1
    bench_value, flags = _top_picks(budgets, cfg.n_resources)
    return AllocationTrace(
        accepted=tuple(accepted),
        resources_before=tuple(before),
        alg_welfare=welfare,
        benchmark_flags=flags,
        benchmark_value=bench_value,
        gap=bench_value - welfare,
    )


def gap(cfg: GameConfig, budgets: Sequence[int], prices: Sequence[int]) -> int:
    """Benchmark welfare minus algorithm welfare; always >= 0."""
    return simulate(cfg, budgets, prices).gap


def parse_sequence(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer sequence ("1,2,3"); whitespace tolerated."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        return ()
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"malformed integer sequence {text!r}") from exc


def format_sequence(seq: Sequence[int]) -> str:
    return ",".join(str(int(v)) for v in seq)


# Vectorized kernels over many sequences at once. Rows may be zero-padded to a
# common length: a zero budget is below every positive price so it is never
# accepted and never enters the top-R sum, i.e. padding does not change values.

def strategy_rows(cfg: GameConfig, strategies, what: str,
                  allow_partial: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Validated "budgets" or "prices" sequences as zero-padded (M, n_users)
    int64 rows and their (M,) int64 lengths; at least one is required."""
    value_set = cfg.budget_set if what == "budgets" else cfg.price_set
    seqs = [validate_sequence(cfg, s, value_set, what, allow_partial) for s in strategies]
    if not seqs:
        raise ValueError(f"need at least one pure strategy ({what})")
    rows = np.zeros((len(seqs), cfg.n_users), dtype=np.int64)
    for row, seq in zip(rows, seqs):
        row[:len(seq)] = seq
    return rows, np.asarray([len(seq) for seq in seqs], dtype=np.int64)


def checked_rows(cfg: GameConfig, rows, what: str,
                 lengths=None) -> tuple[np.ndarray, np.ndarray]:
    """"budgets" or "prices" rows as (M, n_users) int64 rows zeroed past each
    row's length, and their (M,) int64 lengths (all n_users if None).

    The rows must be a 2-D integer array (bool and float refused) of width
    n_users, and lengths integers in [1, n_users]. Live entries, those before
    a row's length, must lie in the value set; padding is free.
    """
    value_set = cfg.budget_set if what == "budgets" else cfg.price_set
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != cfg.n_users or rows.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integer rows of shape (M, {cfg.n_users}), "
                         f"got {rows.dtype} {rows.shape}")
    m, n = rows.shape
    if lengths is None:
        lengths = np.full(m, n, dtype=np.int64)
    else:
        lengths = np.asarray(lengths)
        if lengths.shape != (m,):
            raise ValueError(f"one length per {what} row required")
        if lengths.dtype.kind not in "iu":
            fractional = lengths[lengths != np.floor(lengths)]   # NaN included
            if fractional.size:
                raise ValueError(f"lengths entry {fractional[0].item()} is not an integer")
        if (lengths < 1).any() or (lengths > n).any():
            raise ValueError("lengths must lie in [1, n_users]")
    live = np.arange(n) < lengths[:, None]
    allowed = np.asarray(value_set)   # sorted: the nearest entry at or above
    outside = live & (allowed.take(np.searchsorted(allowed, rows), mode="clip") != rows)
    if outside.any():
        raise ValueError(f"{what} entry {rows[outside][0].item()} not in {value_set}")
    return (np.where(live, rows, 0).astype(np.int64, copy=False),
            lengths.astype(np.int64, copy=False))


_INT_RANGES = tuple((np.dtype(t), int(np.iinfo(t).min), int(np.iinfo(t).max))
                    for t in (np.int8, np.int16, np.int32))


def _narrowest_int(lo: int, hi: int) -> np.dtype:
    """Smallest signed integer dtype holding every value in [lo, hi] (int64 at most)."""
    for dtype, low, high in _INT_RANGES:
        if low <= lo and hi <= high:
            return dtype
    return np.dtype(np.int64)


def welfare_grid(budget_rows: np.ndarray, price_rows: np.ndarray, n_resources: int) -> np.ndarray:
    """(M, N) integer budget rows x (K, N) integer price rows -> (M, K) int64 welfare.

    The N steps update preallocated M x K buffers in place. Comparisons, the
    units-left counter and the welfare sum run in the narrowest integer dtypes
    that hold the inputs, min(R, N) and min(R, N) * max budget respectively;
    the sum is widened to int64 once at the end.
    """
    budget_rows = np.asarray(budget_rows, dtype=np.int64)
    price_rows = np.asarray(price_rows, dtype=np.int64)
    M, N = budget_rows.shape
    K = price_rows.shape[0]
    units = max(0, min(n_resources, N))   # at most N units can ever be taken
    top_budget = int(budget_rows.max(initial=0))
    value_type = _narrowest_int(min(budget_rows.min(initial=0), price_rows.min(initial=0)),
                                max(top_budget, price_rows.max(initial=0)))
    welfare_type = _narrowest_int(0, units * top_budget)
    # one contiguous row per step
    budgets = budget_rows.T.astype(value_type, order="C")[:, :, None]
    prices = price_rows.T.astype(value_type, order="C")
    positive = budget_rows.T > 0
    gains = np.where(positive, budget_rows.T, 0).astype(welfare_type)[:, :, None]
    left = np.full((M, K), units, dtype=_narrowest_int(0, units))
    take = np.empty((M, K), dtype=bool)
    taken = take.view(np.int8)    # the same 0/1 bytes, for integer arithmetic
    step_welfare = np.empty((M, K), dtype=welfare_type)
    welfare = np.zeros((M, K), dtype=welfare_type)
    for i in range(N):
        np.greater_equal(budgets[i], prices[i], out=take)
        if not positive[i].all():   # zero padding: a zero budget never takes
            take[~positive[i]] = False
        if i >= units:   # before step i at most i units are gone
            np.logical_and(take, left, out=take)
        np.multiply(taken, gains[i], out=step_welfare)
        welfare += step_welfare
        left -= taken
    return welfare.astype(np.int64, copy=False)


def play_out(budget_rows: np.ndarray, n_resources: int, price_at):
    """Row-paired play of (M, N) budget rows: (M,) int64 welfare, (M, N) accepts.

    price_at(i, left) returns slot i's (M,) posted prices given the (M,) int64
    units left before that slot, so prices may adapt to the play so far. A row
    accepts iff its budget is positive, at least the price, and a unit is left.
    """
    budget_rows = np.asarray(budget_rows, dtype=np.int64)
    M, N = budget_rows.shape
    left = np.full(M, n_resources, dtype=np.int64)
    accepted = budget_rows > 0   # narrowed slot by slot to the realized accepts
    for i in range(N):
        take = accepted[:, i]
        take &= (budget_rows[:, i] >= price_at(i, left)) & (left > 0)
        left = left - take   # a fresh array: price_at may keep the old one
    return (budget_rows * accepted).sum(axis=1), accepted


def welfare_paired(budget_rows: np.ndarray, price_rows: np.ndarray,
                   n_resources: int) -> np.ndarray:
    """Row-wise welfare of (M, N) budget rows against matching (M, N) price rows."""
    price_rows = np.asarray(price_rows)
    return play_out(budget_rows, n_resources, lambda i, left: price_rows[:, i])[0]


def benchmark_rows(budget_rows: np.ndarray, n_resources: int) -> np.ndarray:
    """(M, N) budget rows -> (M,) top-min(R, N) sums (zero padding is inert)."""
    budget_rows = np.asarray(budget_rows)
    M, N = budget_rows.shape
    k = min(n_resources, N)
    top = np.sort(budget_rows, axis=1)[:, N - k:]
    return top.sum(axis=1, dtype=np.int64)
