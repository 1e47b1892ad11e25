"""Nash-equilibrium machinery for the sequence game.

The zero-sum game has budget sequences as row (maximizer) strategies and
price sequences as column (minimizer) strategies; entries are gaps. A
PayoffGame computes a row or a column only when a solver reads it: a row
against all |A|^N price sequences by a suffix DP that plays each price
suffix once, a row against an explicit column list or any column through
welfare_grid. Games of every size are solved exactly by strategy generation
(double oracle): each subgame is one simplex LP whose duals give the row
player's mix, best responses are exact scans of the payoff vectors built
from the support rows and columns read so far, and the loop ends only when
the upper and lower certificates meet. Fictitious play provides an
any-size approximate value bracket from the rows and columns it picks.
Both solvers also take a raw 2-D array, the dense reference the tests
compare against. A separate prefix-family LP computes the optimal
per-user acceptance probabilities against a fixed budget sequence.
"""
from __future__ import annotations

import dataclasses
import itertools
from typing import Sequence

import numpy as np

from .game import (
    GameConfig,
    _narrowest_int,
    benchmark_rows,
    checked_int,
    strategy_rows,
    welfare_grid,
)
from .simplex import solve_lp

VALUE_TOL = 1e-6
DEFAULT_MATRIX_CAP = 2 * 1024**3
_CACHE_CHUNK = 8         # rows or columns a solver's cache grows by at a time


class PayoffTooLargeError(ValueError):
    """A solver's row and column caches would exceed the memory cap.

    The solvers never hold the whole table: they read a payoff source one
    row and one column at a time and keep float64 copies of what they read.
    A cache grows by copying into a longer buffer, so the bytes counted against
    DEFAULT_MATRIX_CAP are the growing cache twice (old and new buffer)
    plus the other cache, which bounds the caches' peak. On the full 7-user
    game the LP's copies reach 7.1 MB (about 13.6 MB while a cache grows)
    and fictitious play's, over the 729 undominated price sequences, 1.5 MB
    (2.9 MB), against 36 MB for the int8 table. Fictitious play's refusal
    names the game it plays, 2187x729 there. The routes out are a smaller
    instance or ``ne --mode acceptance-lp`` for long sequences.
    """


@dataclasses.dataclass(frozen=True)
class MixedStrategy:
    row_mix: np.ndarray
    col_mix: np.ndarray
    row_value: float    # best guaranteed expected gap for the budget player
    col_value: float    # best expected-gap cap for the price player

    @property
    def value(self) -> float:
        return 0.5 * (self.row_value + self.col_value)


@dataclasses.dataclass(frozen=True)
class FictitiousPlayResult:
    lower: float
    upper: float
    row_avg: np.ndarray
    col_avg: np.ndarray
    iterations: int

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


def enumerate_strategies(value_set: Sequence[int], length: int) -> np.ndarray:
    """All value_set^length sequences, lexicographic order, one per row."""
    values = list(value_set)
    count = len(values) ** length
    out = np.fromiter(
        itertools.chain.from_iterable(itertools.product(values, repeat=length)),
        dtype=np.int64, count=count * length)
    return out.reshape(count, length)


def _suffix_gaps(rows: np.ndarray, bench: np.ndarray, price_set: Sequence[int], units: int,
                 out: np.ndarray) -> None:
    """Fill out (M, |A|^N) with the gap of every row against every price
    sequence, columns in enumerate_strategies order, by a suffix DP.

    V_i[l, m, s] is the gap still to come from slot i on with l units left,
    for row m and the s-th price suffix (slots i..N-1, lexicographic); V_N is
    the row's benchmark. Slot i multiplies the suffix axis by |A|, the price
    index being the most significant digit: a price the budget meets takes a
    unit and its budget (V_{i+1}[l-1] - b), any other keeps V_{i+1}[l]. Only
    l in [max(0, units - i), units] occurs before slot i. Every V lies in
    [0, benchmark] and every take - keep in [-benchmark, benchmark], so the
    DP runs in out's dtype, and slot 0 writes straight into out.
    """
    m, n = rows.shape
    dtype = out.dtype
    gains = rows.astype(dtype)
    # 0/1 per (row, slot, price): zero padding never accepts, as prices are positive
    accepts = (rows[:, :, None] >= np.asarray(price_set)).astype(dtype)
    level = np.broadcast_to(bench.astype(dtype)[None, :, None], (units + 1, m, 1))
    lo_next = 0   # level[j] holds l = lo_next + j
    for i in range(n - 1, -1, -1):
        lo = max(0, units - i)
        first = max(1, lo)   # the smallest l that can take a unit
        suffixes = level.shape[2]
        if i:
            grown = np.empty((units - lo + 1, m, len(price_set), suffixes), dtype=dtype)
        else:   # lo == units: the one level is the output block
            grown = out.reshape(1, m, len(price_set), suffixes)
        if lo == 0:   # no unit left: nothing more is taken
            grown[0] = level[0, :, None, :]
        keep = level[first - lo_next:]
        diff = level[first - 1 - lo_next:units - lo_next] - gains[None, :, i, None]
        diff -= keep
        taking = grown[first - lo:]
        np.multiply(diff[:, :, None, :], accepts[None, :, i, :, None], out=taking)
        taking += keep[:, :, None, :]
        level = grown.reshape(grown.shape[0], m, -1)
        lo_next = lo


@dataclasses.dataclass(frozen=True)
class PayoffGame:
    """The gap game over explicit strategy lists, each entry computed only
    when a solver reads its row or column; the M x K table is never built.

    Row i is the suffix DP run on that one budget row over enumerated
    price columns, else welfare_grid over the listed ones. Column j is the
    benchmark minus welfare_grid against that one price row.
    """

    cfg: GameConfig
    rows: np.ndarray      # (M, N) budget sequences, zero-padded to length N
    cols: np.ndarray      # (K, N) price sequences
    bench: np.ndarray     # (M,) benchmark of each row
    dtype: np.dtype       # narrowest signed integer dtype holding every gap
    enumerated: bool      # cols are every price sequence, in enumerate_strategies order

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape[0], self.cols.shape[0]

    def row(self, i: int) -> np.ndarray:
        out = np.empty((1, self.cols.shape[0]), dtype=self.dtype)
        rows, bench = self.rows[i:i + 1], self.bench[i:i + 1]
        if self.enumerated:
            _suffix_gaps(rows, bench, self.cfg.price_set,
                         min(self.cfg.n_resources, self.cfg.n_users), out)
        else:
            np.subtract(bench[:, None], welfare_grid(rows, self.cols, self.cfg.n_resources),
                        out=out)
        return out[0]

    def col(self, j: int) -> np.ndarray:
        return self.bench - welfare_grid(self.rows, self.cols[j:j + 1], self.cfg.n_resources)[:, 0]


def payoff_game(cfg: GameConfig, row_strategies=None, col_strategies=None) -> PayoffGame:
    """The gap game over the given (or fully enumerated) pure-strategy lists.

    Variable-length row strategies (prefix-style) are zero-padded; a padded
    column is replayed only along the row's real length because zero budgets
    never accept. Column strategies must be full length.
    """
    if row_strategies is None:
        rows = enumerate_strategies(cfg.budget_set, cfg.n_users)
    else:
        rows, _ = strategy_rows(cfg, row_strategies, "budgets", allow_partial=True)
    if col_strategies is None:
        cols = enumerate_strategies(cfg.price_set, cfg.n_users)
    else:
        cols, _ = strategy_rows(cfg, col_strategies, "prices")
    bench = benchmark_rows(rows, cfg.n_resources)
    return PayoffGame(cfg=cfg, rows=rows, cols=cols, bench=bench,
                      dtype=_narrowest_int(0, int(bench.max(initial=0))),
                      enumerated=col_strategies is None)


def undominated_columns(cfg: GameConfig) -> np.ndarray:
    """Indices, in enumerate_strategies order, of the price sequences that two
    exact dominance rules keep. Each dropped sequence maps to a kept one of
    lower index whose gap is no larger against any budget row, zero-padded
    rows included, since a zero budget meets no price.

    - Last slot: it posts price_set[0], as a sale there only adds welfare.
    - Other slots: prices that the same budgets meet collapse to the smallest
      of them, and a price no budget meets becomes the smallest price only
      the largest budget meets, if there is one. That sale takes a unit, so
      the play loses at most its last later sale, worth no more than it.

    The kept sequences are the product of the kept prices per slot.
    """
    meets = [sum(b >= p for b in cfg.budget_set) for p in cfg.price_set]   # non-increasing
    kept = [k for k, count in enumerate(meets) if k == 0 or count != meets[k - 1]]
    if len(kept) > 1 and meets[kept[-1]] == 0 and meets[kept[-2]] == 1:
        kept.pop()
    index = np.zeros(1, dtype=np.int64)
    for digits in [kept] * (cfg.n_users - 1) + [[0]]:
        index = (index[:, None] * cfg.n_prices + digits).ravel()
    return index


class _Reader:
    """Reads a payoff source one row or column at a time and keeps a float64
    copy of each row and column it read, in order of first read.

    The source is a PayoffGame (entries computed on demand) or a raw 2-D
    array, which is converted to float64 and checked for NaN and infinities.
    fresh_row(i) and fresh_col(j) read the source itself; row(i) and col(j)
    go through the caches. rows() is a C-contiguous (n, K) view and cols()
    an (m, M) view, so rows() and cols().T have the layouts of the gathers
    C[support, :] and C[:, support] and feed matmul in the same summation
    order. Each buffer grows by _CACHE_CHUNK entries at a time, copied into
    a new buffer, and PayoffTooLargeError is raised before the old and the
    new buffer plus the other cache would pass DEFAULT_MATRIX_CAP, read
    when the reader is made. Callers keep no view of a replaced buffer, so
    only the growing cache ever has two buffers alive.
    """

    def __init__(self, payoff):
        if isinstance(payoff, PayoffGame):
            self.shape = payoff.shape
            self.fresh_row, self.fresh_col = payoff.row, payoff.col
        else:
            C = np.asarray(payoff, dtype=np.float64)
            if C.ndim != 2 or 0 in C.shape:
                raise ValueError(f"payoff matrix must be 2-D and non-empty, got {C.shape}")
            if not np.isfinite(C).all():
                raise ValueError("payoff matrix entries must be finite")
            self.shape = C.shape
            self.fresh_row, self.fresh_col = C.__getitem__, lambda j: C[:, j]
        M, K = self.shape
        self.max_bytes = DEFAULT_MATRIX_CAP
        self._buffers = [np.empty((0, K)), np.empty((0, M))]
        # (rows, columns): strategy index -> buffer row, in order of first read
        self.slots: tuple[dict[int, int], dict[int, int]] = ({}, {})

    def _read(self, side: int, i: int) -> np.ndarray:
        slots = self.slots[side]
        slot = slots.get(i)
        if slot is None:
            slot = len(slots)
            buffer = self._buffers[side]
            if slot == buffer.shape[0]:
                if 2 * buffer.nbytes + _CACHE_CHUNK * buffer.shape[1] * 8 \
                        + self._buffers[1 - side].nbytes > self.max_bytes:
                    raise PayoffTooLargeError(
                        f"{self.shape[0]}x{self.shape[1]} game: caching more than "
                        f"{len(self.slots[0])} rows and {len(self.slots[1])} columns would "
                        f"pass the {self.max_bytes / 1e6:.1f} MB cap; shrink the instance "
                        "or use `ne --mode acceptance-lp` for long sequences")
                grown = np.empty((slot + _CACHE_CHUNK, buffer.shape[1]))
                grown[:slot] = buffer
                self._buffers[side] = buffer = grown
            buffer[slot] = (self.fresh_col if side else self.fresh_row)(i)
            slots[i] = slot
        return self._buffers[side][slot]

    def row(self, i: int) -> np.ndarray:
        return self._read(0, i)

    def col(self, j: int) -> np.ndarray:
        return self._read(1, j)

    def rows(self) -> np.ndarray:
        return self._buffers[0][:len(self.slots[0])]

    def cols(self) -> np.ndarray:
        return self._buffers[1][:len(self.slots[1])]


def _game_lps(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal (row_mix, col_mix) from one LP, the column player's
    max 1'u s.t. Cs u <= 1 (u = col_mix / value); its duals w solve the row
    player's min 1'w s.t. Cs' w >= 1 (w = row_mix / value)."""
    Cs = C - float(C.min()) + 1.0  # strictly positive entries keep the value positive
    col = solve_lp(-np.ones(C.shape[1]), A_ub=Cs, b_ub=np.ones(C.shape[0]))
    return col.duals / col.duals.sum(), col.x / col.x.sum()


def _certify(payoffs: _Reader, mixed: MixedStrategy, tol: float) -> None:
    """Check both mixes against rows and columns read afresh from the source,
    not the caches the solve used."""
    v = mixed.value
    if abs(mixed.row_value - mixed.col_value) > tol:
        raise ArithmeticError(
            f"player values disagree: {mixed.row_value} vs {mixed.col_value}")
    col_payoff = sum(mixed.col_mix[j] * payoffs.fresh_col(j)
                     for j in np.flatnonzero(mixed.col_mix))
    row_payoff = sum(mixed.row_mix[i] * payoffs.fresh_row(i)
                     for i in np.flatnonzero(mixed.row_mix))
    if col_payoff.max() > v + tol or row_payoff.min() < v - tol:
        raise ArithmeticError("equilibrium certificate violated")


def solve_zero_sum(payoff, *, tol: float = VALUE_TOL) -> MixedStrategy:
    """Exact equilibrium of the matrix game by strategy generation.

    The double oracle of McMahan, Gordon & Blum (ICML 2003): each round
    solves the subgame on the current supports with one LP and adds both
    players' exact best responses, until the best-response bounds meet.
    A round reads only the rows and columns that enter the supports: the
    subgame comes from the cached support rows, the best row from a gemv
    over the cached support columns, the best column from one over the
    cached support rows. No view of a cache outlives the round's products,
    so a growing cache never keeps its old buffer alive.
    """
    payoffs = _Reader(payoff)
    M, K = payoffs.shape
    payoffs.row(0)
    payoffs.col(0)
    for _ in range(M + K + 1):
        row_support, col_support = map(list, payoffs.slots)
        sub_row, sub_col = _game_lps(payoffs.rows()[:, col_support])
        # exact best responses against the subgame optimum
        col_full = np.zeros(K)
        col_full[col_support] = sub_col
        row_payoffs = payoffs.cols().T @ sub_col
        best_row = int(np.argmax(row_payoffs))
        upper = float(row_payoffs[best_row])
        col_payoffs = sub_row @ payoffs.rows()
        best_col = int(np.argmin(col_payoffs))
        lower = float(col_payoffs[best_col])
        if upper - lower <= tol:
            row_full = np.zeros(M)
            row_full[row_support] = sub_row
            mixed = MixedStrategy(row_mix=row_full, col_mix=col_full,
                                  row_value=lower, col_value=upper)
            _certify(payoffs, mixed, max(tol, VALUE_TOL))
            return mixed
        payoffs.row(best_row)
        payoffs.col(best_col)
    raise ArithmeticError("strategy generation failed to close the certificate")


def solve_acceptance_lp(seq: Sequence[int], n_resources: int) -> tuple[float, np.ndarray]:
    """Optimal per-user acceptance probabilities against prefix adversaries.

    Minimizes z subject to, for every prefix j:
    top-min(R, j) sum of seq[:j]  -  sum_{i<=j} seq[i] P_i  <=  z,
    with sum P <= R and 0 <= P <= 1. Appending zero-budget users changes
    nothing (their prefixes add inert constraints).
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 1 or seq.shape[0] == 0:
        raise ValueError("sequence must be a non-empty 1-D list of budgets")
    if not np.isfinite(seq).all():
        raise ValueError("budgets in the sequence must be finite")
    if (seq < 0).any():
        raise ValueError("budgets must be non-negative")
    L = seq.shape[0]
    n_resources = checked_int(n_resources, "n_resources")
    bench = np.empty(L)
    for j in range(L):
        prefix = np.sort(seq[: j + 1])
        bench[j] = prefix[max(0, j + 1 - n_resources):].sum()
    # variables: P_1..P_L, z
    c = np.zeros(L + 1)
    c[-1] = 1.0
    A = np.zeros((L + 1 + L, L + 1))
    b = np.zeros(L + 1 + L)
    for j in range(L):
        A[j, : j + 1] = -seq[: j + 1]
        A[j, -1] = -1.0
        b[j] = -bench[j]
    A[L, :L] = 1.0
    b[L] = float(n_resources)
    A[L + 1:, :L] = np.eye(L)
    b[L + 1:] = 1.0
    res = solve_lp(c, A_ub=A, b_ub=b)
    return res.objective, res.x[:L]


def _steps_to_overtake(lead: np.ndarray, gain: np.ndarray, pivot: int) -> float:
    """Steps until some strategy overtakes the pivot as the first best response.

    Strategy r trails the pivot by lead[r] >= 0 and closes gain[r] per step.
    An r before the pivot wins ties, so it overtakes once k * gain >= lead;
    an r after it only once k * gain > lead. inf when nothing closes in.
    """
    q = np.divide(lead, gain, out=np.full(lead.shape, np.inf), where=gain > 0)
    return min(np.ceil(q[:pivot].min(initial=np.inf)), np.floor(q[pivot:].min()) + 1)


def fictitious_play(payoff, iterations: int = 100_000, *,
                    checkpoint_every: int = 100) -> FictitiousPlayResult:
    """Simultaneous best-response dynamics with a certified value bracket.

    Each step both players best-respond (lowest index on ties) to the
    opponent's empirical average. Any step's averages give valid bounds
    lower <= v* <= upper, so the tightest checkpointed bracket is reported.

    The picks repeat for long runs, so the loop takes one run at a time: it
    computes how many steps pass before another strategy overtakes either
    pick and adds the picked column and row that many times in one update.
    Each picked column and row is read once and cached in float64, so a
    PayoffGame computes only those. Inside a run the bound at step t + k is
    (a + k b) / (t + k), monotone in k, so only the run's first and last
    checkpoint are evaluated; a checkpoint on the run's final step scans the
    full vectors. On integer payoffs (every PayoffGame) the float64 sums
    are exact integers while below 2**53, so picks, bracket and averages are
    bit-identical to taking one step at a time. On non-integer payoffs the
    picks may differ from a per-step loop where rounding breaks a tie; the
    bracket stays valid, to the same rounding as a per-step loop.

    On a PayoffGame whose price side is enumerated the price player plays
    only the undominated_columns (729 of 16,384 sequences on the full
    7-user game, 6,561 of 262,144 on the 9-user game). A dropped column has
    a kept one of lower index that is no larger on every row, so with exact
    sums it is never the first argmin nor the first to overtake the pick:
    picks, bracket and averages are those of the whole game, and col_avg is
    scattered back to the enumeration's indices.
    """
    iterations = checked_int(iterations, "iterations")
    every = checked_int(checkpoint_every, "checkpoint_every")
    kept = None
    if isinstance(payoff, PayoffGame) and payoff.enumerated:
        kept = undominated_columns(payoff.cfg)
        full_k = payoff.shape[1]
        payoff = dataclasses.replace(payoff, cols=payoff.cols[kept], enumerated=False)
    payoffs = _Reader(payoff)
    M, K = payoffs.shape
    row_payoff = np.zeros(M)   # cumulative C @ (col picks)
    col_payoff = np.zeros(K)   # cumulative (row picks) @ C
    row_counts = np.zeros(M)
    col_counts = np.zeros(K)
    best_lower = -np.inf
    best_upper = np.inf
    t = 0
    while t < iterations:
        i = int(row_payoff.argmax())
        j = int(col_payoff.argmin())
        column = payoffs.col(j)
        row = payoffs.row(i)
        # at least one step, even if a float quotient underflows to 0
        run = int(max(1, min(
            iterations - t,
            _steps_to_overtake(row_payoff[i] - row_payoff, column - column[i], i),
            _steps_to_overtake(col_payoff - col_payoff[j], row[j] - row, j))))
        # checkpoints before the run's final step: (i, j) are still the picks
        first = (t // every + 1) * every
        last = (t + run - 1) // every * every
        for step in {first, last} if first <= last else ():
            k = step - t
            best_lower = max(best_lower, float(col_payoff[j] + k * row[j]) / step)
            best_upper = min(best_upper, float(row_payoff[i] + k * column[i]) / step)
        row_payoff += run * column
        col_payoff += run * row
        row_counts[i] += run
        col_counts[j] += run
        t += run
        if t % every == 0 or t == iterations:
            best_lower = max(best_lower, float(col_payoff.min()) / t)
            best_upper = min(best_upper, float(row_payoff.max()) / t)
    if kept is not None:   # back to the enumeration's indices
        col_counts, kept_counts = np.zeros(full_k), col_counts
        col_counts[kept] = kept_counts
    return FictitiousPlayResult(
        lower=best_lower,
        upper=best_upper,
        row_avg=row_counts / iterations,
        col_avg=col_counts / iterations,
        iterations=iterations,
    )
