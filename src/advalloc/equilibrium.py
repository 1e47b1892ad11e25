"""Nash-equilibrium machinery for the sequence game.

The zero-sum game has budget sequences as row (maximizer) strategies and
price sequences as column (minimizer) strategies; entries are gaps. The
payoff matrix over all |A|^N price sequences is filled by a suffix DP that
plays each price suffix once for every sequence ending in it; explicit
column lists go through welfare_grid. Games of every size are solved
exactly by strategy generation (double oracle): each subgame is one simplex
LP whose duals give the row player's mix, best responses are exact payoff
scans, and the loop ends only when the upper and lower certificates meet. Fictitious play provides an any-size approximate
value bracket. A separate prefix-family LP computes the optimal per-user
acceptance probabilities against a fixed budget sequence.
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
_BLOCK_CELLS = 1 << 18   # payoff cells built per row block


class PayoffTooLargeError(ValueError):
    """Matrix would exceed the memory cap.

    The cap counts the integer output's real bytes, which with one row block
    is the build's peak. Every solver here (LP, strategy generation,
    fictitious play) reads the full matrix, so the routes out are a smaller
    instance, a larger ``max_bytes``, or ``ne --mode acceptance-lp`` for long
    sequences.
    """


@dataclasses.dataclass(frozen=True)
class PayoffMatrix:
    """Gap table over explicit strategy lists (rows maximize, columns minimize)."""

    rows: np.ndarray      # (M, N) budget sequences, zero-padded to length N
    cols: np.ndarray      # (K, N) price sequences, zero-padded
    values: np.ndarray    # (M, K) gaps, narrowest signed integer dtype holding them

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


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


def build_payoff_matrix(cfg: GameConfig, row_strategies=None, col_strategies=None, *,
                        max_bytes: int = DEFAULT_MATRIX_CAP) -> PayoffMatrix:
    """Gap matrix over the given (or fully enumerated) pure-strategy lists.

    Variable-length row strategies (prefix-style) are zero-padded; a padded
    column is replayed only along the row's real length because zero budgets
    never accept. Column strategies must be full length.

    Gaps lie in [0, max benchmark], so values are stored in the narrowest
    signed integer dtype holding that range (int8 on the 7-user games) and
    filled one block of rows at a time. Enumerated columns share their
    suffixes, so each block is filled by a suffix DP over the price set
    (_suffix_gaps) in that dtype; explicit column lists go through
    welfare_grid. Peak memory is the integer output plus the working set of
    one block of about 256K cells, and ``max_bytes``, which caps the
    output's real size, bounds the footprint.
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
    dtype = _narrowest_int(0, int(bench.max(initial=0)))
    needed = rows.shape[0] * cols.shape[0] * dtype.itemsize
    if needed > max_bytes:
        raise PayoffTooLargeError(
            f"{rows.shape[0]}x{cols.shape[0]} needs {needed / 1e6:.1f} MB > cap; "
            "shrink the instance or raise max_bytes, or use "
            "`ne --mode acceptance-lp` for long sequences")
    values = np.empty((rows.shape[0], cols.shape[0]), dtype=dtype)
    step = max(1, _BLOCK_CELLS // max(1, cols.shape[0]))
    units = min(cfg.n_resources, cfg.n_users)
    for start in range(0, rows.shape[0], step):
        block = slice(start, start + step)
        if col_strategies is None:
            _suffix_gaps(rows[block], bench[block], cfg.price_set, units, values[block])
        else:
            np.subtract(bench[block, None], welfare_grid(rows[block], cols, cfg.n_resources),
                        out=values[block])
    return PayoffMatrix(rows=rows, cols=cols, values=values)


def _payoff_array(payoff) -> np.ndarray:
    """The 2-D values of a PayoffMatrix (its integer array) or of a raw array.

    Only raw arrays are converted to float64 and checked for NaN and
    infinities: a PayoffMatrix holds integer gaps by construction, and its
    consumers upcast only the slices they read, so no full float64 copy is
    made.
    """
    raw = not isinstance(payoff, PayoffMatrix)
    C = np.asarray(payoff, dtype=np.float64) if raw else payoff.values
    if C.ndim != 2 or 0 in C.shape:
        raise ValueError(f"payoff matrix must be 2-D and non-empty, got {C.shape}")
    if raw and not np.isfinite(C).all():
        raise ValueError("payoff matrix entries must be finite")
    return C


def _game_lps(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal (row_mix, col_mix) from one LP, the column player's
    max 1'u s.t. Cs u <= 1 (u = col_mix / value); its duals w solve the row
    player's min 1'w s.t. Cs' w >= 1 (w = row_mix / value)."""
    Cs = C - float(C.min()) + 1.0  # strictly positive entries keep the value positive
    col = solve_lp(-np.ones(C.shape[1]), A_ub=Cs, b_ub=np.ones(C.shape[0]))
    return col.duals / col.duals.sum(), col.x / col.x.sum()


def _certify(C: np.ndarray, mixed: MixedStrategy, tol: float) -> None:
    v = mixed.value
    if abs(mixed.row_value - mixed.col_value) > tol:
        raise ArithmeticError(
            f"player values disagree: {mixed.row_value} vs {mixed.col_value}")
    # only each mix's support is upcast: C @ col_mix would copy all of C
    cs = np.flatnonzero(mixed.col_mix)
    rs = np.flatnonzero(mixed.row_mix)
    col_payoff = C[:, cs] @ mixed.col_mix[cs]
    row_payoff = mixed.row_mix[rs] @ C[rs, :]
    if col_payoff.max() > v + tol or row_payoff.min() < v - tol:
        raise ArithmeticError("equilibrium certificate violated")


def solve_zero_sum(payoff, *, tol: float = VALUE_TOL) -> MixedStrategy:
    """Exact equilibrium of the matrix game by strategy generation.

    The double oracle of McMahan, Gordon & Blum (ICML 2003): each round
    solves the subgame on the current supports with one LP and adds both
    players' exact best responses, until the best-response bounds meet.
    """
    C = _payoff_array(payoff)
    M, K = C.shape
    row_support = [0]
    col_support = [0]
    # float64 copies of the support columns in order of entry, one buffer row
    # each, converted once: a column of the row-major matrix is a strided
    # gather. columns[:k].T is the same column-major (M, k) layout as the
    # gather C[:, col_support] returns, so it feeds the same gemv. Support
    # rows are contiguous slices, cheap to upcast each round; a row cache
    # would hold |support| x K float64 for the whole solve (1.8 MB for the
    # full 7-user game's 14 support rows).
    columns = np.empty((8, M))
    columns[0] = C[:, 0]
    for _ in range(M + K + 1):
        sub_row, sub_col = _game_lps(C[np.ix_(row_support, col_support)])
        # exact best responses against the subgame optimum
        col_full = np.zeros(K)
        col_full[col_support] = sub_col
        row_payoffs = columns[:len(col_support)].T @ sub_col
        best_row = int(np.argmax(row_payoffs))
        upper = float(row_payoffs[best_row])
        # upcast before the product: matmul's own cast sums in another order
        col_payoffs = sub_row @ C[row_support, :].astype(np.float64, copy=False)
        best_col = int(np.argmin(col_payoffs))
        lower = float(col_payoffs[best_col])
        if upper - lower <= tol:
            row_full = np.zeros(M)
            row_full[row_support] = sub_row
            mixed = MixedStrategy(row_mix=row_full, col_mix=col_full,
                                  row_value=lower, col_value=upper)
            _certify(C, mixed, max(tol, VALUE_TOL))
            return mixed
        if best_row not in row_support:
            row_support.append(best_row)
        if best_col not in col_support:
            k = len(col_support)
            if k == columns.shape[0]:
                columns = np.concatenate([columns, np.empty_like(columns)])
            columns[k] = C[:, best_col]
            col_support.append(best_col)
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
    Each picked column and row is converted to float64 once and cached, so
    an integer PayoffMatrix is never copied whole. Inside a run the bound at
    step t + k is (a + k b) / (t + k), monotone in k, so only the run's first
    and last checkpoint are evaluated; a checkpoint on the run's final step
    scans the full vectors. On integer
    payoffs (every PayoffMatrix) the float64 sums are exact integers while
    below 2**53, so picks, bracket and averages are bit-identical to taking
    one step at a time. On non-integer payoffs the picks may differ from a
    per-step loop where rounding breaks a tie; the bracket stays valid, to
    the same rounding as a per-step loop.
    """
    C = _payoff_array(payoff)
    iterations = checked_int(iterations, "iterations")
    every = checked_int(checkpoint_every, "checkpoint_every")
    M, K = C.shape
    row_payoff = np.zeros(M)   # cumulative C @ (col picks)
    col_payoff = np.zeros(K)   # cumulative (row picks) @ C
    row_counts = np.zeros(M)
    col_counts = np.zeros(K)
    # contiguous float64 copies of the picked columns and rows
    columns: dict[int, np.ndarray] = {}
    rows: dict[int, np.ndarray] = {}
    best_lower = -np.inf
    best_upper = np.inf
    t = 0
    while t < iterations:
        i = int(row_payoff.argmax())
        j = int(col_payoff.argmin())
        column = columns.get(j)
        if column is None:
            column = columns[j] = C[:, j].astype(np.float64)
        row = rows.get(i)
        if row is None:
            row = rows[i] = C[i, :].astype(np.float64)
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
    return FictitiousPlayResult(
        lower=best_lower,
        upper=best_upper,
        row_avg=row_counts / iterations,
        col_avg=col_counts / iterations,
        iterations=iterations,
    )
