"""Worst-case budget completion: given posted prices and a realized prefix,
choose budgets for the remaining slots that maximize the gap.

One exact DP, _completion_values. The benchmark is a top-R sum, and top-R(X)
= max over sets T with |T| <= R of sum(T), so "max over completions of
benchmark - welfare" is a joint choice of the budgets and of the benchmark
set. G[i][y][s] is the best (benchmark picks - welfare) over slots i..N-1
with y units left and s picks left. Per open slot with y > 0 only four moves
can be optimal: reject at the largest budget below the price (picked or
not), or accept at the smallest accepting budget (picked or not); with
y = 0 every slot rejects and a pick is worth the largest budget. Those
budgets come per price row (_move_tables), so one numpy pass builds G for a
batch of rows, budget sets free, in O(N * min(R, N)^2) per row.

Readers of that table, with equal gap values:

* optimal_completion -- one prefix of one price row: play out the prefix,
  combine its top-t sums with G (_split_picks, shared with optimal_gaps,
  which scores a group of cases of one N and R), and walk G forward to
  rebuild the gap-maximizing sequence.
* candidate_gaps -- the adversary's training signal: the gap of every
  (row, slot, candidate budget) for a batch of sampled rows, i.e. the
  optimal completion of each sampled prefix followed by each candidate.
  One play-out records each prefix's units left, welfare and top-t sums,
  and one combine step scores every candidate. Values only, no sequences.

brute_force_completions enumerates every completion of a group of cases and
shares no code with the table: it is the verification oracle for every
reader (brute_force_completion is its one-case call). It scores the
completions in fixed-size blocks of rows with the game's own kernels
(benchmark_rows minus welfare_paired), so its memory stays flat however many
completions it enumerates.
"""
from __future__ import annotations

import bisect
import dataclasses
from typing import Sequence

import numpy as np

from .game import (GameConfig, benchmark_rows, play_out, validate_budgets, validate_prices,
                   welfare_paired)

# below every reachable value of G; sums with it stay far from int64 overflow
_NEVER = np.iinfo(np.int64).min // 4
_INT64_MAX = np.iinfo(np.int64).max
_BRUTE_BLOCK = 1 << 12   # completions brute_force_completions scores per block
Case = tuple[GameConfig, tuple[int, ...], tuple[int, ...]]   # (cfg, prices, realized prefix)


def _checked_picks(cfg: GameConfig, n: int) -> int:
    """min(R, n), the units and picks the table tracks for n slots (more are
    idle); raises ValueError for a game the int64 table cannot hold exactly.
    Every table value lies within +-min(R, n) x max budget, and a
    pick taken from the _NEVER of "no pick left" adds one more budget, so
    (min(R, n) + 1) x max budget, and every price, must stay within
    -_NEVER = 2**61 for _NEVER to lose every comparison."""
    r = min(cfg.n_resources, n)
    span = (r + 1) * cfg.budget_set[-1]
    if max(span, cfg.price_set[-1]) > -_NEVER:
        raise ValueError(f"completion values must stay within 2**61: (min(R, N) + 1) x max "
                         f"budget = {span}, max price = {cfg.price_set[-1]}")
    return r


class CompletionTooLargeError(ValueError):
    """Enumeration would exceed the configured completion-count cap."""


@dataclasses.dataclass(frozen=True)
class CompletionResult:
    gap: int
    full_sequence: tuple[int, ...]


def optimal_completion(cfg: GameConfig, prices: Sequence[int],
                       realized_prefix: Sequence[int]) -> CompletionResult:
    """Gap-maximizing completion of a realized budget prefix.

    `prices` fixes the posted price of every slot (realized and open alike);
    the construction never re-runs the pricing policy.

    Tie-break, which fixes `full_sequence` among equal-gap completions:
    benchmark picks are spent as early as possible. The realized prefix
    keeps the most picks that reach the optimum; then each open slot, in
    order, takes the first move that stays optimal from its (units left,
    picks left) state, in the order reject and pick, reject, accept and
    pick, accept. A rejecting slot posts the largest budget below its
    price, an accepting slot the smallest budget at or above it, and once
    the stock is gone every open slot posts the largest budget. Spending
    picks early makes an open slot reject in almost every tie where some
    optimal completion of the budgets before it rejects.
    """
    prices = validate_prices(cfg, prices, allow_partial=True)
    prefix = validate_budgets(cfg, realized_prefix, allow_partial=True)
    n = len(prices)
    ell = len(prefix)
    if ell > n:
        raise ValueError(f"prefix length {ell} exceeds sequence length {n}")
    r = _checked_picks(cfg, n)
    budgets = cfg.budget_set
    values = _completion_values(*_move_tables([budgets], np.array([prices])), r)[0].tolist()
    gap, y, s = _split_picks(prefix, prices, r, values[ell])

    # each open slot takes the first move (posted budget, units used, picks
    # used) that keeps G's value; a move gains budget * (picks - units)
    no_stock = ((budgets[-1], 0, 1), (budgets[-1], 0, 0))
    tail = []
    for i in range(ell, n):
        moves = no_stock
        if y:
            k = bisect.bisect_left(budgets, prices[i])
            rejects = ((budgets[k - 1], 0, 1), (budgets[k - 1], 0, 0)) if k else ()
            accepts = ((budgets[k], 1, 1), (budgets[k], 1, 0)) if k < len(budgets) else ()
            moves = rejects + accepts
        nxt = values[i + 1]
        for b, units, picks in moves:
            if picks <= s and b * (picks - units) + nxt[y - units][s - picks] == values[i][y][s]:
                break
        tail.append(b)
        y -= units
        s -= picks
    return CompletionResult(gap=gap, full_sequence=prefix + tuple(tail))


def _split_picks(prefix: tuple[int, ...], prices, r: int, table: list) -> tuple[int, int, int]:
    """Play out a realized prefix and split the r benchmark picks between its
    top t budgets and the open slots, given G at the first open slot as
    nested lists [units left][picks left]: (gap, units left, picks left to
    the open slots). Ties keep the most picks in the prefix."""
    y, welfare = r, 0
    for b, p in zip(prefix, prices):
        if y and b >= p:
            y, welfare = y - 1, welfare + b
    row = table[y]
    best, s, head = row[r], r, 0
    for t, b in enumerate(sorted(prefix, reverse=True)[:r], 1):
        head += b
        if head + row[r - t] >= best:
            best, s = head + row[r - t], r - t
    return best - welfare, y, s


def optimal_gaps(cases: Sequence[Case]) -> list[int]:
    """optimal_completion(cfg, prices, prefix).gap of every validated case of
    one sequence length and R, budget sets free, from one table pass."""
    shapes = {(len(prices), _checked_picks(cfg, len(prices))) for cfg, prices, _ in cases}
    if len(shapes) != 1:
        raise ValueError("optimal_gaps needs cases of one sequence length and min(R, N)")
    (_, r), = shapes
    prices = np.array([prices for _, prices, _ in cases], dtype=np.int64)
    values = _completion_values(*_move_tables([cfg.budget_set for cfg, _, _ in cases], prices), r)
    tables = values[np.arange(len(cases)), [len(prefix) for _, _, prefix in cases]].tolist()
    return [_split_picks(prefix, row, r, table)[0]
            for (_, row, prefix), table in zip(cases, tables)]


def _set_rows(cfg: GameConfig, rows, value_set: tuple[int, ...], what: str) -> np.ndarray:
    """(M, n_users) integer rows with every entry in value_set, as int64."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != cfg.n_users or rows.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integer rows of shape (M, {cfg.n_users}), "
                         f"got {rows.dtype} {rows.shape}")
    outside = ~np.isin(rows, value_set)
    if outside.any():
        raise ValueError(f"{what} entry {int(rows[outside][0])} not in {value_set}")
    return rows.astype(np.int64, copy=False)


def _move_tables(budget_sets: Sequence[tuple[int, ...]], prices: np.ndarray):
    """_completion_values' moves for (M, n) price rows, row m against the
    ascending budget set budget_sets[m] (one set serves every row): the
    largest budget below each price and the smallest at or above it, (M, n)
    each with 0 where there is none, and each row's largest budget."""
    width = max(map(len, budget_sets)) + 1
    padded = np.array([(0,) + b + (0,) * (width - len(b)) for b in budget_sets], dtype=np.int64)
    sizes = np.array([len(b) for b in budget_sets])
    rows = np.arange(len(padded))[:, None]
    k = sizes[:, None] - (padded[:, None, :] >= prices[:, :, None]).sum(axis=2)   # budgets below
    return padded[rows, k], padded[rows, k + 1], padded[rows[:, 0], sizes]


def _completion_values(below: np.ndarray, at: np.ndarray, top: np.ndarray, r: int) -> np.ndarray:
    """G for every row of _move_tables: (M, N+1, r+1, r+1) int64, G[m, i, y, s]
    over (slot, units left, picks left), with G[m, N] all zero."""
    m, n = below.shape
    values = np.zeros((m, n + 1, r + 1, r + 1), dtype=np.int64)
    picked = np.full((m, r + 1, r + 1), _NEVER, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        nxt = values[:, i + 1]
        picked[:, :, 1:] = nxt[:, :, :-1]   # the value after spending one pick
        cur = values[:, i]
        # no stock: every budget rejects, so a pick takes the largest one
        np.maximum(picked[:, 0] + top[:, None], nxt[:, 0], out=cur[:, 0])
        below_i, at_i = below[:, i, None, None], at[:, i, None, None]
        reject = np.maximum(picked[:, 1:] + below_i, nxt[:, 1:])
        accept = np.maximum(picked[:, :-1], nxt[:, :-1] - at_i)
        np.maximum(np.where(below_i > 0, reject, _NEVER),
                   np.where(at_i > 0, accept, _NEVER), out=cur[:, 1:])
    return values


def candidate_gaps(cfg: GameConfig, price_rows, budget_rows) -> np.ndarray:
    """Best-completion gap of every (row, slot, candidate budget): (M, N, |B|) int64.

    Entry [m, i, k] is optimal_completion(cfg, price_rows[m],
    budget_rows[m, :i] + (budget_set[k],)).gap, for (M, n_users) rows of the
    price and budget sets. With y units left and top-t sums T_t before slot
    i, candidate c leaves y' units and scores max over t of
    max(T_t, T_{t-1} + c) plus G[i+1][y'][r-t], minus the welfare so far.
    Picks beyond the prefix length repeat its full sum against fewer picks
    left, which G, non-decreasing in picks left, never prefers, so t needs
    no cap.
    """
    r = _checked_picks(cfg, cfg.n_users)
    prices = _set_rows(cfg, price_rows, cfg.price_set, "prices")
    budgets = _set_rows(cfg, budget_rows, cfg.budget_set, "budgets")
    if prices.shape != budgets.shape:
        raise ValueError(f"{prices.shape[0]} price rows vs {budgets.shape[0]} budget rows")
    m, n = budgets.shape
    cands = np.asarray(cfg.budget_set, dtype=np.int64)
    values = _completion_values(*_move_tables([cfg.budget_set], prices), r)

    # units left, welfare and top-t sums (t = 0..r) of the prefix before slot i
    _, accepted = play_out(budgets, r, lambda i, left: prices[:, i])
    gained = budgets * accepted
    left = r - (np.cumsum(accepted, axis=1) - accepted)
    welfare = np.cumsum(gained, axis=1) - gained
    tops = np.zeros((m, n, r + 1), dtype=np.int64)
    largest = np.zeros((m, r), dtype=np.int64)   # descending, zero-padded
    for i in range(n):
        np.cumsum(largest, axis=1, out=tops[:, i, 1:])
        largest = np.sort(np.column_stack([largest, budgets[:, i]]), axis=1)[:, :0:-1]

    # candidate c at slot i
    take = (left[:, :, None] > 0) & (cands >= prices[:, :, None])   # (M, N, |B|)
    with_c = np.zeros((m, n, cands.size, r + 1), dtype=np.int64)
    np.maximum(tops[:, :, None, 1:], tops[:, :, None, :-1] + cands[:, None],
               out=with_c[..., 1:])
    rest = np.take_along_axis(values[:, 1:, :, ::-1], (left[:, :, None] - take)[..., None],
                              axis=2)   # rest[..., t] = G[i+1][y'][r-t]
    return np.add(with_c, rest, out=with_c).max(axis=3) - (welfare[:, :, None] + cands * take)


def brute_force_completion(cfg: GameConfig, prices: Sequence[int],
                           realized_prefix: Sequence[int],
                           cap: int = 10_000_000) -> CompletionResult:
    """Exact maximizer by enumerating every completion: brute_force_completions
    of the one case. Ties go to the lexicographically smallest completion."""
    prices = validate_prices(cfg, prices, allow_partial=True)
    prefix = validate_budgets(cfg, realized_prefix, allow_partial=True)
    if len(prefix) > len(prices):
        raise ValueError(f"prefix length {len(prefix)} exceeds sequence length {len(prices)}")
    return brute_force_completions([(cfg, prices, prefix)], cap)[0]


def brute_force_completions(cases: Sequence[Case], cap: int = 10_000_000) \
        -> list[CompletionResult]:
    """Best completion of every validated case of one sequence length and R,
    budget sets free, by enumeration.

    Each case's completions follow the case before, in lexicographic order
    over its ascending budget set. Blocks of _BRUTE_BLOCK of these rows are
    scored as benchmark_rows minus welfare_paired, each row against its own
    case's prices, so memory stays flat up to cap completions a case. Each
    case keeps its first maximum, within a block and across blocks.
    """
    n, n_resources = len(cases[0][1]), cases[0][0].n_resources
    counts = []
    for cfg, prices, prefix in cases:
        if len(prices) != n or cfg.n_resources != n_resources:
            raise ValueError("brute_force_completions needs cases of one sequence length and R")
        counts.append(len(cfg.budget_set) ** (n - len(prefix)))
        if counts[-1] > cap:
            raise CompletionTooLargeError(f"{counts[-1]} completions exceed cap {cap}; "
                                          f"shrink the instance or raise cap")
        span = min(n_resources, n) * cfg.budget_set[-1]
        if max(span, cfg.budget_set[-1], cfg.price_set[-1]) > _INT64_MAX:
            raise ValueError(f"brute force scores in int64: min(R, N) x max budget = {span}, "
                             f"max price = {cfg.price_set[-1]}")

    # slot i of case c posts one of choices[c, i]: its prefix budget or any of
    # the budget set, 0-padded; the block loop reads the tables slot-major
    width = max(len(cfg.budget_set) for cfg, _, _ in cases)
    choices = np.array([[c + (0,) * (width - len(c))
                         for c in [(b,) for b in prefix] + [cfg.budget_set] * (n - len(prefix))]
                        for cfg, _, prefix in cases], dtype=np.int64).reshape(len(cases), n, width)
    radix = (choices > 0).sum(axis=2).T   # budgets are positive
    best_rows = choices[:, :, 0].copy()
    choices = choices.transpose(1, 0, 2).reshape(n, len(cases) * width)
    price_cols = np.array([p for _, p, _ in cases], dtype=np.int64).reshape(len(cases), n).T
    ends = np.cumsum(counts)
    starts = ends - counts
    best = np.full(len(cases), np.iinfo(np.int64).min)
    for start in range(0, int(ends[-1]), _BRUTE_BLOCK):
        index = np.arange(start, min(int(ends[-1]), start + _BRUTE_BLOCK))
        case = np.searchsorted(ends, index, side="right")
        rest = index - starts[case]   # the row's index among its case's completions
        offset = case * width
        rows = np.empty((n, index.size), dtype=np.int64)
        for i in range(n - 1, -1, -1):   # the last slot varies fastest
            rest, digit = np.divmod(rest, radix[i][case])
            np.take(choices[i], digit + offset, out=rows[i])
        rows = rows.T
        gaps = benchmark_rows(rows, n_resources) - \
            welfare_paired(rows, price_cols[:, case].T, n_resources)
        # every case from case[0] to case[-1] has a run of rows in the block
        ids = np.arange(case[0], case[-1] + 1)
        runs = np.maximum(starts[ids] - start, 0)
        top = np.maximum.reduceat(gaps, runs)
        first = np.minimum.reduceat(np.where(gaps == top[case - case[0]], np.arange(index.size),
                                             index.size), runs)
        better = top > best[ids]   # a later block must beat the case's first maximum
        best[ids[better]] = top[better]
        best_rows[ids[better]] = rows[first[better]]
    return [CompletionResult(gap=g, full_sequence=tuple(row))
            for g, row in zip(best.tolist(), best_rows.tolist())]
