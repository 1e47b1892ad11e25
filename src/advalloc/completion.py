"""Worst-case budget completion: given posted prices and a realized prefix,
choose budgets for the remaining slots that maximize the gap.

One exact DP, _completion_values. The benchmark is a top-R sum, and top-R(X)
= max over sets T with |T| <= R of sum(T), so "max over completions of
benchmark - welfare" is a joint choice of the budgets and of the benchmark
set. G[i][y][s] is the best (benchmark picks - welfare) over slots i..N-1
with y units left and s picks left. Per open slot with y > 0 only four moves
can be optimal: reject at the largest budget below the price (picked or
not), or accept at the smallest accepting budget (picked or not); with
y = 0 every slot rejects and a pick is worth the largest budget. One numpy
pass builds G for a batch of price rows in O(N * min(R, N)^2) per row.

Two readers of that table, with equal gap values:

* optimal_completion -- one prefix of one price row: play out the prefix,
  combine its top-t sums with G, and walk G forward to rebuild the
  gap-maximizing sequence.
* candidate_gaps -- the adversary's training signal: the gap of every
  (row, slot, candidate budget) for a batch of sampled rows, i.e. the
  optimal completion of each sampled prefix followed by each candidate.
  One play-out records each prefix's units left, welfare and top-t sums,
  and one combine step scores every candidate. Values only, no sequences.

brute_force_completion enumerates every completion and shares no code with
the table: it is the verification oracle for both readers.
"""
from __future__ import annotations

import bisect
import dataclasses
import itertools
from typing import Sequence

import numpy as np

from .game import GameConfig, gap, play_out, validate_budgets, validate_prices

# below every reachable value of G; sums with it stay far from int64 overflow
_NEVER = np.iinfo(np.int64).min // 4


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
    values = _completion_values(np.asarray(budgets, dtype=np.int64),
                                np.asarray([prices], dtype=np.int64), r)[0].tolist()

    y = r
    welfare = 0
    for b, p in zip(prefix, prices):
        if y and b >= p:
            welfare += b
            y -= 1
    # split the R benchmark picks: the top t budgets of the prefix, the rest
    # left to the open slots
    ranked = sorted(prefix, reverse=True)
    row = values[ell][y]
    best = row[r]
    s = r
    head = 0
    for t in range(1, min(r, ell) + 1):
        head += ranked[t - 1]
        if head + row[r - t] >= best:
            best = head + row[r - t]
            s = r - t

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
    return CompletionResult(gap=best - welfare, full_sequence=prefix + tuple(tail))


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


def _completion_values(budget_set: np.ndarray, prices: np.ndarray, r: int) -> np.ndarray:
    """G for every price row: (M, N+1, r+1, r+1) int64, G[m, i, y, s] over
    (slot, units left, picks left), with G[m, N] all zero."""
    m, n = prices.shape
    k = np.searchsorted(budget_set, prices)   # index of the smallest accepting budget
    can_reject = (k > 0)[:, :, None, None]
    can_accept = (k < budget_set.size)[:, :, None, None]
    below = budget_set[np.maximum(k - 1, 0)][:, :, None, None]
    at = budget_set[np.minimum(k, budget_set.size - 1)][:, :, None, None]
    values = np.zeros((m, n + 1, r + 1, r + 1), dtype=np.int64)
    picked = np.full((m, r + 1, r + 1), _NEVER, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        nxt = values[:, i + 1]
        picked[:, :, 1:] = nxt[:, :, :-1]   # the value after spending one pick
        cur = values[:, i]
        # no stock: every budget rejects, so a pick takes the largest one
        np.maximum(picked[:, 0] + budget_set[-1], nxt[:, 0], out=cur[:, 0])
        reject = np.maximum(picked[:, 1:] + below[:, i], nxt[:, 1:])
        accept = np.maximum(picked[:, :-1], nxt[:, :-1] - at[:, i])
        np.maximum(np.where(can_reject[:, i], reject, _NEVER),
                   np.where(can_accept[:, i], accept, _NEVER), out=cur[:, 1:])
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
    values = _completion_values(cands, prices, r)

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
    """Exact maximizer by enumerating every completion.

    Ties go to the lexicographically smallest completion (enumeration order
    over the ascending budget set guarantees it).
    """
    prices = validate_prices(cfg, prices, allow_partial=True)
    prefix = validate_budgets(cfg, realized_prefix, allow_partial=True)
    n = len(prices)
    ell = len(prefix)
    if ell > n:
        raise ValueError(f"prefix length {ell} exceeds sequence length {n}")
    open_slots = n - ell
    count = len(cfg.budget_set) ** open_slots
    if count > cap:
        raise CompletionTooLargeError(
            f"{count} completions exceed cap {cap}; shrink the instance or raise cap")

    best = None
    best_seq = None
    for tail in itertools.product(cfg.budget_set, repeat=open_slots):
        seq = prefix + tail
        g = gap(cfg, seq, prices)
        if best is None or g > best:
            best = g
            best_seq = seq
    return CompletionResult(gap=best, full_sequence=best_seq)
