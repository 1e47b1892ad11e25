"""Worst-case budget completion: given posted prices and a realized prefix,
choose budgets for the remaining slots that maximize the gap.

Two routes with equal gap values:

* optimal_completion -- exact backward DP. The benchmark is a top-R sum, and
  top-R(X) = max over sets T with |T| <= R of sum(T), so "max over
  completions of benchmark - welfare" is a joint choice of the budgets and
  of the benchmark set. G[i][y][s] is the best (benchmark picks - welfare)
  over slots i..N-1 with y units left and s picks left. Per open slot with
  y > 0 only four moves can be optimal: reject at the largest budget below
  the price (picked or not), or accept at the smallest accepting budget
  (picked or not); with y = 0 every slot rejects and a pick is worth the
  largest budget. The table depends only on (cfg, prices), costs
  O(N * min(R, N)^2) to build and is cached per price row, so the many
  queries a training signal makes against one row pay O(N + l log l) each
  for a prefix of length l: play out the prefix, combine its top-t sums
  with G, and walk the stored argmax forward to rebuild the sequence.
* brute_force_completion -- exhaustive enumeration, the verification oracle.
"""
from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
from typing import Sequence

from .game import GameConfig, gap, validate_budgets, validate_prices


class CompletionTooLargeError(ValueError):
    """Enumeration would exceed the configured completion-count cap."""


@dataclasses.dataclass(frozen=True)
class CompletionResult:
    gap: int
    full_sequence: tuple[int, ...]


@functools.lru_cache(maxsize=8)
def _completion_table(cfg: GameConfig, prices: tuple[int, ...]):
    """Backward DP over (slot, units left, picks left) for one price row.

    Returns (values, steps): values[i][y][s] is G (values[N] is all zero)
    and steps[i][y][s] = (posted budget, units used, picks used) is the
    first optimal move in tie-break order: reject and pick, reject, accept
    and pick, accept. A move gains budget * (picks used - units used). With
    no stock left every budget rejects, so the largest one is posted. The
    cache hands the same lists to every caller: read only.
    """
    budgets = cfg.budget_set
    r = min(cfg.n_resources, len(prices))  # more units or picks than slots are idle
    no_stock = ((budgets[-1], 0, 1), (budgets[-1], 0, 0))
    nxt = [[0] * (r + 1) for _ in range(r + 1)]
    values = [nxt]
    steps = []
    for price in reversed(prices):
        k = bisect.bisect_left(budgets, price)
        rejects = ((budgets[k - 1], 0, 1), (budgets[k - 1], 0, 0)) if k else ()
        accepts = ((budgets[k], 1, 1), (budgets[k], 1, 0)) if k < len(budgets) else ()
        cur = []
        how = []
        for y in range(r + 1):
            moves = rejects + accepts if y else no_stock
            row = []
            row_how = []
            for s in range(r + 1):
                best = step = None
                for move in moves:
                    b, units, picks = move
                    if picks <= s:
                        value = b * (picks - units) + nxt[y - units][s - picks]
                        if best is None or value > best:
                            best, step = value, move
                row.append(best)
                row_how.append(step)
            cur.append(row)
            how.append(row_how)
        values.append(cur)
        steps.append(how)
        nxt = cur
    values.reverse()
    steps.reverse()
    return values, steps


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
    values, steps = _completion_table(cfg, prices)

    r = min(cfg.n_resources, n)
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

    tail = []
    for i in range(ell, n):
        b, units, picks = steps[i][y][s]
        tail.append(b)
        y -= units
        s -= picks
    return CompletionResult(gap=best - welfare, full_sequence=prefix + tuple(tail))


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
