"""
Equilibrium values, three ways
==============================

The pricing game is zero sum in the gap, so it has a value. This script
computes values with each solver in the package: the per-user acceptance
LP for a fixed arrival sequence, the exact matrix-game LP over explicit
strategy lists, and fictitious play, which certifies a bracket without
ever trusting a single run.
"""
import time
from fractions import Fraction

import numpy as np

from advalloc import (GameConfig, fictitious_play, payoff_game,
                      solve_acceptance_lp, solve_zero_sum, undominated_columns)

# A staircase of budgets: 1 through 5, five users at each level, five
# units to sell. The LP chooses per-user acceptance probabilities that
# equalize the damage of every truncation attack.
staircase = [b for b in range(1, 6) for _ in range(5)]
value, probs = solve_acceptance_lp(staircase, n_resources=5)
print("staircase sequence:", staircase)
print(f"acceptance LP value: {value:.6f}  (= {Fraction(47, 6)} as a fraction)")
print("acceptance probabilities by budget level:")
for level in range(1, 6):
    block = probs[(level - 1) * 5: level * 5]
    print(f"  budget {level}: {np.round(block, 4)}")

# Restricting the price player to three hand-picked schedules makes the
# game small enough to read: 3^7 budget sequences against 3 columns.
cfg = GameConfig(n_users=7, n_resources=3, price_set=(1, 2, 3),
                 budget_set=(1, 2, 3))
menu = ((1, 1, 2, 2, 3, 3, 3),
        (1, 1, 1, 2, 2, 2, 3),
        (1, 2, 2, 2, 3, 3, 3))
payoff = payoff_game(cfg, col_strategies=menu)
mixed = solve_zero_sum(payoff)
print(f"\nrestricted game ({payoff.shape[0]}x{payoff.shape[1]}):",
      f"value {mixed.value:.6f} (= {Fraction(13, 3)} as a fraction)")
print("price mix over the menu:", np.round(mixed.col_mix, 4))

# The full game enumerates both sides, 2187 x 16384 entries, but the
# solvers never build that matrix: they compute a row or a column of gaps
# only when they first read it. The LP prunes the game by strategy
# generation, so the exact value arrives in well under a second.
cfg = GameConfig(n_users=7, n_resources=3, price_set=(1, 3, 5, 7),
                 budget_set=(2, 4, 6))
payoff = payoff_game(cfg)
t0 = time.perf_counter()
mixed = solve_zero_sum(payoff)
print(f"\nfull game {payoff.shape[0]}x{payoff.shape[1]}: "
      f"exact value {mixed.value:.9f} (LP {time.perf_counter() - t0:.2f}s)")
print("support sizes:", int((mixed.row_mix > 1e-9).sum()), "budget sequences,",
      int((mixed.col_mix > 1e-9).sum()), "price schedules")

# Fictitious play never solves an LP; its empirical averages yield a
# certified bracket that must contain the exact value. Both players keep
# the same best response for dozens of steps at a time, so each such run
# is taken in one update rather than step by step. The price player
# plays only the schedules two exact dominance rules keep; each dropped
# schedule has a kept one of lower index that does at least as well
# against every budget sequence. The last slot posts the lowest price,
# and the price 7, which no budget meets, gives way to 5, which only the
# largest budget meets.
t0 = time.perf_counter()
fp = fictitious_play(payoff, iterations=20_000)
print(f"fictitious play bracket: [{fp.lower:.6f}, {fp.upper:.6f}] "
      f"width {fp.width:.4f} ({time.perf_counter() - t0:.2f}s, "
      f"{len(undominated_columns(cfg))} of {payoff.shape[1]} price schedules played)")
assert fp.lower - 1e-9 <= mixed.value <= fp.upper + 1e-9

# The acceptance LP scales where matrices cannot: forty users, ten units.
long_seq = [b for b in range(1, 21) for _ in range(2)]
value, _ = solve_acceptance_lp(long_seq, n_resources=10)
print(f"\nlength-40 staircase, 10 units: value {value:.6f}")
print("(a 20^40-row matrix could never be built; the LP has 41 variables)")
