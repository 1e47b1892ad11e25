"""
Classical pricing rules and their worst enemies
===============================================

Three textbook baselines play the allocation game: greedy (price at the
floor), a deterministic threshold that climbs as stock depletes, and a
randomized flat threshold drawn from a doubling ladder. Each rule is a
mixture of price schedules by units sold, so one exact dynamic program
finds its worst sequence over all |B|^N of them: worst-case competitive
ratios are computed, not estimated.
"""
import numpy as np

from advalloc import (BaselineParams, GameConfig, default_policies,
                      evaluate_policies, exact_worst_case, threshold_price)

cfg = GameConfig(n_users=12, n_resources=3, price_set=(1, 2, 4, 8, 16),
                 budget_set=(1, 2, 4, 8, 16))
params = BaselineParams.from_config(cfg)

# The deterministic threshold exponentiates utilization: L/e at full
# stock, exactly U when the last unit is on the line.
print("threshold schedule by units sold:")
for sold in range(cfg.n_resources + 1):
    z = sold / cfg.n_resources
    print(f"  {sold} sold -> price {threshold_price(params, z):8.3f}")

# Each rule's worst sequence: the one with the largest ratio of benchmark
# to expected welfare (the largest gap breaks ties), found by a DP over
# (slot, units sold under each schedule, benchmark picks left).
print()
for name, policy in default_policies().items():
    cr, welfare, gap_value, seq = exact_worst_case(cfg, policy.mixture(cfg))
    print(f"worst case for {name:<10} {seq}")
    print(f"  expected welfare {welfare:.2f}, gap {gap_value:.2f}, ratio {cr:.3f}")

# Side-by-side table, worst case first, then average-case play on shared
# uniform random sequences (the ratio column only means something against
# a worst case, so random mode leaves it out).
print(f"\n{'policy':<12} {'mode':<8} {'cr':>8} {'welfare':>9} {'gap':>7}")
for mode in ("worst", "random"):
    for row in evaluate_policies(cfg, default_policies(), mode=mode,
                                 n_sequences=500, seed=4):
        cr = "" if row.cr is None else f"{row.cr:.3f}"
        print(f"{row.policy:<12} {row.mode:<8} {cr:>8} "
              f"{row.mean_welfare:>9.2f} {row.mean_gap:>7.2f}")

# Greedy's worst case is the crudest: burn the stock at the floor price,
# then parade the rich. With N >= 2R its ratio is exactly U/L.
print(f"\ngreedy worst-case ratio equals U/L = "
      f"{cfg.upper_bound / cfg.lower_bound:.1f} whenever the sequence "
      f"has room for {cfg.n_resources} cheap and {cfg.n_resources} rich users")

# Randomization does not help here: a flat threshold drawn from the ladder
# sells nothing to a sequence of floor budgets unless it draws the lowest
# level, so an all-floor sequence holds its expected welfare to 1/levels of
# the benchmark. The deterministic threshold's exact worst ratio is lower.
worst = {r.policy: r.cr for r in
         evaluate_policies(cfg, default_policies(), mode="worst", seed=4)}
print(f"deterministic threshold cr {worst['threshold']:.2f} vs "
      f"randomized cr {worst['randomized']:.2f} "
      f"({int(np.log2(cfg.upper_bound / cfg.lower_bound)) + 1} ladder levels)")
