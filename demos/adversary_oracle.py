"""
Finishing the adversary's job in closed form
============================================

Mid-game the adversary has already revealed a budget prefix and can see
the full posted-price schedule. What is the worst it can still do with
the remaining slots? Enumerating every completion answers it exactly but
costs |budget set|^(open slots). The oracle answers it exactly too, by a
small dynamic program over (slot, units left, benchmark picks left): the
benchmark is the best set of at most R budgets, so the adversary chooses
budgets and benchmark picks together, and each open slot only ever needs
four moves (reject at the largest budget below its price or accept at the
smallest one at or above it, each with or without a pick). The table costs
O(N * R^2) per price schedule, and one walk forward through it rebuilds
the worst completion.
"""
import itertools
import time

from advalloc import (GameConfig, brute_force_completion, optimal_completion,
                      simulate)

cfg = GameConfig(n_users=8, n_resources=2, price_set=(1, 3, 6),
                 budget_set=(1, 3, 6))

# Two attack shapes come out of it. Starve: against uniformly high prices
# the adversary sends the largest budget each price rejects; nothing sells
# and the benchmark is whatever those rejected budgets add up to.
flat = (6,) * 8
res = optimal_completion(cfg, flat, realized_prefix=())
trace = simulate(cfg, res.full_sequence, flat)
print("prices:       ", flat)
print("oracle attack:", res.full_sequence, "gap", res.gap)
print("accepted:     ", trace.accepted, "welfare", trace.alg_welfare,
      "benchmark", trace.benchmark_value)

# Exhaust: a bargain slot invites the adversary to buy the stock with the
# cheapest budgets the prices accept, then parade rich users past an empty
# shelf.
bargain = (6, 6, 1, 1, 6, 6, 6, 6)
res = optimal_completion(cfg, bargain, realized_prefix=())
trace = simulate(cfg, res.full_sequence, bargain)
print("\nprices:       ", bargain)
print("oracle attack:", res.full_sequence, "gap", res.gap)
print("accepted:     ", trace.accepted, "welfare", trace.alg_welfare,
      "benchmark", trace.benchmark_value)

# Mid-game the realized prefix is pinned and only the open slots move.
# Here slot 0 already sold, so one unit remains for the attack.
prices = (3, 6, 1, 3, 6, 1, 3, 6)
prefix = (3, 1)
res = optimal_completion(cfg, prices, prefix)
trace = simulate(cfg, res.full_sequence, prices)
print("\nprices:       ", prices)
print("prefix so far:", prefix)
print("oracle attack:", res.full_sequence, "gap", res.gap)
print("accepted:     ", trace.accepted, "welfare", trace.alg_welfare,
      "benchmark", trace.benchmark_value)

# The oracle agrees with exhaustive enumeration on every prefix of length
# up to four, at a fraction of the work (the brute force walks 3^open
# completions; the oracle reuses one table for this price schedule and
# walks the open slots once per prefix).
t0 = time.perf_counter()
checked = 0
for ell in range(5):
    for pre in itertools.product(cfg.budget_set, repeat=ell):
        fast = optimal_completion(cfg, prices, pre)
        slow = brute_force_completion(cfg, prices, pre)
        assert fast.gap == slow.gap, (pre, fast.gap, slow.gap)
        checked += 1
print(f"\n{checked} prefixes checked against brute force "
      f"in {time.perf_counter() - t0:.2f}s; gaps agree on all of them.")
