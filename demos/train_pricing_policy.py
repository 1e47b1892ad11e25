"""
Training a pricing policy against truncation attacks
====================================================

A pricing net that reads only the current slot (its index, units left,
the last budget and the last price) plays the staircase instance (budgets
1..5, five users each, five units) while a multiplicative-weights learner
mixes over the 26 truncation attacks: stop the arrivals after any prefix.
The LP value of this instance is 47/6, so training can stop itself once
the trailing gap settles near that target.
"""
import time

import numpy as np

from advalloc import (GameConfig, TrainConfig, derive_rng, play_batch,
                      solve_acceptance_lp, train_alg_vs_mw)

staircase = tuple(b for b in range(1, 6) for _ in range(5))
cfg = GameConfig(n_users=25, n_resources=5, price_set=(1, 2, 3, 4, 5),
                 budget_set=(1, 2, 3, 4, 5))

lp_value, _ = solve_acceptance_lp(staircase, cfg.n_resources)
print(f"LP value of the staircase game: {lp_value:.4f}")

# Every prefix of the staircase is one expert; the empty attack is useless
# (the gap is 0 when nobody arrives) so experts start at length one.
experts = [staircase[:ell] for ell in range(1, len(staircase) + 1)]
tcfg = TrainConfig(episodes=100_000, batch=10, lr_alg=3e-3, seed=11,
                   mw_rollouts=4, hidden=32,
                   target_gap=7.834, stop_rtol=0.06)

t0 = time.perf_counter()
result = train_alg_vs_mw(cfg, tcfg, experts)
elapsed = time.perf_counter() - t0
print(f"\nstopped early: {result.stopped_early} "
      f"after {result.episodes} episodes ({elapsed:.1f}s)")
for it, mean_gap, mean_welfare, trailing in result.metrics[::100]:
    print(f"  iter {it:4d}  mean gap {mean_gap:6.3f}  trailing {trailing:6.3f}")
print(f"  final trailing gap {result.metrics[-1][3]:.3f} "
      f"vs target {tcfg.target_gap}")

# The MW mixture shows which truncations still hurt: mass concentrates on
# the prefixes the current policy handles worst.
mix = result.mw.mixture
top = np.argsort(mix)[::-1][:5]
print("\nfive most threatening truncation lengths:",
      [len(experts[i]) for i in top])

# Argmax-decode the learned policy on full and truncated arrivals (rows
# are zero-padded to full width; `lengths` marks where play stops).
pad = np.zeros((3, cfg.n_users), dtype=np.int64)
lengths = (5, 15, 25)
for k, ell in enumerate(lengths):
    pad[k, :ell] = experts[ell - 1]
# A settled cell (sold out or past the row's end) posts no price.
decoded = play_batch(cfg, result.algorithm, pad, lengths=lengths, sample=False)
for k, ell in enumerate(lengths):
    posted = decoded.prices[k][decoded.price_idx[k] >= 0]
    print(f"prefix length {ell:2d}: "
          f"prices {tuple(int(p) for p in posted)}"
          f"  welfare {int(decoded.welfare[k])}  gap {int(decoded.gap[k])}")

# Uniform random truncations score kinder than the trailing statistic
# because MW concentrates its mixture on the prefixes that hurt most.
rng = derive_rng(0, "demo:pricing")
lens = rng.integers(1, cfg.n_users + 1, size=400)
rows = np.where(np.arange(cfg.n_users)[None, :] < lens[:, None],
                np.asarray(staircase)[None, :], 0)
sampled = play_batch(cfg, result.algorithm, rows, rng=rng, lengths=lens)
print(f"\nsampled mean gap over 400 random truncations: "
      f"{float(sampled.gap.mean()):.3f}")
