"""
Training a budget generator against a price mixer
=================================================

The adversary side of the game: a latent-noise generator emits budget
sequences while multiplicative weights mix over a fixed menu of three
price schedules. The matrix game restricted to that menu is worth 13/3,
so the generator can stop once its trailing gap settles near the target.
"""
import collections
import time

import numpy as np

from advalloc import (GameConfig, TrainConfig, derive_rng, gap, payoff_game,
                      snapshot_sequence_sampler, solve_zero_sum, train_adv_vs_mw)

cfg = GameConfig(n_users=7, n_resources=3, price_set=(1, 2, 3),
                 budget_set=(1, 2, 3))
menu = ((1, 1, 2, 2, 3, 3, 3),
        (1, 1, 1, 2, 2, 2, 3),
        (1, 2, 2, 2, 3, 3, 3))

mixed = solve_zero_sum(payoff_game(cfg, col_strategies=menu))
print(f"exact value of the restricted game: {mixed.value:.6f}")

tcfg = TrainConfig(episodes=100_000, batch=10, lr_adv=1e-2, seed=7,
                   mw_rollouts=4, hidden=32,
                   target_gap=13 / 3, stop_rtol=0.06)
t0 = time.perf_counter()
result = train_adv_vs_mw(cfg, tcfg, menu)
print(f"stopped early: {result.stopped_early} after {result.episodes} "
      f"episodes ({time.perf_counter() - t0:.1f}s), "
      f"trailing gap {result.metrics[-1][3]:.3f}")

# MW plays the defender here; by the early stop its mixture is still
# drifting toward the LP column equilibrium (it keeps shedding schedule 0).
print("MW schedule mixture:   ", np.round(result.mw.mixture, 3))
print("LP column equilibrium: ", np.round(mixed.col_mix, 3))

# Draw sequences from the saved generator snapshots and score each one by
# its expected gap under the final MW mixture. The modal draw is a
# near-optimal pure attack: cheap budgets soak up the stock, then
# mid-budget users hit an empty shelf.
rng = derive_rng(1, "demo:generator")
draw = snapshot_sequence_sampler(cfg, result.adversary, result.adv_ring)
rows = draw(rng, 300)
mix = result.mw.mixture


def expected_gap(seq) -> float:
    return float(sum(w * gap(cfg, seq, prices) for w, prices in zip(mix, menu)))


counts = collections.Counter(tuple(int(b) for b in row) for row in rows)
print("\nmost common generated sequences (of 300 draws):")
for seq, n in counts.most_common(5):
    print(f"  {seq}  x{n:3d}  expected gap {expected_gap(seq):.3f}")

sampled = float(np.mean([expected_gap(row) for row in rows]))
uniform = float(np.mean([expected_gap(r) for r in
                         rng.integers(1, 4, size=(300, cfg.n_users))]))
print(f"\nmean expected gap: generated {sampled:.3f} vs uniform random "
      f"{uniform:.3f} (value {mixed.value:.3f})")
