"""
Where the gradients come from
=============================

Neither training loop differentiates through the discrete auction.
Instead, closed-form signals score each action of one slot: a shadow
price tells the seller what a unit is worth right now, and the
completion oracle tells the generator how bad each budget substitution
could get; training scores a whole batch of those substitutions with one
batched DP, checked here against one optimal_completion call per
substitution. The network side is plain backprop, checked here against
central finite differences.
"""
import numpy as np

from advalloc import (GameConfig, SoftmaxMlp, candidate_gaps, optimal_completion,
                      price_gradient, shadow_price)

cfg = GameConfig(n_users=4, n_resources=2, price_set=(1, 2, 4, 8),
                 budget_set=(1, 2, 4, 8))

# Two units left, future budgets (8, 4, 2, 1): the marginal unit is worth
# the midpoint between the 2nd and 3rd largest remaining budgets.
budgets = (8, 4, 2, 1)
dual = shadow_price(cfg, budgets, slot=0, realized_accepts=())
print(f"remaining budgets {budgets}, {dual.available} units left "
      f"-> shadow price {dual.shadow_price}")

# The per-price welfare signal at slot 0 (budget 8): any price the user
# accepts earns budget minus shadow, prices above the budget earn zero.
g = price_gradient(cfg, budgets, slot=0, realized_accepts=())
print("price gradient  ", dict(zip(cfg.price_set, g.per_action)))

# The same slot with a poor user (budget 2 < shadow 3): accepting is now
# penalized, pushing probability toward the rejecting prices.
g = price_gradient(cfg, (2, 8, 4, 1), slot=0, realized_accepts=())
print("poor-user signal", dict(zip(cfg.price_set, g.per_action)))

# The generator's signal substitutes each candidate budget into a slot
# and lets the completion oracle finish the attack optimally.
prices = (4, 4, 2, 2)
signal = [optimal_completion(cfg, prices, (8, b)).gap for b in cfg.budget_set]
print("\nprices", prices, "slot 1 budget swapped for each candidate:")
print("best completed gap", dict(zip(cfg.budget_set, signal)))

# Training needs that signal for every (row, slot, candidate) of a sampled
# batch; candidate_gaps computes them all in one batched completion DP and
# must agree with the optimal_completion calls entry for entry.
rows_rng = np.random.default_rng(3)
price_rows = rows_rng.choice(cfg.price_set, size=(4, cfg.n_users))
budget_rows = rows_rng.choice(cfg.budget_set, size=(4, cfg.n_users))
batched = candidate_gaps(cfg, price_rows, budget_rows)
scalar = [[[optimal_completion(cfg, p, b[:slot] + [c]).gap for c in cfg.budget_set]
           for slot in range(cfg.n_users)]
          for p, b in zip(price_rows.tolist(), budget_rows.tolist())]
assert batched.tolist() == scalar
print(f"\nbatch of {len(batched)} rows, every slot equal to optimal_completion; "
      f"row 0 (prices {tuple(price_rows[0].tolist())}, "
      f"budgets {tuple(budget_rows[0].tolist())}):")
for slot in range(cfg.n_users):
    print(f"  slot {slot}: candidate_gaps {batched[0, slot].tolist()}  "
          f"optimal_completion {scalar[0][slot]}")

# Backprop through the shared net matches finite differences to float
# precision; every learning signal above enters through this path.
rng = np.random.default_rng(3)
net = SoftmaxMlp((5, 8, 6), head_sizes=(3, 3), rng=rng)
x = rng.normal(size=(3, 5))
upstream = rng.normal(size=(3, 6))


def objective() -> float:
    probs, _ = net.forward(x)
    return float((upstream * probs).sum())


probs, tape = net.forward(x)
grads = net.backprop(tape, upstream)
worst = 0.0
for p, g in zip(net.params, grads):
    flat_p, flat_g = p.ravel(), g.ravel()
    for i in range(flat_p.size):
        keep = flat_p[i]
        flat_p[i] = keep + 1e-6
        up = objective()
        flat_p[i] = keep - 1e-6
        down = objective()
        flat_p[i] = keep
        fd = (up - down) / 2e-6
        worst = max(worst, abs(fd - flat_g[i]) / max(abs(fd), 1e-3))
print(f"\nbackprop vs finite differences over "
      f"{sum(p.size for p in net.params)} parameters: "
      f"max relative error {worst:.2e}")
