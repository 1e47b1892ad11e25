"""
One experiment, twice, byte for byte
====================================

The command-line harness turns a flat config file into training runs,
evaluations, and benchmark tables, and every run starts by writing a
manifest of what it is about to do. Seeds feed named substreams, so
repeating a command reproduces every artifact exactly; this script runs
the same experiment into two directories and diffs the bytes.
"""
import os
import tempfile

import numpy as np

from advalloc import load_model
from advalloc.cli import run_cli

CONFIG = """\
# four arrivals, two units, a tiny net that trains in about a second
n_users = 4
n_resources = 2
price_set = {1, 2, 3}
budget_set = {1, 2, 3}
sequence = [1, 2, 2, 3]
expert_prices = 1,1,2,2; 2,2,2,3; 1,2,3,3
episodes = 40
batch = 4
hidden = 8
latent_dim = 4
mw_rollouts = 2
seed = 5
"""

top = tempfile.mkdtemp(prefix="advalloc-demo-")
cfg_path = os.path.join(top, "experiment.cfg")
with open(cfg_path, "w") as f:
    f.write(CONFIG)

# Train the pricing net and the budget generator jointly, twice.
for d in ("run-a", "run-b"):
    code = run_cli(["train", "--config", cfg_path, "--mode", "joint",
                    "--out-dir", os.path.join(top, d)])
    assert code == 0

# The manifest is written before any computation starts: if a run dies,
# the directory still says what it was attempting.
print("\nmanifest of run-a:")
with open(os.path.join(top, "run-a", MANIFEST := "run-manifest.txt")) as f:
    for line in f:
        print("  " + line.rstrip())

# Every artifact except the manifest (which records the differing
# --out-dir flag) must match byte for byte.
print("artifact comparison:")
for name in sorted(os.listdir(os.path.join(top, "run-a"))):
    if name == MANIFEST:
        continue
    a = open(os.path.join(top, "run-a", name), "rb").read()
    b = open(os.path.join(top, "run-b", name), "rb").read()
    print(f"  {name:<18} {len(a):>6} bytes  identical={a == b}")
    assert a == b

# Saved models rebuild the exact same network: parameters round-trip
# bit for bit through the header-plus-payload format.
model_path = os.path.join(top, "run-a", "algorithm.model")
reloaded = load_model(model_path)
again = load_model(os.path.join(top, "run-b", "algorithm.model"))
same = all(np.array_equal(p, q) for p, q in
           zip(reloaded.params, again.params))
print(f"\nreloaded pricing nets from both runs agree parameter-for-"
      f"parameter: {same}")

# The rest of the harness reuses the same artifacts: score the saved
# model against generator snapshots, then run the benchmark table.
print("\neval against saved generator snapshots:")
run_cli(["eval", "--config", cfg_path, "--model", model_path,
         "--adversary", os.path.join(top, "run-a", "adversary.model"),
         "--ring", os.path.join(top, "run-a", "adversary.ring"),
         "--n-sequences", "50", "--out-dir", os.path.join(top, "eval")])

print("\nbenchmark table (random mode):")
run_cli(["bench", "--config", cfg_path, "--mode", "random",
         "--n-sequences", "200", "--model", model_path,
         "--out-dir", os.path.join(top, "bench")])

print("\nexact value of the tiny game via the ne subcommand:")
run_cli(["ne", "--config", cfg_path, "--mode", "lp",
         "--out-dir", os.path.join(top, "ne")])

print(f"\nall artifacts left under {top}")
