"""Aggregate noisy plan samples into a vote-weighted prefix tree.

Plans sharing a prefix share a branch; the per-node vote counts how many
samples pass through.  The outline rendering makes the majority structure
visible at a glance.
"""

import json

from votetree import (
    NoiseModel,
    build_vote_tree,
    load_dataset,
    render_outline,
    synthesize_noisy_plans,
    tree_stats,
    tree_to_dict,
)

bundle = load_dataset()
task = next(t for t in bundle.tasks if t.task_name == "put the socks in the dresser")
print("seed plan:", " -> ".join(c.canonical_form for c in task.goal_plan))

# Perturb the seed plan the way a sampled generator would vary it.
noise = NoiseModel(drop_prob=0.25, swap_prob=0.15)
samples = synthesize_noisy_plans(task.goal_plan, noise, num_samples=12, seed=7)
for k, s in enumerate(samples[:4]):
    print(f"  sample {k}:", " -> ".join(c.canonical_form for c in s))
print("  ...")

root = build_vote_tree([s for s in samples if s])
print("\nvote tree:")
print(render_outline(root))

stats = tree_stats(root)
print(f"\n{stats.node_count} nodes, depth {stats.max_depth}, "
      f"{stats.leaf_count} leaves, {stats.distinct_plans_represented} distinct plans")

# The tree serializes to a nested document and round-trips exactly.
doc = tree_to_dict(root)
print("\nserialized root child votes:",
      {c["command"]: c["vote"] for c in doc["children"]})
print("document size:", len(json.dumps(doc)), "bytes")
