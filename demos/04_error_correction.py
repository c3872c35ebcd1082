"""Vote-guided execution with and without error correction.

Builds a tree whose majority branch is broken (the samples dropped the
open-microwave step), then contrasts the blind greedy walk against the
correcting executor, which falls back to siblings and backtracks on failure.
"""

from votetree import (
    ExecutionMode,
    World,
    build_vote_tree,
    execute_tree,
    load_dataset,
    state_diff,
)
from votetree.plans import Command


def plan_of(*texts):
    return tuple(Command.parse(t) for t in texts)


bundle = load_dataset()
scene = bundle.scenes["scene1"]
world = World(bundle.catalog, scene.objects)

# Majority of samples forgot to open the microwave first; a minority kept
# the correct ordering.
broken = ["find(salmon)", "grab(salmon)", "find(microwave)",
          "putin(salmon,microwave)", "switchon(microwave)"]
correct = ["find(salmon)", "grab(salmon)", "find(microwave)", "open(microwave)",
           "putin(salmon,microwave)", "close(microwave)", "switchon(microwave)"]
plans = [plan_of(*broken) for _ in range(3)]
plans += [plan_of(*correct) for _ in range(2)]
root = build_vote_tree(plans)


def show(label, trace):
    print(f"\n{label}: terminated {trace.termination}")
    for step in trace.steps:
        mark = "ok  " if step.ok else "FAIL"
        reason = "" if step.ok else f"  ({step.reason})"
        print(f"  {mark} {step.command.canonical_form}{reason}")
    achieved = state_diff(scene.initial_state, trace.final_state)
    inside = any(p.render() == "INSIDE(salmon, microwave)" for p in achieved)
    cooking = any(p.render() == "ON(microwave)" for p in achieved)
    print(f"  -> salmon in microwave: {inside}, microwave on: {cooking}")


blind = ExecutionMode(kind="no_correction", selection="max_vote")
show("no correction (greedy walk)", execute_tree(root, world.execute, scene.initial_state, blind))

correcting = ExecutionMode(kind="with_correction", selection="max_vote")
show("with correction (fallback + backtracking)",
     execute_tree(root, world.execute, scene.initial_state, correcting))

# The blind walk follows the 3-vote branch into the closed microwave and
# never recovers; the correcting walk skips the failing putin node,
# eventually backtracks, and completes the 2-vote branch.
