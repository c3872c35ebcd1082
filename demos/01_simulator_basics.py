"""Walk through the symbolic household simulator.

Loads a bundled scene, executes a few commands by hand, shows the failure
variants, and diffs the final state against the initial one.
"""

from votetree import Command, load_dataset, state_diff

bundle = load_dataset()
scene = bundle.scenes["scene1"]
print(f"scene {scene.scene_id}: {len(scene.objects)} objects")
print("a few of them:", ", ".join(sorted(scene.objects)[:8]), "...")

from votetree import World

world = World(bundle.catalog, scene.objects)
state = scene.initial_state
print("\ninitial predicates (sample):")
for p in sorted(state)[:6]:
    print("  ", p.render())

# Execute a short plan step by step.
plan = ["find(salmon)", "grab(salmon)", "find(microwave)", "open(microwave)",
        "putin(salmon, microwave)", "close(microwave)", "switchon(microwave)"]
print("\nexecuting:", " -> ".join(plan))
for text in plan:
    outcome = world.execute(state, Command.parse(text))
    print(f"  {text:28s} {'ok' if outcome.ok else 'FAILED: ' + outcome.reason}")
    state = outcome.state

print("\nwhat changed (state diff):")
for p in sorted(state_diff(scene.initial_state, state)):
    print("  +", p.render())

# Failures never mutate the state and carry a structured reason.
print("\nfailure modes:")
for text in ["switchon(fridge)", "grab(kitchenchair)", "find(unicorn)", "blorp(mug)"]:
    outcome = world.execute(state, Command.parse(text))
    print(f"  {text:24s} -> {outcome.reason} ({outcome.detail})")
assert outcome.state == state  # untouched on failure
