import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votetree.errors import DatasetError, SceneError
from votetree.plans import Command
from votetree.world import (
    StatePredicate,
    Task,
    World,
    WorldState,
    derive_goal_conditions,
    load_scene,
    load_tasks,
    simulate_plan,
    state_diff,
)

from conftest import cmd, plan_of


def make_scene(objects, init):
    return load_scene({"scene_id": "test", "objects": objects, "init": init})


FRIDGE_SCENE = {
    "scene_id": "mini",
    "objects": [
        {"id": "fridge", "class_name": "fridge", "properties": ["CAN_OPEN", "CONTAINER"]},
        {"id": "apple", "class_name": "apple", "properties": ["GRABBABLE", "EATABLE"]},
        {"id": "sofa", "class_name": "sofa", "properties": ["SITTABLE"]},
        {"id": "microwave", "class_name": "microwave",
         "properties": ["CAN_OPEN", "CONTAINER", "HAS_SWITCH"]},
    ],
    "init": ["CLOSED(fridge)", "OPEN(microwave)", "OFF(microwave)"],
}


class TestSceneLoading:
    def test_closed_fridge_is_transcribed(self):
        scene = load_scene(FRIDGE_SCENE)
        assert StatePredicate("CLOSED", "fridge") in scene.initial_state.predicates

    def test_duplicate_object_id_rejected(self):
        doc = {
            "scene_id": "dup",
            "objects": [{"id": "mug", "properties": []}, {"id": "mug", "properties": []}],
            "init": [],
        }
        with pytest.raises(SceneError, match="duplicate object id"):
            load_scene(doc)

    def test_unknown_object_in_init_rejected(self):
        doc = {"scene_id": "bad", "objects": [], "init": ["OPEN(ghost)"]}
        with pytest.raises(SceneError, match="ghost"):
            load_scene(doc)

    def test_exclusive_initial_state_rejected(self):
        doc = {
            "scene_id": "bad",
            "objects": [{"id": "door", "properties": ["CAN_OPEN"]}],
            "init": ["OPEN(door)", "CLOSED(door)"],
        }
        with pytest.raises(SceneError, match="both"):
            load_scene(doc)

    def test_missing_scene_file_named(self, tmp_path):
        missing = tmp_path / "nowhere.json"
        for document in (missing, str(missing)):
            with pytest.raises(SceneError, match="nowhere.json"):
                load_scene(document)

    def test_four_bundled_scenes_have_distinct_catalogs(self, bundle):
        assert len(bundle.scenes) == 4
        catalogs = [frozenset(s.objects) for s in bundle.scenes.values()]
        assert len(set(catalogs)) == 4


class TestExecuteCommand:
    def test_open_fridge(self, bundle):
        scene = load_scene(FRIDGE_SCENE)
        world = World(bundle.catalog, scene.objects)
        near = WorldState(
            scene.initial_state.predicates | {StatePredicate("CLOSE_TO", "agent", "fridge")}
        )
        outcome = world.execute(near, cmd("open(fridge)"))
        assert outcome.ok
        assert StatePredicate("OPEN", "fridge") in outcome.state.predicates
        assert StatePredicate("CLOSED", "fridge") not in outcome.state.predicates

    def test_switchon_open_microwave_fails(self, bundle):
        scene = load_scene(FRIDGE_SCENE)
        world = World(bundle.catalog, scene.objects)
        state = world.execute(scene.initial_state, cmd("find(microwave)")).state
        outcome = world.execute(state, cmd("switchon(microwave)"))
        assert not outcome.ok
        assert outcome.reason == "precondition_unsatisfied"
        assert outcome.state == state

    def test_grab_sofa_missing_property(self, bundle):
        scene = load_scene(FRIDGE_SCENE)
        world = World(bundle.catalog, scene.objects)
        state = world.execute(scene.initial_state, cmd("find(sofa)")).state
        outcome = world.execute(state, cmd("grab(sofa)"))
        assert not outcome.ok
        assert outcome.reason == "missing_property"

    def test_unknown_action_and_object(self, world1, scene1):
        out = world1.execute(scene1.initial_state, cmd("flomp(fridge)"))
        assert (out.ok, out.reason) == (False, "unknown_action")
        out = world1.execute(scene1.initial_state, cmd("find(unicorn)"))
        assert (out.ok, out.reason) == (False, "unknown_object")

    def test_arity_mismatch(self, world1, scene1):
        out = world1.execute(scene1.initial_state, cmd("open(fridge, apple)"))
        assert (out.ok, out.reason) == (False, "arity_mismatch")

    def test_hand_capacity_two(self, world1, scene1):
        state = scene1.initial_state
        for c in ("find(apple)", "grab(apple)", "find(salmon)", "grab(salmon)"):
            state = world1.execute(state, cmd(c)).state
        assert state.held == frozenset({"apple", "salmon"})
        state = world1.execute(state, cmd("find(bread)")).state
        out = world1.execute(state, cmd("grab(bread)"))
        assert (out.ok, out.reason) == (False, "precondition_unsatisfied")

    def test_determinism(self, world1, scene1):
        a = world1.execute(scene1.initial_state, cmd("find(apple)"))
        b = world1.execute(scene1.initial_state, cmd("find(apple)"))
        assert a.ok == b.ok and a.state == b.state

    def test_failure_atomicity(self, world1, scene1):
        out = world1.execute(scene1.initial_state, cmd("grab(apple)"))
        assert not out.ok
        assert out.state is scene1.initial_state

    def test_frame_property(self, world1, scene1):
        before = scene1.initial_state
        after = world1.execute(before, cmd("find(apple)")).state
        touched = {"CLOSE_TO", "FACING"}
        untouched_before = {p for p in before.predicates if p.predicate not in touched}
        untouched_after = {p for p in after.predicates if p.predicate not in touched}
        assert untouched_before == untouched_after

    def test_exclusivity_preserved_along_goal_plans(self, bundle):
        for task in bundle.tasks:
            scene = bundle.scenes[task.scene_id]
            world = World(bundle.catalog, scene.objects)
            state = scene.initial_state
            for c in task.goal_plan.commands:
                state = world.execute(state, c).state
                assert state.invariant_violations() == []


class TestInvariantProperty:
    @given(data=st.data())
    def test_any_command_sequence_keeps_the_invariants(self, bundle, data):
        scene = bundle.scenes[data.draw(st.sampled_from(sorted(bundle.scenes)))]
        world = World(bundle.catalog, scene.objects)
        # A few objects per example, so that a sequence acts on the same ones
        # again; unknown actions and objects must fail cleanly.
        objects = st.sampled_from(data.draw(st.lists(
            st.sampled_from(sorted(scene.objects)), min_size=1, max_size=3)) + ["doorknob"])
        arity = {name: bundle.catalog.get(name).arity for name in bundle.catalog.action_names}
        arity["flomp"] = 1
        command = st.builds(lambda action, args: Command(action, tuple(args[:arity[action]])),
                            st.sampled_from(sorted(arity)), st.lists(objects, min_size=2,
                                                                     max_size=2))
        # find() comes first in most preconditions, so draw it more often.
        find = st.builds(lambda obj: Command("find", (obj,)), objects)
        commands = data.draw(st.lists(st.one_of(find, command), min_size=20, max_size=60))
        state = scene.initial_state
        for c in commands:
            state = world.execute(state, c).state
            assert state.invariant_violations() == []


def _reference_effects(schema, state, command):
    """The state after ``command``'s effects, each wildcard delete rebuilding
    the predicate set as the simulator first did."""
    binding = {f"?{i + 1}": arg for i, arg in enumerate(command.args)}
    predicates = set(state.predicates)
    for tpl in schema.del_effects:
        args = tpl.substitute(binding)
        if "*" in args:
            predicates = {
                p for p in predicates
                if not (p.predicate == tpl.predicate
                        and all(a == "*" or a == b for a, b in zip(
                            args, (p.subject,) if p.object is None else (p.subject, p.object))))
            }
        else:
            predicates.discard(StatePredicate(tpl.predicate, *args))
    for tpl in schema.add_effects:
        predicates.add(StatePredicate(tpl.predicate, *tpl.substitute(binding)))
    return frozenset(predicates)


class TestWildcardDeleteProperty:
    @given(data=st.data())
    def test_a_wildcard_delete_removes_exactly_its_matches(self, bundle, data):
        """Drawn like TestInvariantProperty: every successful command leaves
        the state its effects give by the reference, so a wildcard delete
        (``CLOSE_TO(agent, *)``, ``INSIDE(?1, *)``, ...) removes exactly the
        predicates that match it."""
        scene = bundle.scenes[data.draw(st.sampled_from(sorted(bundle.scenes)))]
        world = World(bundle.catalog, scene.objects)
        objects = st.sampled_from(data.draw(st.lists(
            st.sampled_from(sorted(scene.objects)), min_size=1, max_size=3)))
        wildcard = [name for name in bundle.catalog.action_names
                    if any("*" in tpl.args for tpl in bundle.catalog.get(name).del_effects)]

        def command(actions):
            return st.builds(
                lambda action, args: Command(action, tuple(args[:bundle.catalog.get(action).arity])),
                st.sampled_from(actions), st.lists(objects, min_size=2, max_size=2))

        # Half the draws are actions with a wildcard delete.
        commands = data.draw(st.lists(st.one_of(command(wildcard),
                                                command(bundle.catalog.action_names)),
                                      min_size=20, max_size=60))
        state = scene.initial_state
        for c in commands:
            outcome = world.execute(state, c)
            if outcome.ok:
                assert outcome.state.predicates == _reference_effects(
                    bundle.catalog.get(c.action), state, c)
            state = outcome.state


class TestStateDiff:
    def test_identity(self, scene1):
        assert state_diff(scene1.initial_state, scene1.initial_state) == frozenset()

    def test_single_element(self):
        a = WorldState(frozenset())
        b = WorldState(frozenset({StatePredicate("INSIDE", "salmon", "microwave")}))
        assert state_diff(a, b) == {StatePredicate("INSIDE", "salmon", "microwave")}

    def test_diff_properties_random(self):
        rng = random.Random(7)
        names = ["a", "b", "c", "d", "e"]
        for _ in range(50):
            pool = [StatePredicate("CLEAN", n) for n in names]
            pool += [StatePredicate("INSIDE", n, m) for n in names for m in names if n != m]
            sa = WorldState(frozenset(rng.sample(pool, rng.randint(0, 10))))
            sb = WorldState(frozenset(rng.sample(pool, rng.randint(0, 10))))
            d = state_diff(sa, sb)
            assert d <= sb.predicates
            assert not (d & sa.predicates)

    def test_apple_in_fridge_goal_plan_diff(self, bundle, world1, scene1):
        task = next(t for t in bundle.tasks if t.task_name == "put apple in fridge")
        final = simulate_plan(world1, scene1.initial_state, task.goal_plan)
        diff = state_diff(scene1.initial_state, final)
        assert StatePredicate("INSIDE", "apple", "fridge") in diff
        assert StatePredicate("CLOSED", "fridge") in diff


class TestDeriveGoalConditions:
    def test_empty_goal_plan_is_invalid(self, tmp_path):
        path = tmp_path / "tasks.json"
        path.write_text('[{"task_name": "t", "scene_id": "scene1", "goal_plan": ["find(x)"]},'
                        ' {"task_name": "u", "scene_id": "scene1", "goal_plan": []}]')
        with pytest.raises(DatasetError, match=r"tasks\.json entry 1: goal_plan must be non-empty"):
            load_tasks(path)

    def test_empty_explicit_goal_conditions_are_invalid(self):
        with pytest.raises(DatasetError, match="task 't': goal_conditions must be non-empty"):
            Task("t", "scene1", plan_of("find(x)"), frozenset())

    def test_empty_goal_conditions_in_a_tasks_file_are_invalid(self, tmp_path):
        """An explicit empty list is an error, not a request to derive the goals."""
        path = tmp_path / "tasks.json"
        path.write_text('[{"task_name": "t", "scene_id": "scene1", "goal_plan": ["find(x)"],'
                        ' "goal_conditions": []}]')
        with pytest.raises(DatasetError, match=r"tasks\.json entry 0: task 't': goal_conditions "
                                               r"must be non-empty"):
            load_tasks(path)

    def test_net_zero_plan_is_a_dataset_error(self, world1, scene1):
        state = world1.execute(scene1.initial_state, cmd("find(stove)")).state
        noop = plan_of("find(stove)")
        with pytest.raises(DatasetError, match="empty state diff"):
            derive_goal_conditions(world1, state, noop, "noop task")

    def test_failing_goal_plan_names_the_command(self, world1, scene1):
        broken = plan_of("grab(apple)")
        with pytest.raises(DatasetError, match=r"grab\(apple\)"):
            derive_goal_conditions(world1, scene1.initial_state, broken, "broken")

    def test_all_35_tasks_derive_goals(self, bundle):
        specs = []
        for task in bundle.tasks:
            scene = bundle.scenes[task.scene_id]
            world = World(bundle.catalog, scene.objects)
            spec = derive_goal_conditions(world, scene.initial_state, task.goal_plan, task.task_name)
            assert spec
            specs.append(spec)
        assert len(specs) == 35

    def test_catalog_has_28_actions(self, bundle):
        assert len(bundle.catalog) == 28
