import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votetree.errors import ConfigError
from votetree.executor import (
    MODES,
    TERMINATIONS,
    ExecutionMode,
    execute_tree,
    run_episode,
)
from votetree.metrics import compute_exec, compute_gcr
from votetree.plans import Command
from votetree.providers import NoiseModel, derive_seed, synthesize_noisy_plans
from votetree.tree import (
    SELECTIONS,
    SelectionStrategy,
    VoteTreeNode,
    build_vote_tree,
    select_child,
    tree_stats,
    tree_to_dict,
)
from votetree.world import ExecutionOutcome, WorldState, derive_goal_conditions

from conftest import plan_of


def scripted_runner(outcomes):
    """Command outcomes fixed by canonical form; state is never changed."""

    def run(state, command):
        ok = outcomes.get(command.canonical_form, True)
        reason = None if ok else "scripted_failure"
        return ExecutionOutcome(ok, state, reason)

    return run


def executed(trace):
    return [(s.command.canonical_form, s.ok) for s in trace.steps]


class TestWithCorrection:
    def test_happy_path_stops_at_childless_leaf(self, worked_tree):
        trace = execute_tree(worked_tree, scripted_runner({}), WorldState(), ExecutionMode())
        assert executed(trace) == [("a(x)", True), ("b(x)", True)]
        assert trace.termination == "completed"

    def test_sibling_fallback_on_failure(self, worked_tree):
        runner = scripted_runner({"b(x)": False})
        trace = execute_tree(worked_tree, runner, WorldState(), ExecutionMode())
        assert executed(trace) == [("a(x)", True), ("b(x)", False), ("c(x)", True)]
        assert trace.termination == "completed"

    def test_single_always_failing_child_exhausts(self):
        tree = build_vote_tree([plan_of("x(o)")])
        trace = execute_tree(tree, scripted_runner({"x(o)": False}), WorldState(), ExecutionMode())
        assert executed(trace) == [("x(o)", False)]
        assert trace.termination == "exhausted"

    def test_multi_level_backtracking(self):
        plans = (
            [plan_of("a(x)", "b(x)", "c(x)") for _ in range(3)]
            + [plan_of("a(x)", "b(x)", "d(x)") for _ in range(2)]
            + [plan_of("e(x)")]
        )
        tree = build_vote_tree(plans)
        runner = scripted_runner({"c(x)": False, "d(x)": False})
        trace = execute_tree(tree, runner, WorldState(), ExecutionMode())
        assert executed(trace) == [
            ("a(x)", True), ("b(x)", True), ("c(x)", False), ("d(x)", False), ("e(x)", True),
        ]
        assert trace.termination == "completed"

    def test_input_tree_is_not_mutated(self, worked_tree):
        runner = scripted_runner({"b(x)": False})
        execute_tree(worked_tree, runner, WorldState(), ExecutionMode())
        assert "b(x)" in worked_tree.children["a(x)"].children

    def test_no_world_rollback_on_backtracking(self, bundle, world1, scene1):
        plans = (
            [plan_of("find(apple)", "grab(apple)", "grab(kitchenchair)")
             for _ in range(2)]
            + [plan_of("find(apple)", "grab(apple)", "find(fridge)")]
        )
        tree = build_vote_tree(plans)
        trace = execute_tree(tree, world1.execute, scene1.initial_state, ExecutionMode())
        assert [s.ok for s in trace.steps] == [True, True, False, True]
        assert "apple" in trace.final_state.held
        assert trace.termination == "completed"


class TestNoCorrection:
    def test_executes_every_command_on_path(self, worked_tree):
        mode = ExecutionMode(kind="no_correction")
        runner = scripted_runner({"a(x)": False})
        trace = execute_tree(worked_tree, runner, WorldState(), mode)
        assert executed(trace) == [("a(x)", False), ("b(x)", True)]
        assert trace.termination == "completed"

    def test_matches_static_greedy_path(self):
        rng = random.Random(31)
        commands = [Command(f"a{i}", ("x",)) for i in range(6)]
        for trial in range(25):
            plans = [
                tuple(rng.choice(commands) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 15))
            ]
            plans = [p for p in plans if p] or [plan_of("a0(x)")]
            tree = build_vote_tree(plans)
            static_path = []
            node = tree
            while node.children:
                node = select_child(node.children, SelectionStrategy("max_vote"))
                static_path.append(node.key)
            outcomes = {c.canonical_form: rng.random() < 0.5 for c in commands}
            mode = ExecutionMode(kind="no_correction")
            trace = execute_tree(tree, scripted_runner(outcomes), WorldState(), mode)
            assert [s.command.canonical_form for s in trace.steps] == static_path


class TestTermination:
    def test_end_marker_termination_is_opt_in(self):
        plans = [plan_of("a(x)", "b(x)") for _ in range(5)]
        plans.append(plan_of("a(x)", "b(x)", "c(x)"))
        tree = build_vote_tree(plans)
        default = execute_tree(tree, scripted_runner({}), WorldState(), ExecutionMode())
        assert [s.command.canonical_form for s in default.steps] == ["a(x)", "b(x)", "c(x)"]
        marker_mode = ExecutionMode(termination="end_marker_or_childless")
        short = execute_tree(tree, scripted_runner({}), WorldState(), marker_mode)
        assert [s.command.canonical_form for s in short.steps] == ["a(x)", "b(x)"]
        assert short.termination == "completed"

    def test_step_limit_is_a_safety_valve(self):
        plan = plan_of(*(f"a{i}(x)" for i in range(10)))
        tree = build_vote_tree([plan])
        trace = execute_tree(tree, scripted_runner({}), WorldState(), ExecutionMode(), step_limit=3)
        assert trace.termination == "step_limit"
        assert trace.attempted == 3

    def test_nonpositive_step_limit_rejected(self, worked_tree):
        with pytest.raises(ConfigError):
            execute_tree(worked_tree, scripted_runner({}), WorldState(), ExecutionMode(), step_limit=0)

    @pytest.mark.parametrize("step_limit", ["3", 2.5, True, None])
    def test_step_limit_of_a_wrong_type_rejected(self, worked_tree, step_limit):
        with pytest.raises(ConfigError) as raised:
            execute_tree(worked_tree, scripted_runner({}), WorldState(), ExecutionMode(), step_limit)
        assert str(raised.value) == f"step_limit must be an integer >= 1, got {step_limit!r}"

    def test_invalid_mode_values_rejected(self):
        with pytest.raises(ConfigError):
            ExecutionMode(kind="sometimes_correct")
        with pytest.raises(ConfigError):
            ExecutionMode(termination="whenever")


class TestStructuralProperties:
    def _random_tree(self, rng):
        commands = [Command(f"c{i}", ("x",)) for i in range(8)]
        plans = [
            tuple(rng.choice(commands) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 20))
        ]
        plans = [p for p in plans if p] or [plan_of("c0(x)")]
        return build_vote_tree(plans)

    @pytest.mark.parametrize("selection", ["max_vote", "random"])
    def test_no_node_attempted_twice_and_bounded(self, selection):
        rng = random.Random(404)
        for trial in range(100):
            tree = self._random_tree(rng)
            bound = tree_stats(tree).node_count
            outcomes = {f"c{i}(x)": rng.random() < 0.6 for i in range(8)}
            mode = ExecutionMode(selection=SelectionStrategy(selection, rng_seed=trial))
            trace = execute_tree(
                tree, scripted_runner(outcomes), WorldState(), mode, step_limit=10_000
            )
            assert trace.attempted <= bound
            paths = [s.node_path for s in trace.steps]
            assert len(paths) == len(set(paths))
            assert trace.termination in ("completed", "exhausted")

    def test_successful_steps_consistent_with_backtracking(self):
        rng = random.Random(77)
        for _ in range(50):
            tree = self._random_tree(rng)
            outcomes = {f"c{i}(x)": rng.random() < 0.5 for i in range(8)}
            trace = execute_tree(
                tree, scripted_runner(outcomes), WorldState(), ExecutionMode(), step_limit=10_000
            )
            # Each successful step's path extends the previous successful
            # step's path or restarts deeper after backtracking; its prefix
            # chain must itself be made of successful commands.
            ok_paths = [s.node_path for s in trace.steps if s.ok]
            ok_commands = {s.node_path for s in trace.steps if s.ok}
            for path in ok_paths:
                for depth in range(1, len(path)):
                    assert path[:depth] in ok_commands

    COMMANDS = [f"c{i}(x)" for i in range(6)]

    @given(
        plans=st.lists(st.lists(st.sampled_from(COMMANDS), min_size=1, max_size=8),
                       min_size=1, max_size=12),
        failing=st.sets(st.sampled_from(COMMANDS)),
        selection=st.sampled_from(["max_vote", "random"]),
        rng_seed=st.integers(0, 2**16),
        step_limit=st.integers(1, 60),
    )
    def test_correction_terminates_and_never_reattempts_a_node(
        self, plans, failing, selection, rng_seed, step_limit
    ):
        tree = build_vote_tree([plan_of(*p) for p in plans])
        mode = ExecutionMode(selection=SelectionStrategy(selection, rng_seed=rng_seed))
        outcomes = {c: c not in failing for c in self.COMMANDS}
        trace = execute_tree(tree, scripted_runner(outcomes), WorldState(), mode, step_limit)
        assert trace.attempted <= step_limit
        paths = [s.node_path for s in trace.steps]
        assert len(paths) == len(set(paths))
        assert trace.termination in ("completed", "exhausted", "step_limit")
        if trace.termination == "step_limit":
            assert trace.attempted == step_limit


class EditableNode:
    """The reference walk's episode-local copy of a tree node, with the
    parent link and child removal that the clone-and-remove executor used."""

    def __init__(self, node, parent=None):
        self.command, self.key, self.vote = node.command, node.key, node.vote
        self.end_marker, self.parent = node.end_marker, parent
        self.children = {key: EditableNode(child, self) for key, child in node.children.items()}

    def path(self):
        return (*self.parent.path(), self.key) if self.parent else ()


def reference_walk(root, run_command, state, mode, step_limit):
    """Oracle: the clone-and-remove executor.  It copies the tree, deletes a
    failed child from the copy, deletes a node with no children left from its
    parent and climbs parent links to backtrack."""
    correcting = mode.kind == "with_correction"
    node, steps = EditableNode(root), []
    while True:
        child = select_child(node.children, mode.selection)
        if child is None:
            if not correcting or node.parent is None:
                return steps, state, "exhausted" if correcting else "completed"
            del node.parent.children[node.key]
            node = node.parent
            continue
        if len(steps) >= step_limit:
            return steps, state, "step_limit"
        outcome = run_command(state, child.command)
        steps.append((child.command, outcome.ok, outcome.reason, child.path()))
        if outcome.ok or not correcting:
            state, node = outcome.state, child
            if not node.children or (mode.termination == "end_marker_or_childless"
                                     and node.end_marker):
                return steps, state, "completed"
        else:
            del node.children[child.key]


class TestMatchesReferenceWalk:
    COMMANDS = [f"c{i}(x)" for i in range(5)]

    @staticmethod
    def logging_runner(failing):
        """The state is the tuple of commands that succeeded so far."""

        def run(state, command):
            if command.canonical_form in failing:
                return ExecutionOutcome(False, state, "scripted_failure")
            return ExecutionOutcome(True, (*state, command.canonical_form), None)

        return run

    @given(
        plans=st.lists(st.lists(st.sampled_from(COMMANDS), max_size=6), min_size=1, max_size=12),
        failing=st.sets(st.sampled_from(COMMANDS)),
        kind=st.sampled_from(MODES),
        selection=st.sampled_from(SELECTIONS),
        termination=st.sampled_from(TERMINATIONS),
        rng_seed=st.integers(0, 2**16),
        step_limit=st.integers(1, 60),
    )
    def test_execute_tree_equals_the_clone_and_remove_walk(
        self, plans, failing, kind, selection, termination, rng_seed, step_limit
    ):
        tree = build_vote_tree([plan_of(*p) for p in plans])
        before = tree_to_dict(tree)

        def mode():
            return ExecutionMode(kind, SelectionStrategy(selection, rng_seed), termination)

        runner = self.logging_runner(failing)
        trace = execute_tree(tree, runner, (), mode(), step_limit)
        steps, state, end = reference_walk(tree, runner, (), mode(), step_limit)
        assert [(s.command, s.ok, s.reason, s.node_path) for s in trace.steps] == steps
        assert [s.index for s in trace.steps] == list(range(len(steps)))
        assert (trace.final_state, trace.termination) == (state, end)
        assert tree_to_dict(tree) == before


class TestRunEpisode:
    def test_perfect_plan_scores_full(self, bundle, world1, scene1):
        task = next(t for t in bundle.tasks if t.task_name == "microwave salmon")
        goal = derive_goal_conditions(world1, scene1.initial_state, task.goal_plan, task.task_name)
        tree = build_vote_tree([task.goal_plan for _ in range(5)])
        episode = run_episode(world1, scene1.initial_state, tree, ExecutionMode())
        assert compute_gcr(episode.achieved, goal) == 1.0
        assert compute_exec(episode.trace) == 1.0
        assert episode.trace.termination == "completed"

    @pytest.mark.parametrize("kind", MODES)
    def test_an_empty_tree_is_no_plan(self, world1, scene1, kind):
        """An empty tree attempts nothing and ends ``no_plan`` in either mode,
        where ``execute_tree`` ends it ``exhausted`` or ``completed``."""
        episode = run_episode(world1, scene1.initial_state, VoteTreeNode(), ExecutionMode(kind))
        assert (episode.trace.steps, episode.trace.termination) == ((), "no_plan")
        assert (episode.trace.final_state, episode.achieved) == (scene1.initial_state, frozenset())
        with pytest.raises(ConfigError, match="step_limit"):
            run_episode(world1, scene1.initial_state, VoteTreeNode(), ExecutionMode(kind), 0)

    def test_noisy_recovery_rate_regression(self, bundle, world1, scene1):
        """100 seeded trials; drop-noise samples must recover the goal on a
        clear majority.  The measured rate is frozen as the regression
        baseline (the run is fully deterministic)."""
        seed_plan = plan_of(
            "find(salmon)", "grab(salmon)", "find(microwave)", "open(microwave)",
            "putin(salmon,microwave)", "close(microwave)", "switchon(microwave)",
            "find(kitchentable)",
        )
        assert len(seed_plan) == 8
        goal = derive_goal_conditions(world1, scene1.initial_state, seed_plan, "microwave salmon v8")
        noise = NoiseModel(drop_prob=0.2)
        recovered = 0
        for trial in range(100):
            samples = synthesize_noisy_plans(seed_plan, noise, 20, seed=derive_seed(777, trial))
            plans = [p for p in samples if p]
            tree = build_vote_tree(plans)
            episode = run_episode(world1, scene1.initial_state, tree, ExecutionMode())
            if compute_gcr(episode.achieved, goal) == 1.0:
                recovered += 1
        assert recovered > 50
        assert recovered == 90  # frozen regression baseline for this seed set
