"""Closed-loop execution of a vote tree against the environment.

With correction enabled, execution walks the tree greedily by vote: a failed
command removes its node and selection falls back to the remaining siblings;
when a node runs out of children it is removed from its parent and selection
resumes there (repeated single-level unwinding, which composes into
multi-level backtracking).  World effects of executed commands are never
undone by backtracking.  Without correction the walk follows the selection
policy from root to a terminal node, executing every command regardless of
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigError, check_choice
from .plans import Command
from .tree import SelectionStrategy, VoteTreeNode, remove_child, select_child
from .world import ExecutionOutcome, GoalSpec, World, WorldState, state_diff

NO_CORRECTION = "no_correction"
WITH_CORRECTION = "with_correction"
MODES = (WITH_CORRECTION, NO_CORRECTION)

TERMINATE_CHILDLESS = "childless_success"
TERMINATE_END_MARKER = "end_marker_or_childless"
TERMINATIONS = (TERMINATE_CHILDLESS, TERMINATE_END_MARKER)

COMPLETED = "completed"
EXHAUSTED = "exhausted"
STEP_LIMIT = "step_limit"
NO_PLAN = "no_plan"  # nothing to execute: set by the harness, never by execute_tree

DEFAULT_STEP_LIMIT = 50

CommandRunner = Callable[[WorldState, Command], ExecutionOutcome]


@dataclass
class ExecutionMode:
    """How the tree is traversed and when traversal stops."""

    kind: str = WITH_CORRECTION
    selection: SelectionStrategy = field(default_factory=SelectionStrategy)
    termination: str = TERMINATE_CHILDLESS

    def __post_init__(self) -> None:
        check_choice("mode", self.kind, MODES)
        check_choice("termination", self.termination, TERMINATIONS)


@dataclass(frozen=True)
class StepRecord:
    index: int
    command: Command
    ok: bool
    reason: str | None
    node_path: tuple[str, ...]


@dataclass(frozen=True)
class ExecutionTrace:
    steps: tuple[StepRecord, ...]
    final_state: WorldState
    termination: str

    @property
    def attempted(self) -> int:
        return len(self.steps)

    @property
    def succeeded(self) -> int:
        return sum(1 for s in self.steps if s.ok)


def execute_tree(
    root: VoteTreeNode,
    run_command: CommandRunner,
    initial_state: WorldState,
    mode: ExecutionMode,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> ExecutionTrace:
    """Run one episode over the tree and return the full trace.

    ``run_command`` is the environment hook: it maps (state, command) to an
    ExecutionOutcome and must leave the state unchanged on failure.
    Correction mutates an episode-local clone; the input tree is never
    touched.
    """
    if step_limit <= 0:
        raise ConfigError(f"step_limit must be positive, got {step_limit}")
    correcting = mode.kind == WITH_CORRECTION
    node = root.clone() if correcting else root
    state = initial_state
    steps: list[StepRecord] = []
    while True:
        child = select_child(node, mode.selection)
        if child is None:
            # Children exhausted here.  Without correction that is only an
            # empty root.  With correction the episode is over at the root;
            # elsewhere drop this node and resume selection at its parent.
            if not correcting or node.is_root:
                termination = EXHAUSTED if correcting else COMPLETED
                break
            parent = node.parent
            remove_child(parent, node)
            node = parent
            continue
        if len(steps) >= step_limit:
            termination = STEP_LIMIT
            break
        outcome = run_command(state, child.command)
        steps.append(
            StepRecord(len(steps), child.command, outcome.ok, outcome.reason, child.path())
        )
        if outcome.ok or not correcting:
            state = outcome.state
            node = child
            if not node.children or (mode.termination == TERMINATE_END_MARKER and node.end_marker):
                termination = COMPLETED
                break
        else:
            remove_child(node, child)
    return ExecutionTrace(tuple(steps), state, termination)


@dataclass(frozen=True)
class EpisodeResult:
    """Everything the metrics need from one executed episode."""

    task_name: str
    trace: ExecutionTrace
    goal: GoalSpec
    achieved: frozenset


def run_episode(
    task_name: str,
    world: World,
    initial_state: WorldState,
    goal: GoalSpec,
    root: VoteTreeNode,
    mode: ExecutionMode,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> EpisodeResult:
    """Execute the tree in the world and bundle the metric inputs."""
    trace = execute_tree(root, world.execute, initial_state, mode, step_limit)
    achieved = state_diff(initial_state, trace.final_state)
    return EpisodeResult(task_name=task_name, trace=trace, goal=goal, achieved=achieved)


def serialize_trace(trace: ExecutionTrace) -> list[dict]:
    """Ordered step records as plain dicts for logs and reports."""
    records = []
    for s in trace.steps:
        rec = {"idx": s.index, "command": s.command.canonical_form, "outcome": "success" if s.ok else "failure"}
        if s.reason:
            rec["reason"] = s.reason
        records.append(rec)
    return records
