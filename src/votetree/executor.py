"""Closed-loop execution of a vote tree against the environment.

The tree is only read.  With correction enabled, execution walks it greedily
by vote and never tries a node twice: after a failed command selection falls
back to the untried siblings; when a node has no untried children left the
walk returns to its parent and selects there (repeated single-level
unwinding, which composes into multi-level backtracking).  World effects of
executed commands are never undone by backtracking.  Without correction the
walk follows the selection policy from root to a terminal node, executing
every command regardless of outcome.
"""

import random
from typing import Callable, NamedTuple

from .errors import (INTEGER_AT_LEAST_1, JSON_OBJECT, LIST, STRING, STRING_OR_NULL, DatasetError,
                     check_choice, check_value, checked, json_document, reading)
from .plans import Command
from .tree import MAX_VOTE, RANDOM, SELECTIONS, VoteTreeNode, select_child
from .world import ExecutionOutcome, World, WorldState, state_diff

NO_CORRECTION = "no_correction"
WITH_CORRECTION = "with_correction"
MODES = (WITH_CORRECTION, NO_CORRECTION)

TERMINATE_CHILDLESS = "childless_success"
TERMINATE_END_MARKER = "end_marker_or_childless"
TERMINATIONS = (TERMINATE_CHILDLESS, TERMINATE_END_MARKER)

COMPLETED = "completed"
EXHAUSTED = "exhausted"
STEP_LIMIT = "step_limit"
NO_PLAN = "no_plan"  # nothing to execute: the tree has no command

DEFAULT_STEP_LIMIT = 50

CommandRunner = Callable[[WorldState, Command], ExecutionOutcome]


@checked
class ExecutionMode(NamedTuple):
    """How the tree is traversed and when traversal stops.  A value: each walk
    starts its own random selection stream at ``seed``, which max_vote never reads."""

    kind: str = WITH_CORRECTION
    selection: str = MAX_VOTE
    termination: str = TERMINATE_CHILDLESS
    seed: int = 0

    def _check(self) -> None:
        check_choice("mode", self.kind, MODES)
        check_choice("selection", self.selection, SELECTIONS)
        check_choice("termination", self.termination, TERMINATIONS)


class StepRecord(NamedTuple):
    command: Command
    ok: bool
    reason: str | None
    node_path: tuple[str, ...]


class ExecutionTrace(NamedTuple):
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
    ExecutionOutcome and must leave the state unchanged on failure.  The tree
    is never touched: the walk keeps, per level from the root down, the
    command path there and a shallow copy of the children not yet tried.
    A tree with no command is an episode with no plan: it attempts nothing
    and ends ``no_plan`` in either mode.
    """
    check_value("step_limit", step_limit, INTEGER_AT_LEAST_1)
    if not root.children:
        return ExecutionTrace((), initial_state, NO_PLAN)
    correcting = mode.kind == WITH_CORRECTION
    rng = random.Random(mode.seed) if mode.selection == RANDOM else None
    levels: list[tuple[tuple[str, ...], dict[str, VoteTreeNode]]] = [((), dict(root.children))]
    state = initial_state
    steps: list[StepRecord] = []
    while True:
        path, untried = levels[-1]
        child = select_child(untried, rng)
        if child is None:
            # Every child here was tried, which happens only with correction:
            # the episode is over at the root; elsewhere resume selection one
            # level up.
            if len(levels) == 1:
                termination = EXHAUSTED
                break
            levels.pop()
            continue
        if len(steps) >= step_limit:
            termination = STEP_LIMIT
            break
        del untried[child.key]
        outcome = run_command(state, child.command)
        child_path = (*path, child.key)
        steps.append(StepRecord(child.command, outcome.ok, outcome.reason, child_path))
        if outcome.ok or not correcting:
            state = outcome.state
            if not child.children or (mode.termination == TERMINATE_END_MARKER and child.end_marker):
                termination = COMPLETED
                break
            levels.append((child_path, dict(child.children)))
    return ExecutionTrace(tuple(steps), state, termination)


class EpisodeResult(NamedTuple):
    """Everything the metrics need from one executed episode besides its goal."""

    trace: ExecutionTrace
    achieved: frozenset


def run_episode(
    world: World,
    initial_state: WorldState,
    root: VoteTreeNode,
    mode: ExecutionMode,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> EpisodeResult:
    """Execute the tree in the world and bundle the metric inputs."""
    trace = execute_tree(root, world.execute, initial_state, mode, step_limit)
    return EpisodeResult(trace, state_diff(initial_state, trace.final_state))


def serialize_trace(trace: ExecutionTrace) -> dict:
    """The ``{"termination", "steps"}`` document of a ``trace.json``, its steps
    in order as plain dicts (``read_steps`` reads them back)."""
    steps = []
    for i, s in enumerate(trace.steps):
        rec = {"idx": i, "command": s.command.canonical_form, "outcome": "success" if s.ok else "failure"}
        if s.reason:
            rec["reason"] = s.reason
        steps.append(rec)
    return {"termination": trace.termination, "steps": steps}


def read_steps(path: str) -> list[StepRecord]:
    """The steps of a trace file: a list of JSON objects, each with the
    integer that is its position as ``idx``, a command string, an ``outcome``
    of ``"success"`` or ``"failure"`` and a ``reason`` that is a string or
    null (absent is null)."""
    steps = []
    with reading(path, DatasetError):
        document = json_document(path, DatasetError)
        for position, step in enumerate(check_value("steps", document["steps"], LIST, DatasetError)):
            check_value(f"step {position}", step, JSON_OBJECT, DatasetError)
            check_value(f"step {position}: idx", step["idx"],
                        (lambda v: type(v) is int and v == position, str(position)), DatasetError)
            outcome = check_value("outcome", step["outcome"],
                                  (lambda v: v in ("success", "failure"), "'success' or 'failure'"),
                                  DatasetError)
            command = check_value(f"step {position}: command", step["command"], STRING, DatasetError)
            reason = check_value(f"step {position}: reason", step.get("reason"), STRING_OR_NULL,
                                 DatasetError)
            steps.append(StepRecord(Command.parse(command), outcome == "success", reason,
                                    node_path=()))
    return steps
