"""Symbolic household environment.

A scene is a set of objects with boolean properties plus a set of state
predicates (object states and inter-object relations).  Actions are declared
in a data catalog as precondition/effect schemas over the parameters ``?1``
and ``?2``; executing a command applies the matching schema to an immutable
``WorldState`` value and returns a new state, or a structured failure that
leaves the input state untouched.

The agent is implicit: the reserved token ``agent`` may appear in predicates
(e.g. ``CLOSE_TO(agent, fridge)``) but is not an object of the scene.  Held
objects travel with the agent, so a ``CLOSE_TO(agent, x)`` precondition is
also satisfied whenever ``x`` is currently held.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import CatalogError, DatasetError, SceneError, VoteTreeError, json_document, reading
from .plans import Command, Plan

AGENT = "agent"
HAND_CAPACITY = 2

UNARY_PREDICATES = frozenset(
    {"OPEN", "CLOSED", "ON", "OFF", "CLEAN", "DIRTY", "HELD_BY_AGENT"}
)
BINARY_PREDICATES = frozenset({"INSIDE", "ON_TOP", "CLOSE_TO", "FACING"})

# Mutually exclusive unary state pairs; no object may hold both at once.
EXCLUSIVE_PAIRS = (("OPEN", "CLOSED"), ("ON", "OFF"), ("CLEAN", "DIRTY"))

# Pseudo-predicate allowed only in precondition templates, as HANDS_FREE(agent):
# true while the agent has a free hand.  It never appears in a WorldState.
HANDS_FREE = "HANDS_FREE"

_PRED_RE = re.compile(r"^\s*([A-Z_]+)\s*\(\s*([^(),\s]+)\s*(?:,\s*([^(),\s]+)\s*)?\)\s*$")
_TOKEN_RE = re.compile(r"^[a-z][a-z0-9_]*$")


@dataclass(frozen=True)
class ObjectInstance:
    """One object of a scene: an id, a category token and property flags."""

    id: str
    class_name: str
    properties: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not _TOKEN_RE.fullmatch(self.class_name):
            raise SceneError(
                f"object {self.id!r}: class_name must be a non-empty lowercase token, "
                f"got {self.class_name!r}"
            )


@dataclass(frozen=True, order=True)
class StatePredicate:
    """A unary object state (``OPEN(fridge)``) or binary relation (``INSIDE(a, b)``)."""

    predicate: str
    subject: str
    object: str | None = None

    def __post_init__(self) -> None:
        if self.predicate in UNARY_PREDICATES:
            if self.object is not None:
                raise ValueError(f"{self.predicate} is unary, got second object {self.object!r}")
        elif self.predicate in BINARY_PREDICATES:
            if self.object is None:
                raise ValueError(f"{self.predicate} is binary and needs a second object")
        else:
            valid = sorted(UNARY_PREDICATES | BINARY_PREDICATES)
            raise ValueError(f"unknown predicate token {self.predicate!r}; expected one of {valid}")

    @property
    def kind(self) -> str:
        return "unary" if self.object is None else "binary"

    @classmethod
    def parse(cls, text: str) -> "StatePredicate":
        """Parse ``PRED(subj)`` / ``PRED(subj, obj)`` strings."""
        m = _PRED_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse predicate string {text!r}")
        pred, subj, obj = m.groups()
        return cls(pred, subj, obj)

    def render(self) -> str:
        if self.object is None:
            return f"{self.predicate}({self.subject})"
        return f"{self.predicate}({self.subject}, {self.object})"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


@dataclass(frozen=True)
class WorldState:
    """Immutable predicate set describing the environment at one instant.

    ``held`` is a derived view over the predicate set, which is the single
    source of truth.
    """

    predicates: frozenset[StatePredicate] = frozenset()

    @property
    def held(self) -> frozenset[str]:
        return frozenset(p.subject for p in self.predicates if p.predicate == "HELD_BY_AGENT")

    def holds(self, predicate: StatePredicate) -> bool:
        return predicate in self.predicates

    def invariant_violations(self) -> list[str]:
        """Return human-readable invariant violations (empty when valid)."""
        errs: list[str] = []
        by_subject: dict[str, set[str]] = {}
        for p in self.predicates:
            if p.kind == "unary":
                by_subject.setdefault(p.subject, set()).add(p.predicate)
        for subj, preds in sorted(by_subject.items()):
            for a, b in EXCLUSIVE_PAIRS:
                if a in preds and b in preds:
                    errs.append(f"{subj} holds both {a} and {b}")
        if len(self.held) > HAND_CAPACITY:
            errs.append(f"agent holds {len(self.held)} objects, capacity is {HAND_CAPACITY}")
        return errs


@dataclass(frozen=True)
class _Template:
    """One predicate template over ``?1``/``?2``/``agent``/``*`` arguments."""

    predicate: str
    args: tuple[str, ...]
    negated: bool = False

    def substitute(self, binding: Mapping[str, str]) -> tuple[str, ...]:
        return tuple(binding.get(a, a) for a in self.args)


def _parse_template(text: str, arity: int, section: str) -> _Template:
    """One template of an action's ``section`` (preconditions, add or del),
    checked so that ``World.execute`` can ground it for any command of
    ``arity``: each predicate gets its own number of arguments, ``!`` and
    ``HANDS_FREE(agent)`` appear only in preconditions, ``*`` only in del."""
    negated = text.lstrip().startswith("!")
    m = _PRED_RE.match(text.lstrip().removeprefix("!"))
    if not m:
        raise CatalogError(f"cannot parse template {text!r}")
    pred, a1, a2 = m.groups()
    args = (a1,) if a2 is None else (a1, a2)
    if pred == HANDS_FREE:
        if section != "preconditions" or args != (AGENT,):
            raise CatalogError(f"template {text!r}: {HANDS_FREE} is allowed only in "
                               f"preconditions, as {HANDS_FREE}({AGENT})")
    elif pred not in UNARY_PREDICATES | BINARY_PREDICATES:
        raise CatalogError(f"template {text!r}: unknown predicate {pred!r}")
    elif (len(args) == 2) != (pred in BINARY_PREDICATES):
        kind = "binary" if pred in BINARY_PREDICATES else "unary"
        raise CatalogError(f"template {text!r}: {pred} is {kind}, got {len(args)} argument(s)")
    if negated and section != "preconditions":
        raise CatalogError(f"template {text!r}: '!' is allowed only in preconditions")
    for a in args:
        if a.startswith("?"):
            if a not in ("?1", "?2") or int(a[1]) > arity:
                raise CatalogError(f"template {text!r}: parameter {a!r} not declared (arity {arity})")
        elif a == "*":
            if section != "del":
                raise CatalogError(f"template {text!r}: wildcard only allowed in delete effects")
        elif a != AGENT:
            raise CatalogError(f"template {text!r}: literal {a!r} (only ?1, ?2, agent, * allowed)")
    return _Template(pred, args, negated)


def _strings(value: object, what: str, error: type[VoteTreeError]) -> list[str]:
    """``value``, refused unless it is a list of strings (a string is not one)."""
    if type(value) is not list or any(type(v) is not str for v in value):
        raise error(f"{what} must be a list of strings, got {value!r}")
    return value


@dataclass(frozen=True)
class ActionSchema:
    """Declares one action: arity, property gates, preconditions and effects."""

    name: str
    arity: int
    required_properties: tuple[frozenset[str], ...]
    preconditions: tuple[_Template, ...]
    add_effects: tuple[_Template, ...]
    del_effects: tuple[_Template, ...]


class ActionCatalog:
    """The full action vocabulary, loaded from a JSON schema list."""

    def __init__(self, schemas: Iterable[ActionSchema]):
        self.schemas: dict[str, ActionSchema] = {}
        for s in schemas:
            if s.name in self.schemas:
                raise CatalogError(f"duplicate action schema {s.name!r}")
            self.schemas[s.name] = s

    def __len__(self) -> int:
        return len(self.schemas)

    def get(self, name: str) -> ActionSchema | None:
        return self.schemas.get(name)

    @property
    def action_names(self) -> list[str]:
        return sorted(self.schemas)

    @classmethod
    def from_file(cls, path: str | Path) -> "ActionCatalog":
        schemas = []
        for number, doc in enumerate(json_document(path, CatalogError, list)):
            with reading(f"{path} entry {number}", CatalogError):
                name, arity = doc["name"], doc["arity"]
                if type(name) is not str or not _TOKEN_RE.fullmatch(name):
                    raise CatalogError(f"name must be a lowercase token, got {name!r}")
                if type(arity) is not int or arity not in (1, 2):
                    raise CatalogError(f"action {name!r}: arity must be 1 or 2, got {arity!r}")
                req = doc.get("required_properties", [])
                if type(req) is not list:
                    raise CatalogError(f"action {name!r}: required_properties must be a list")
                if len(req) > arity:
                    raise CatalogError(f"action {name!r}: more property lists than parameters")
                req_padded = tuple(
                    frozenset(_strings(req[i], f"action {name!r}: required_properties[{i}]",
                                       CatalogError)) if i < len(req) else frozenset()
                    for i in range(arity)
                )
                preconditions, adds, dels = (
                    tuple(_parse_template(t, arity, section)
                          for t in _strings(doc.get(section, []), f"action {name!r}: {section}",
                                            CatalogError))
                    for section in ("preconditions", "add", "del"))
                schemas.append(ActionSchema(name, arity, req_padded, preconditions, adds, dels))
        with reading(path, CatalogError):
            return cls(schemas)


@dataclass(frozen=True)
class Scene:
    """A loaded scene: object catalog plus the initial world state."""

    scene_id: str
    objects: Mapping[str, ObjectInstance]
    initial_state: WorldState


def load_scene(document: Mapping | str | Path) -> Scene:
    """Load and validate a scene document, given as a dict or a JSON file path.

    Raises SceneError naming the file (for a dict, the scene) on malformed
    input (a ``scene_id`` or object id that is not a string among it),
    duplicate ids or predicate references to unknown objects.
    """
    source = f"scene {document.get('scene_id')!r}" if isinstance(document, Mapping) else document
    with reading(source, SceneError):
        if not isinstance(document, Mapping):
            document = json_document(document, SceneError)
        scene_id = document.get("scene_id")
        if not scene_id:
            raise SceneError("missing 'scene_id'")
        if type(scene_id) is not str:
            raise SceneError(f"scene_id must be a string, got {scene_id!r}")

        objects: dict[str, ObjectInstance] = {}
        for entry in document.get("objects", []):
            if type(entry["id"]) is not str:
                raise SceneError(f"object id must be a string, got {entry['id']!r}")
            obj = ObjectInstance(
                id=entry["id"],
                class_name=entry.get("class_name", entry["id"]),
                properties=frozenset(_strings(entry.get("properties", []),
                                              f"object {entry['id']!r}: properties", SceneError)),
            )
            if obj.id == AGENT:
                raise SceneError(f"object id {AGENT!r} is reserved")
            if obj.id in objects:
                raise SceneError(f"duplicate object id {obj.id!r}")
            objects[obj.id] = obj

        predicates: set[StatePredicate] = set()
        for text in document.get("init", []):
            pred = StatePredicate.parse(text)
            for ref in (pred.subject, pred.object):
                if ref is not None and ref != AGENT and ref not in objects:
                    raise SceneError(f"init predicate {text!r} references unknown object {ref!r}")
            predicates.add(pred)

        state = WorldState(frozenset(predicates))
        violations = state.invariant_violations()
        if violations:
            raise SceneError(f"invalid initial state: {'; '.join(violations)}")
    return Scene(scene_id=scene_id, objects=objects, initial_state=state)


# -- command execution -------------------------------------------------------

FAIL_UNKNOWN_ACTION = "unknown_action"
FAIL_UNKNOWN_OBJECT = "unknown_object"
FAIL_ARITY_MISMATCH = "arity_mismatch"
FAIL_MISSING_PROPERTY = "missing_property"
FAIL_PRECONDITION = "precondition_unsatisfied"


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of executing one command: the next state, or a failure reason."""

    ok: bool
    state: WorldState
    reason: str | None = None
    detail: str | None = None


class World:
    """Static execution context: an action catalog bound to a scene's objects.
    ``execute`` resolves each command once, the first time it sees it, into
    ``_resolved``; a later call only checks the state and applies effects."""

    def __init__(self, catalog: ActionCatalog, objects: Mapping[str, ObjectInstance]):
        self.catalog = catalog
        self.objects = dict(objects)
        self._resolved: dict[Command, tuple] = {}

    def _resolve(self, command: Command) -> tuple:
        """``command``'s static failure as ``(reason, detail)``, or its ground
        ``(preconditions, deletes, adds)``, each in catalog order."""
        schema = self.catalog.get(command.action)
        if schema is None:
            return FAIL_UNKNOWN_ACTION, command.action
        if len(command.args) != schema.arity:
            return (FAIL_ARITY_MISMATCH,
                    f"{command.action} expects {schema.arity} argument(s), got {len(command.args)}")
        for arg in command.args:
            if arg not in self.objects:
                return FAIL_UNKNOWN_OBJECT, arg
        for i, required in enumerate(schema.required_properties):
            missing = required - self.objects[command.args[i]].properties
            if missing:
                return FAIL_MISSING_PROPERTY, f"{command.args[i]} lacks {sorted(missing)}"

        binding = {f"?{i + 1}": arg for i, arg in enumerate(command.args)}
        preconditions = []
        for tpl in schema.preconditions:
            args = tpl.substitute(binding)
            # (predicate, an object the agent holding it also satisfies, negated, detail);
            # predicate None is HANDS_FREE.  Held objects travel with the agent.
            preconditions.append((
                None if tpl.predicate == HANDS_FREE else StatePredicate(tpl.predicate, *args),
                args[1] if tpl.predicate == "CLOSE_TO" and args[0] == AGENT else None,
                tpl.negated, f"requires {'not ' if tpl.negated else ''}{tpl.predicate}{args}"))
        deletes = [(tpl.predicate, args) if "*" in args else StatePredicate(tpl.predicate, *args)
                   for tpl in schema.del_effects for args in [tpl.substitute(binding)]]
        adds = [StatePredicate(tpl.predicate, *tpl.substitute(binding))
                for tpl in schema.add_effects]
        return tuple(preconditions), tuple(deletes), tuple(adds)

    def execute(self, state: WorldState, command: Command) -> ExecutionOutcome:
        """Apply ``command`` to ``state``.

        Total over arbitrary commands: unknown actions/objects, arity and
        property mismatches and unsatisfied preconditions come back as
        failures with the input state unchanged.
        """
        resolved = self._resolved.get(command)
        if resolved is None:
            resolved = self._resolved[command] = self._resolve(command)
        if len(resolved) == 2:  # a static failure
            return ExecutionOutcome(False, state, *resolved)
        preconditions, deletes, adds = resolved
        for pred, carried, negated, detail in preconditions:
            if pred is None:
                met = len(state.held) < HAND_CAPACITY
            else:
                met = pred in state.predicates or (carried is not None and carried in state.held)
            if met == negated:
                return ExecutionOutcome(False, state, FAIL_PRECONDITION, detail)

        predicates = set(state.predicates)
        for delete in deletes:
            if type(delete) is tuple:
                name, args = delete
                # Removed in place: rebuilding the set would re-hash every predicate kept.
                predicates.difference_update([
                    p for p in predicates
                    if p.predicate == name
                    and all(a == "*" or a == b for a, b in zip(args, _pred_args(p)))
                ])
            else:
                predicates.discard(delete)
        predicates.update(adds)
        return ExecutionOutcome(True, WorldState(frozenset(predicates)))


def _pred_args(p: StatePredicate) -> tuple[str, ...]:
    return (p.subject,) if p.object is None else (p.subject, p.object)


def state_diff(initial: WorldState, final: WorldState) -> frozenset[StatePredicate]:
    """Predicates present in ``final`` but not in ``initial``."""
    return final.predicates - initial.predicates


def simulate_plan(world: World, initial: WorldState, plan: Plan) -> WorldState:
    """Run every command of ``plan``; raise DatasetError on the first failure."""
    state = initial
    for i, command in enumerate(plan):
        outcome = world.execute(state, command)
        if not outcome.ok:
            raise DatasetError(
                f"goal plan step {i} {command.canonical_form!r} failed: "
                f"{outcome.reason} ({outcome.detail})"
            )
        state = outcome.state
    return state


def derive_goal_conditions(world: World, initial: WorldState, goal_plan: Plan,
                           task_name: str) -> frozenset[StatePredicate]:
    """Simulate the ground-truth plan and take the state diff as the goal conditions."""
    try:
        final = simulate_plan(world, initial, goal_plan)
    except DatasetError as exc:
        raise DatasetError(f"task {task_name!r}: {exc}") from exc
    diff = state_diff(initial, final)
    if not diff:
        raise DatasetError(f"task {task_name!r}: goal plan produces an empty state diff")
    return diff


@dataclass(frozen=True)
class Task:
    """One dataset entry: instruction, scene binding, goal plan, optional goals."""

    task_name: str
    scene_id: str
    goal_plan: Plan
    goal_conditions: frozenset[StatePredicate] | None = None  # None: derived from goal_plan

    def __post_init__(self) -> None:
        for name in ("task_name", "scene_id"):
            if type(getattr(self, name)) is not str:
                raise DatasetError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.goal_conditions is not None and not self.goal_conditions:
            raise DatasetError(f"task {self.task_name!r}: goal_conditions must be non-empty")


def load_tasks(path: str | Path) -> list[Task]:
    """Load the task file: a JSON list of task entries."""
    tasks = []
    for number, doc in enumerate(json_document(path, DatasetError, list)):
        with reading(f"{path} entry {number}", DatasetError):
            commands = tuple(Command.parse(c) for c in doc["goal_plan"])
            if not commands:
                raise DatasetError("goal_plan must be non-empty")
            conditions = doc.get("goal_conditions")
            tasks.append(
                Task(
                    task_name=doc["task_name"],
                    scene_id=doc["scene_id"],
                    goal_plan=commands,
                    goal_conditions=(
                        frozenset(StatePredicate.parse(p) for p in conditions)
                        if conditions is not None else None
                    ),
                )
            )
    return tasks
