"""Symbolic household environment.

A scene is a set of objects with boolean properties plus a set of state
predicates (object states and inter-object relations).  Actions are declared
in a data catalog as precondition/effect schemas over the parameters ``?1``
and ``?2``; a world state is a frozenset of predicates, and executing a
command applies the matching schema to it and returns a new state, or a
structured failure that leaves the input state untouched.

The agent is implicit: the reserved token ``agent`` may appear in predicates
(e.g. ``CLOSE_TO(agent, fridge)``) but is not an object of the scene.  Held
objects travel with the agent, so a ``CLOSE_TO(agent, x)`` precondition is
also satisfied whenever ``x`` is currently held.
"""

import re
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import (JSON_OBJECT, LIST, STRING, STRINGS, CatalogError, DatasetError, SceneError,
                     check_value, checked, json_document, reading)
from .plans import Command, Plan
from .prompts import DATA_DIR, instruction_slug

if TYPE_CHECKING:  # only annotated: loading a dataset does not import the run machinery
    from .harness import RunConfig

AGENT = "agent"
HAND_CAPACITY = 2

UNARY_PREDICATES = frozenset(
    {"OPEN", "CLOSED", "ON", "OFF", "CLEAN", "DIRTY", "HELD_BY_AGENT"}
)
BINARY_PREDICATES = frozenset({"INSIDE", "ON_TOP", "CLOSE_TO", "FACING"})

# Mutually exclusive unary state pairs; no object may hold both at once.
EXCLUSIVE_PAIRS = (("OPEN", "CLOSED"), ("ON", "OFF"), ("CLEAN", "DIRTY"))

# Pseudo-predicate allowed only in precondition templates, as HANDS_FREE(agent):
# true while the agent has a free hand.  It never appears in a world state.
HANDS_FREE = "HANDS_FREE"

_PRED_RE = re.compile(r"^\s*([A-Z_]+)\s*\(\s*([^(),\s]+)\s*(?:,\s*([^(),\s]+)\s*)?\)\s*$")
_TOKEN_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_TOKEN = (lambda v: type(v) is str and _TOKEN_RE.fullmatch(v), "a lowercase token")


@checked
class StatePredicate(NamedTuple):
    """A unary object state (``OPEN(fridge)``) or binary relation (``INSIDE(a, b)``)."""

    predicate: str
    subject: str
    object: str | None = None

    def _check(self) -> None:
        if self.predicate in UNARY_PREDICATES:
            if self.object is not None:
                raise ValueError(f"{self.predicate} is unary, got second object {self.object!r}")
        elif self.predicate in BINARY_PREDICATES:
            if self.object is None:
                raise ValueError(f"{self.predicate} is binary and needs a second object")
        else:
            valid = sorted(UNARY_PREDICATES | BINARY_PREDICATES)
            raise ValueError(f"unknown predicate token {self.predicate!r}; expected one of {valid}")

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


# The environment at one instant: the predicates that hold.  What the agent
# holds is derived from it (``held``), so the set is the single source of truth.
WorldState = frozenset[StatePredicate]


def held(state: WorldState) -> frozenset[str]:
    return frozenset(p.subject for p in state if p.predicate == "HELD_BY_AGENT")


def invariant_violations(state: WorldState) -> list[str]:
    """Return human-readable invariant violations (empty when valid)."""
    errs: list[str] = []
    by_subject: dict[str, set[str]] = {}
    for p in state:
        if p.object is None:
            by_subject.setdefault(p.subject, set()).add(p.predicate)
    for subj, preds in sorted(by_subject.items()):
        for a, b in EXCLUSIVE_PAIRS:
            if a in preds and b in preds:
                errs.append(f"{subj} holds both {a} and {b}")
    if len(held(state)) > HAND_CAPACITY:
        errs.append(f"agent holds {len(held(state))} objects, capacity is {HAND_CAPACITY}")
    return errs


class _Template(NamedTuple):
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


class ActionSchema(NamedTuple):
    """Declares one action: arity, property gates, preconditions and effects."""

    name: str
    arity: int
    required_properties: tuple[frozenset[str], ...]
    preconditions: tuple[_Template, ...]
    add_effects: tuple[_Template, ...]
    del_effects: tuple[_Template, ...]


# The full action vocabulary: each action's schema by name.
ActionCatalog = dict[str, ActionSchema]


def load_catalog(path: str | Path) -> ActionCatalog:
    """Load the action catalog: a JSON list of action schemas."""
    catalog: ActionCatalog = {}
    for number, doc in enumerate(json_document(path, CatalogError, LIST)):
        with reading(f"{path} entry {number}", CatalogError):
            check_value("an action schema", doc, JSON_OBJECT, CatalogError)
            name = check_value("name", doc["name"], _TOKEN, CatalogError)
            arity = check_value(f"action {name!r}: arity", doc["arity"],
                                (lambda v: type(v) is int and v in (1, 2), "1 or 2"), CatalogError)
            req = check_value(f"action {name!r}: required_properties",
                              doc.get("required_properties", []), LIST, CatalogError)
            if len(req) > arity:
                raise CatalogError(f"action {name!r}: more property lists than parameters")
            req_padded = tuple(
                frozenset(check_value(f"action {name!r}: required_properties[{i}]", req[i],
                                      STRINGS, CatalogError)) if i < len(req) else frozenset()
                for i in range(arity)
            )
            preconditions, adds, dels = (
                tuple(_parse_template(t, arity, section)
                      for t in check_value(f"action {name!r}: {section}", doc.get(section, []),
                                           STRINGS, CatalogError))
                for section in ("preconditions", "add", "del"))
        if name in catalog:
            raise CatalogError(f"{path}: duplicate action schema {name!r}")
        catalog[name] = ActionSchema(name, arity, req_padded, preconditions, adds, dels)
    return catalog


class Scene(NamedTuple):
    """A loaded scene: each object's property flags by id, plus the initial world state."""

    scene_id: str
    objects: Mapping[str, frozenset[str]]
    initial_state: WorldState


def load_scene(document: Mapping | str | Path) -> Scene:
    """Load and validate a scene document, given as a dict or a JSON file path.

    Raises SceneError naming the file (for a dict, the scene) on malformed
    input (a ``scene_id`` that is not a string, ``objects`` that is not a
    list of JSON objects, an object id or ``class_name`` that is not a
    lowercase token), duplicate ids or predicate references to unknown
    objects.  An object's ``class_name`` is checked but not kept.
    """
    source = f"scene {document.get('scene_id')!r}" if isinstance(document, Mapping) else document
    with reading(source, SceneError):
        if not isinstance(document, Mapping):
            document = json_document(document, SceneError)
        scene_id = document.get("scene_id")
        if not scene_id:
            raise SceneError("missing 'scene_id'")
        check_value("scene_id", scene_id, STRING, SceneError)

        objects: dict[str, frozenset[str]] = {}
        entries = check_value("objects", document.get("objects", []),
                              (LIST[0], "a list of JSON objects"), SceneError)
        for number, entry in enumerate(entries):
            check_value(f"objects entry {number}", entry, JSON_OBJECT, SceneError)
            oid = check_value("object id", entry["id"], _TOKEN, SceneError)
            properties = frozenset(check_value(f"object {oid!r}: properties",
                                               entry.get("properties", []), STRINGS, SceneError))
            check_value(f"object {oid!r}: class_name", entry.get("class_name", oid),
                        (_TOKEN[0], "a non-empty lowercase token"), SceneError)
            if oid == AGENT:
                raise SceneError(f"object id {AGENT!r} is reserved")
            if oid in objects:
                raise SceneError(f"duplicate object id {oid!r}")
            objects[oid] = properties

        predicates: set[StatePredicate] = set()
        for text in check_value("init", document.get("init", []), STRINGS, SceneError):
            pred = StatePredicate.parse(text)
            for ref in (pred.subject, pred.object):
                if ref is not None and ref != AGENT and ref not in objects:
                    raise SceneError(f"init predicate {text!r} references unknown object {ref!r}")
            predicates.add(pred)

        state = frozenset(predicates)
        violations = invariant_violations(state)
        if violations:
            raise SceneError(f"invalid initial state: {'; '.join(violations)}")
    return Scene(scene_id=scene_id, objects=objects, initial_state=state)


# -- command execution -------------------------------------------------------

FAIL_UNKNOWN_ACTION = "unknown_action"
FAIL_UNKNOWN_OBJECT = "unknown_object"
FAIL_ARITY_MISMATCH = "arity_mismatch"
FAIL_MISSING_PROPERTY = "missing_property"
FAIL_PRECONDITION = "precondition_unsatisfied"


class ExecutionOutcome(NamedTuple):
    """Result of executing one command: the next state, or a failure reason."""

    ok: bool
    state: WorldState
    reason: str | None = None
    detail: str | None = None


class World:
    """Static execution context: an action catalog bound to a scene's objects.
    ``execute`` resolves each command once, the first time it sees it, into
    ``_resolved``; a later call only checks the state and applies effects."""

    def __init__(self, catalog: ActionCatalog, objects: Mapping[str, frozenset[str]]):
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
            missing = required - self.objects[command.args[i]]
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
                met = len(held(state)) < HAND_CAPACITY
            else:
                met = pred in state or (carried is not None and carried in held(state))
            if met == negated:
                return ExecutionOutcome(False, state, FAIL_PRECONDITION, detail)

        predicates = set(state)
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
        return ExecutionOutcome(True, frozenset(predicates))


def _pred_args(p: StatePredicate) -> tuple[str, ...]:
    return (p.subject,) if p.object is None else (p.subject, p.object)


def state_diff(initial: WorldState, final: WorldState) -> frozenset[StatePredicate]:
    """Predicates present in ``final`` but not in ``initial``."""
    return final - initial


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


@checked
class Task(NamedTuple):
    """One dataset entry: instruction, scene binding, goal plan, optional goals."""

    task_name: str
    scene_id: str
    goal_plan: Plan
    goal_conditions: frozenset[StatePredicate] | None = None  # None: derived from goal_plan

    def _check(self) -> None:
        for name in ("task_name", "scene_id"):
            check_value(name, getattr(self, name), STRING, DatasetError)
        if self.goal_conditions is not None and not self.goal_conditions:
            raise DatasetError(f"task {self.task_name!r}: goal_conditions must be non-empty")


def load_tasks(path: str | Path) -> list[Task]:
    """Load the task file: a JSON list of task entries."""
    tasks = []
    for number, doc in enumerate(json_document(path, DatasetError, LIST)):
        with reading(f"{path} entry {number}", DatasetError):
            check_value("a task", doc, JSON_OBJECT, DatasetError)
            commands = tuple(map(Command.parse,
                                 check_value("goal_plan", doc["goal_plan"], STRINGS, DatasetError)))
            if not commands:
                raise DatasetError("goal_plan must be non-empty")
            conditions = doc.get("goal_conditions")
            tasks.append(
                Task(
                    task_name=doc["task_name"],
                    scene_id=doc["scene_id"],
                    goal_plan=commands,
                    goal_conditions=(
                        frozenset(StatePredicate.parse(p) for p in
                                  check_value("goal_conditions", conditions, STRINGS, DatasetError))
                        if conditions is not None else None
                    ),
                )
            )
    return tasks


class DatasetBundle(NamedTuple):
    catalog: ActionCatalog
    scenes: dict[str, Scene]
    tasks: list[Task]


def load_dataset(config: "RunConfig | None" = None) -> DatasetBundle:
    """Load the config's catalog, scenes and tasks; an unset path (or no config)
    names the bundled one under ``prompts.DATA_DIR``.  Scenes load in file name order."""
    actions, scenes_dir, tasks_path = (
        (config.actions, config.scenes_dir, config.dataset) if config else (None, None, None))
    catalog = load_catalog(actions or DATA_DIR / "actions.json")
    scenes_dir = Path(scenes_dir or DATA_DIR / "scenes")
    scenes: dict[str, Scene] = {}
    files: dict[str, Path] = {}
    for path in sorted(scenes_dir.glob("*.json")):
        scene = load_scene(path)
        first = files.setdefault(scene.scene_id, path)
        if first != path:
            raise DatasetError(f"{first}, {path}: both define scene {scene.scene_id!r}")
        scenes[scene.scene_id] = scene
    if not scenes:
        raise DatasetError(f"{scenes_dir}: no *.json scene files")
    tasks_path = tasks_path or DATA_DIR / "tasks.json"
    tasks = load_tasks(tasks_path)
    slugs: dict[str, Task] = {}  # a task's slug names its episode directory
    for task in tasks:
        if task.scene_id not in scenes:
            raise DatasetError(f"{tasks_path}: task {task.task_name!r} references unknown scene "
                               f"{task.scene_id!r}")
        taken = slugs.setdefault(slug := instruction_slug(task.task_name), task)
        if taken is not task:
            raise DatasetError(f"{tasks_path}: tasks {taken.task_name!r} and {task.task_name!r} "
                               f"share the slug {slug!r}")
    return DatasetBundle(catalog=catalog, scenes=scenes, tasks=tasks)
