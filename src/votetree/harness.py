"""Suite runner: full pipeline over task fixtures, metrics, reports.

One repetition runs every task through generate -> pool -> reorder ->
aggregate -> execute and scores it; repetitions differ only in their derived
seeds.  All randomness is derived from (master_seed, repetition, task, stage),
so reruns of the same config over the same fixtures are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

from . import metrics as metrics_mod
from .errors import ConfigError, DatasetError, ProviderError
from .executor import (
    DEFAULT_STEP_LIMIT,
    NO_CORRECTION,
    TERMINATE_CHILDLESS,
    TERMINATE_END_MARKER,
    WITH_CORRECTION,
    EpisodeResult,
    ExecutionMode,
    ExecutionTrace,
    run_episode,
    serialize_trace,
)
from .plans import Command, ParseDiagnostic, Plan, extract_unique_commands, parse_plan_text
from .prompts import (
    PROG,
    REORDER,
    PromptDocument,
    SamplingConfig,
    default_prog_examples,
    default_reorder_examples,
    format_prog_prompt,
    format_reorder_prompt,
    instruction_slug,
    seen_task_names,
)
from .providers import (
    NoiseModel,
    PlanGenerator,
    RemoteProvider,
    ReplayProvider,
    StoredProvider,
    SyntheticProvider,
    derive_seed,
)
from .tree import MAX_VOTE, RANDOM, SelectionStrategy, VoteTreeNode, build_vote_tree, tree_to_dict
from .world import (
    ActionCatalog,
    GoalSpec,
    Scene,
    Task,
    World,
    derive_goal_conditions,
    load_scene,
    load_tasks,
)

SYNTHETIC = "synthetic"
REPLAY = "replay"
REMOTE = "remote"


@dataclass
class RunConfig:
    """Everything a run needs; serializable, defaulted, reproducible."""

    dataset: str | None = None          # tasks file; None = bundled
    scenes_dir: str | None = None       # scene file directory; None = bundled
    actions: str | None = None          # action catalog; None = bundled
    provider: str = SYNTHETIC
    fixtures_dir: str | None = None     # fixture store: replay source, remote cache, record target
    remote_endpoint: str = ""
    remote_model: str = ""
    remote_api_key_env: str = "VOTETREE_API_KEY"
    remote_timeout: float = 60.0
    remote_retries: int = 3
    prog_temperature: float = 0.1
    prog_num_samples: int = 30
    reorder_temperature: float = 0.65
    reorder_num_samples: int = 20
    max_length: int = 80
    drop_prob: float = 0.0
    swap_prob: float = 0.0
    insert_prob: float = 0.0
    mode: str = "with_correction"
    selection: str = "max_vote"
    termination: str = "childless_success"
    repetitions: int = 10
    master_seed: int | None = None
    step_limit: int = DEFAULT_STEP_LIMIT
    include_seen: bool = False
    output_dir: str | None = "results"
    method_label: str | None = None

    def __post_init__(self) -> None:
        if type(self.repetitions) is not int or self.repetitions < 1:
            raise ConfigError(f"repetitions must be an integer >= 1, got {self.repetitions!r}")
        for name, known in (("provider", (SYNTHETIC, REPLAY, REMOTE)),
                            ("mode", (WITH_CORRECTION, NO_CORRECTION)),
                            ("selection", (MAX_VOTE, RANDOM)),
                            ("termination", (TERMINATE_CHILDLESS, TERMINATE_END_MARKER))):
            if (value := getattr(self, name)) not in known:
                raise ConfigError(f"unknown {name} {value!r}; expected one of {', '.join(known)}")
        if self.provider != SYNTHETIC and not self.fixtures_dir:
            raise ConfigError(f"{self.provider} provider needs fixtures_dir")

    @property
    def label(self) -> str:
        return self.method_label or f"vote-tree ({self.mode}, {self.selection})"

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError(f"run config {path} must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown run config keys: {sorted(unknown)}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DatasetBundle:
    catalog: ActionCatalog
    scenes: dict[str, Scene]
    tasks: list[Task]


def _bundled_path(name: str):
    return resources.files("votetree.data").joinpath(name)


def load_dataset(config: RunConfig | None = None) -> DatasetBundle:
    """Resolve catalog, scenes and tasks from the config or bundled data."""
    config = config or RunConfig()
    if config.actions:
        catalog = ActionCatalog.from_file(config.actions)
    else:
        with _bundled_path("actions.json").open(encoding="utf-8") as fh:
            catalog = ActionCatalog.from_documents(json.load(fh))

    scenes: dict[str, Scene] = {}
    if config.scenes_dir:
        for path in sorted(Path(config.scenes_dir).glob("*.json")):
            scene = load_scene(path)
            scenes[scene.scene_id] = scene
    else:
        scene_root = resources.files("votetree.data").joinpath("scenes")
        for entry in sorted(scene_root.iterdir(), key=lambda e: e.name):
            if entry.name.endswith(".json"):
                scene = load_scene(json.loads(entry.read_text(encoding="utf-8")))
                scenes[scene.scene_id] = scene

    if config.dataset:
        tasks = load_tasks(config.dataset)
    else:
        with resources.as_file(_bundled_path("tasks.json")) as path:
            tasks = load_tasks(path)

    for task in tasks:
        if task.scene_id not in scenes:
            raise DatasetError(f"task {task.task_name!r} references unknown scene {task.scene_id!r}")
    return DatasetBundle(catalog=catalog, scenes=scenes, tasks=tasks)


def evaluated_tasks(bundle: DatasetBundle, include_seen: bool = False) -> list[Task]:
    """The eval split: every task minus the in-context example tasks."""
    if include_seen:
        return list(bundle.tasks)
    seen = seen_task_names()
    return [t for t in bundle.tasks if t.task_name not in seen]


def build_distractors(task: Task, scene: Scene) -> tuple[Command, ...]:
    """Plausible-but-wrong commands for the synthetic noise model.

    Mixes executable detours (find/grab of unrelated objects), property and
    precondition violations, and one hallucinated object.
    """
    used = {a for c in task.goal_plan.commands for a in c.args}
    others = [o for o in sorted(scene.objects) if o not in used]
    pool: list[Command] = [Command("find", (o,)) for o in others[:4]]
    pool += [Command("grab", (o,)) for o in others[:3]]
    if others:
        pool.append(Command("open", (others[0],)))
        pool.append(Command("switchon", (others[0],)))
    pool.append(Command("find", ("doorknob",)))
    return tuple(pool)


def make_provider(config: RunConfig, task: Task, scene: Scene) -> PlanGenerator:
    """The configured generator; a synthetic one records into ``fixtures_dir`` when set."""
    if config.provider == SYNTHETIC:
        noise = NoiseModel(
            drop_prob=config.drop_prob,
            swap_prob=config.swap_prob,
            insert_prob=config.insert_prob,
            distractor_pool=build_distractors(task, scene),
        )
        synthetic = SyntheticProvider(task.goal_plan, noise)
        return StoredProvider(synthetic, config.fixtures_dir) if config.fixtures_dir else synthetic
    if config.provider == REPLAY:
        return ReplayProvider(config.fixtures_dir)
    return RemoteProvider(
        endpoint=config.remote_endpoint,
        model=config.remote_model,
        cache_dir=config.fixtures_dir,
        api_key_env=config.remote_api_key_env,
        timeout=config.remote_timeout,
        retries=config.remote_retries,
    )


class RunMemo:
    """What the episodes of one run share, worked out once per run.

    ``run_suite`` makes one per call over its bundle and drops it when it
    returns, so nothing carries over from one run to the next.  It holds the
    bundled prompt examples, each task's prog prompt and goal conditions, and
    a parse memo keyed by raw plan line.  The parse memo is keyed by line, not
    by whole text: the run's distinct lines are few, while holding the parsed
    commands of every distinct text for a whole run raised peak memory by a
    third.
    """

    def __init__(self, bundle: DatasetBundle):
        self.bundle = bundle
        self.known_actions = frozenset(bundle.catalog.action_names)
        self.prog_examples = default_prog_examples()
        self.reorder_examples = default_reorder_examples()
        self.lines: dict[str, tuple] = {}
        self._prog_prompts: dict[Task, PromptDocument] = {}
        self._goals: dict[Task, GoalSpec] = {}

    def parse(self, text: str, provenance: str,
              sample_index: int) -> tuple[Plan, list[ParseDiagnostic]]:
        return parse_plan_text(text, self.known_actions, provenance, sample_index, self.lines)

    def prog_prompt(self, task: Task) -> PromptDocument:
        prompt = self._prog_prompts.get(task)
        if prompt is None:
            scene = self.bundle.scenes[task.scene_id]
            prompt = self._prog_prompts[task] = format_prog_prompt(
                task.task_name, self.bundle.catalog.action_names, sorted(scene.objects),
                self.prog_examples,
            )
        return prompt

    def goal(self, task: Task) -> GoalSpec:
        goal = self._goals.get(task)
        if goal is None:
            if task.goal_conditions is not None:
                goal = GoalSpec(task.task_name, frozenset(task.goal_conditions), source="explicit")
            else:
                scene = self.bundle.scenes[task.scene_id]
                goal = derive_goal_conditions(World(self.bundle.catalog, scene.objects),
                                              scene.initial_state, task.goal_plan, task.task_name)
            self._goals[task] = goal
        return goal


@dataclass
class PipelineArtifacts:
    """Intermediate products of one task episode, kept for reports."""

    prog_prompt: PromptDocument
    reorder_prompt: PromptDocument
    generated: list[Plan]
    reordered: list[Plan]
    pool_size: int
    root: VoteTreeNode
    diagnostics: list[str] = field(default_factory=list)


def run_task_pipeline(
    task: Task,
    memo: RunMemo,
    provider: PlanGenerator,
    prog_config: SamplingConfig,
    reorder_config: SamplingConfig,
) -> PipelineArtifacts:
    """Sample, pool, reorder and aggregate one task into its vote tree."""
    prog_prompt = memo.prog_prompt(task)
    diagnostics: list[str] = []
    generated: list[Plan] = []
    for k, text in enumerate(provider.generate(prog_prompt, prog_config)):
        plan, diags = memo.parse(text, "generated", k)
        generated.append(plan)
        diagnostics.extend(f"{PROG}[{k}]: {d.code}" for d in diags)

    pool = extract_unique_commands(generated)
    reorder_prompt = format_reorder_prompt(pool, task.task_name, memo.reorder_examples)
    reordered: list[Plan] = []
    for k, text in enumerate(provider.generate(reorder_prompt, reorder_config)):
        plan, diags = memo.parse(text, "reordered", k)
        diagnostics.extend(f"{REORDER}[{k}]: {d.code}" for d in diags)
        if plan.commands:
            reordered.append(plan)
        else:
            diagnostics.append(f"{REORDER}[{k}]: degenerate_sample_dropped")

    root = build_vote_tree(reordered)
    return PipelineArtifacts(
        prog_prompt=prog_prompt,
        reorder_prompt=reorder_prompt,
        generated=generated,
        reordered=reordered,
        pool_size=len(pool),
        root=root,
        diagnostics=diagnostics,
    )


def _episode_mode(config: RunConfig, rep: int, task: Task) -> ExecutionMode:
    selection = SelectionStrategy(
        kind=config.selection,
        rng_seed=derive_seed(config.master_seed, rep, task.task_name, "selection"),
    )
    return ExecutionMode(kind=config.mode, selection=selection, termination=config.termination)


def run_one_episode(
    task: Task,
    bundle: DatasetBundle,
    config: RunConfig,
    rep: int,
    memo: RunMemo | None = None,
) -> tuple[EpisodeResult, PipelineArtifacts]:
    """Run and execute one (repetition, task) episode.

    ``memo`` is the run's shared memo over ``bundle``; without one, the
    episode gets its own.
    """
    if memo is None:
        memo = RunMemo(bundle)
    scene = bundle.scenes[task.scene_id]
    world = World(bundle.catalog, scene.objects)
    goal = memo.goal(task)

    provider = make_provider(config, task, scene)
    prog_config = SamplingConfig(
        config.prog_temperature, config.prog_num_samples, config.max_length,
        seed=derive_seed(config.master_seed, rep, task.task_name, PROG),
    )
    reorder_config = SamplingConfig(
        config.reorder_temperature, config.reorder_num_samples, config.max_length,
        seed=derive_seed(config.master_seed, rep, task.task_name, REORDER),
    )
    try:
        artifacts = run_task_pipeline(task, memo, provider, prog_config, reorder_config)
    except ProviderError as exc:
        raise ProviderError(f"task {task.task_name!r}, repetition {rep}: {exc}") from exc

    mode = _episode_mode(config, rep, task)
    episode = run_episode(
        task.task_name, world, scene.initial_state, goal, artifacts.root, mode,
        config.step_limit,
    )
    return episode, artifacts


@dataclass
class SuiteResult:
    row: metrics_mod.MetricsRow
    per_rep: list[dict]
    episodes: list[dict]
    output_dir: Path | None = None


def run_suite(config: RunConfig, bundle: DatasetBundle | None = None,
              write_outputs: bool = True) -> SuiteResult:
    """Run the full evaluation protocol for one configuration.

    Per repetition: SR over tasks, mean GCR over tasks, mean Exec over tasks;
    then mean +/- std across repetitions.
    """
    if config.master_seed is None:
        raise ConfigError("run config needs a master_seed")
    bundle = bundle or load_dataset(config)
    tasks = evaluated_tasks(bundle, config.include_seen)
    if not tasks:
        raise ConfigError("no tasks to evaluate after applying the seen-task split")

    memo = RunMemo(bundle)
    per_rep: list[dict] = []
    episode_records: list[dict] = []
    episode_files: list[tuple[str, int, dict, dict]] = []
    for rep in range(config.repetitions):
        gcrs: list[float] = []
        execs: list[float] = []
        for task_index, task in enumerate(tasks):
            episode, artifacts = run_one_episode(task, bundle, config, rep, memo)
            gcr = metrics_mod.compute_gcr(episode.achieved, episode.goal.goal_conditions)
            exec_rate = metrics_mod.compute_exec(episode.trace)
            gcrs.append(gcr)
            execs.append(exec_rate)
            episode_records.append(
                {
                    "kind": "episode",
                    "rep": rep,
                    "task_index": task_index,
                    "task": task.task_name,
                    "scene": task.scene_id,
                    "gcr": gcr,
                    "exec": exec_rate,
                    "success": gcr == 1.0,
                    "steps": episode.trace.attempted,
                    "termination": episode.trace.termination,
                    "pool_size": artifacts.pool_size,
                }
            )
            if write_outputs and config.output_dir:
                episode_files.append(
                    (
                        instruction_slug(task.task_name),
                        rep,
                        {
                            "task": task.task_name,
                            "termination": episode.trace.termination,
                            "gcr": gcr,
                            "exec": exec_rate,
                            "goal_conditions": sorted(p.render() for p in episode.goal.goal_conditions),
                            "achieved": sorted(p.render() for p in episode.achieved),
                            "steps": serialize_trace(episode.trace),
                        },
                        tree_to_dict(artifacts.root),
                    )
                )
        per_rep.append(
            {
                "kind": "repetition",
                "rep": rep,
                "sr": metrics_mod.compute_sr(gcrs),
                "gcr": sum(gcrs) / len(gcrs),
                "exec": sum(execs) / len(execs),
            }
        )

    per_task: dict[str, float] = {}
    for record in episode_records:
        per_task.setdefault(record["task"], 0.0)
        per_task[record["task"]] += record["gcr"] / config.repetitions
    row = metrics_mod.aggregate(config.label, per_rep, per_task)

    output_dir = None
    if write_outputs and config.output_dir:
        output_dir = Path(config.output_dir)
        _write_outputs(output_dir, config, row, per_rep, episode_records, episode_files)
    return SuiteResult(row=row, per_rep=per_rep, episodes=episode_records, output_dir=output_dir)


def _write_outputs(
    output_dir: Path,
    config: RunConfig,
    row: metrics_mod.MetricsRow,
    per_rep: list[dict],
    episode_records: list[dict],
    episode_files: list[tuple[str, int, dict, dict]],
) -> None:
    output_dir.mkdir(parents=True, exist_ok=True)
    (output_dir / "summary.txt").write_text(metrics_mod.format_table([row]), encoding="utf-8")
    with open(output_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
        header = {"kind": "run", "method": config.label, "repetitions": config.repetitions,
                  "master_seed": config.master_seed}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for record in episode_records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        for record in per_rep:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    (output_dir / "run_config.json").write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for slug, rep, trace_doc, tree_doc in episode_files:
        episode_dir = output_dir / "episodes" / slug / str(rep)
        episode_dir.mkdir(parents=True, exist_ok=True)
        (episode_dir / "trace.json").write_text(
            json.dumps(trace_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        (episode_dir / "tree.json").write_text(
            json.dumps(tree_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def recompute_metrics(results_dir: str | Path) -> metrics_mod.MetricsRow:
    """Rebuild the summary row from persisted per-episode records."""
    path = Path(results_dir) / "metrics.jsonl"
    method = "unknown"
    episodes: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("kind") == "run":
                method = record["method"]
            elif record.get("kind") == "episode":
                episodes.append(record)
    if not episodes:
        raise DatasetError(f"no episode records in {path}")
    by_rep: dict[int, list[dict]] = {}
    for record in episodes:
        by_rep.setdefault(record["rep"], []).append(record)
    per_rep = []
    for rep in sorted(by_rep):
        records = sorted(by_rep[rep], key=lambda r: r["task_index"])
        gcrs = [r["gcr"] for r in records]
        execs = [r["exec"] for r in records]
        per_rep.append(
            {
                "rep": rep,
                "sr": metrics_mod.compute_sr(gcrs),
                "gcr": sum(gcrs) / len(gcrs),
                "exec": sum(execs) / len(execs),
            }
        )
    return metrics_mod.aggregate(method, per_rep)


def record_suite(config: RunConfig, bundle: DatasetBundle | None = None) -> SuiteResult:
    """Run the suite without writing artifacts, filling the fixture store at
    ``config.fixtures_dir`` with every sample of every repetition and stage."""
    if not config.fixtures_dir:
        raise ConfigError("record needs fixtures_dir")
    return run_suite(config, bundle, write_outputs=False)


# -- qualitative plan comparison ----------------------------------------------

SHARED = "shared-necessary"
REDUNDANT = "redundant"
ERRONEOUS = "erroneous"
UNIQUE = "unique"


@dataclass(frozen=True)
class DiffEntry:
    label: str
    index: int
    command: str
    status: str


@dataclass(frozen=True)
class DiffReport:
    labels: tuple[str, str]
    entries: tuple[tuple[DiffEntry, ...], tuple[DiffEntry, ...]]
    lengths: tuple[int, int]
    duplicate_counts: tuple[int, int]

    def flagged(self, side: int, status: str) -> list[DiffEntry]:
        return [e for e in self.entries[side] if e.status == status]

    @property
    def shorter_side(self) -> int | None:
        if self.lengths[0] == self.lengths[1]:
            return None
        return 0 if self.lengths[0] < self.lengths[1] else 1

    def render(self) -> str:
        lines = []
        for side in (0, 1):
            lines.append(f"{self.labels[side]} ({self.lengths[side]} commands, "
                         f"{self.duplicate_counts[side]} duplicates)")
            for e in self.entries[side]:
                lines.append(f"  {e.index:2d}. {e.command:40s} [{e.status}]")
            lines.append("")
        if self.shorter_side is not None:
            lines.append(
                f"{self.labels[self.shorter_side]} is strictly shorter "
                f"({min(self.lengths)} vs {max(self.lengths)} commands)."
            )
        else:
            lines.append("both traces have the same length.")
        return "\n".join(lines) + "\n"


def _classify_side(trace: ExecutionTrace, other: ExecutionTrace, label: str) -> tuple[list[DiffEntry], int]:
    other_commands = {s.command.canonical_form for s in other.steps}
    seen: set[str] = set()
    duplicates = 0
    statuses: list[str] = []
    commands = [s.command for s in trace.steps]
    for i, step in enumerate(trace.steps):
        key = step.command.canonical_form
        if not step.ok:
            status = ERRONEOUS
        elif key in seen:
            status = REDUNDANT
            duplicates += 1
        else:
            status = SHARED if key in other_commands else UNIQUE
        seen.add(key)
        statuses.append(status)
    # An open(x) immediately followed by close(x) is a no-op pair.
    for i in range(len(commands) - 1):
        a, b = commands[i], commands[i + 1]
        if (a.action, b.action) == ("open", "close") and a.args == b.args:
            for j in (i, i + 1):
                if statuses[j] != ERRONEOUS:
                    statuses[j] = REDUNDANT
    entries = [
        DiffEntry(label, i, c.canonical_form, s)
        for i, (c, s) in enumerate(zip(commands, statuses))
    ]
    return entries, duplicates


def plan_diff_report(
    trace_a: ExecutionTrace,
    trace_b: ExecutionTrace,
    labels: tuple[str, str] = ("a", "b"),
) -> DiffReport:
    """Side-by-side classification of two traces over the same task."""
    entries_a, dup_a = _classify_side(trace_a, trace_b, labels[0])
    entries_b, dup_b = _classify_side(trace_b, trace_a, labels[1])
    return DiffReport(
        labels=labels,
        entries=(tuple(entries_a), tuple(entries_b)),
        lengths=(trace_a.attempted, trace_b.attempted),
        duplicate_counts=(dup_a, dup_b),
    )
