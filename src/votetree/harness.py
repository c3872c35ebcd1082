"""Suite runner: full pipeline over task fixtures, metrics, reports.

One repetition runs every task through generate -> pool -> reorder ->
aggregate -> execute and scores it; repetitions differ only in their derived
seeds.  All randomness is derived from (master_seed, repetition, task, stage),
so reruns of the same config over the same fixtures are byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import metrics as metrics_mod
from .errors import (
    ConfigError,
    DatasetError,
    EmptyCommandPoolError,
    NoPlansError,
    ProviderError,
    check_choice,
    json_document,
    read_text,
    reading,
)
from .executor import (
    DEFAULT_STEP_LIMIT,
    NO_PLAN,
    TERMINATE_CHILDLESS,
    WITH_CORRECTION,
    EpisodeResult,
    ExecutionMode,
    ExecutionTrace,
    run_episode,
    serialize_trace,
)
from .plans import Command, ParseDiagnostic, Plan, extract_unique_commands, parse_plan_text
from .prompts import (
    DATA_DIR,
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
    atomic_write,
    derive_seed,
)
from .tree import MAX_VOTE, SelectionStrategy, VoteTreeNode, build_vote_tree, tree_to_dict
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

MAX_INFLIGHT = 16
"""Most episodes a remote run keeps in flight.  Each sends one request at a
time, so this also bounds the run's requests in flight."""


# (fields, check, what the check expects) for the RunConfig fields no library type
# checks under the same name; NoiseModel and ExecutionMode check noise and policies.
_FIELD_CHECKS = (
    (("repetitions", "prog_num_samples", "reorder_num_samples", "max_length", "step_limit",
      "remote_retries"), lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    (("master_seed",), lambda v: v is None or type(v) is int, "an integer or null"),
    (("prog_temperature", "reorder_temperature"), lambda v: type(v) in (int, float) and v >= 0,
     "a number >= 0"),
    (("remote_timeout",), lambda v: type(v) in (int, float) and v > 0, "a number > 0"),
)


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
    mode: str = WITH_CORRECTION
    selection: str = MAX_VOTE
    termination: str = TERMINATE_CHILDLESS
    repetitions: int = 10
    master_seed: int | None = None
    step_limit: int = DEFAULT_STEP_LIMIT
    include_seen: bool = False
    output_dir: str | None = "results"
    method_label: str | None = None

    def __post_init__(self) -> None:
        for names, valid, expected in _FIELD_CHECKS:
            for name in names:
                if not valid(value := getattr(self, name)):
                    raise ConfigError(f"{name} must be {expected}, got {value!r}")
        check_choice("provider", self.provider, (SYNTHETIC, REPLAY, REMOTE))
        NoiseModel(self.drop_prob, self.swap_prob, self.insert_prob)
        ExecutionMode(self.mode, SelectionStrategy(self.selection), self.termination)
        if self.provider != SYNTHETIC and not self.fixtures_dir:
            raise ConfigError(f"{self.provider} provider needs fixtures_dir")

    @property
    def label(self) -> str:
        return self.method_label or f"vote-tree ({self.mode}, {self.selection})"

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with reading(path, ConfigError):
            doc = json_document(path, ConfigError)
            unknown = set(doc) - {f.name for f in fields(cls)}
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


def load_dataset(config: RunConfig | None = None) -> DatasetBundle:
    """Load the config's catalog, scenes and tasks; an unset path names the
    bundled one under ``prompts.DATA_DIR``.  Scenes load in file name order."""
    config = config or RunConfig()
    catalog = ActionCatalog.from_file(config.actions or DATA_DIR / "actions.json")
    scenes_dir = Path(config.scenes_dir or DATA_DIR / "scenes")
    scenes: dict[str, Scene] = {}
    for path in sorted(scenes_dir.glob("*.json")):
        scene = load_scene(path)
        scenes[scene.scene_id] = scene
    if not scenes:
        raise DatasetError(f"{scenes_dir}: no *.json scene files")
    tasks = load_tasks(config.dataset or DATA_DIR / "tasks.json")
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

    ``run_suite`` makes one per call over its bundle and tasks and drops it
    when it returns, so nothing carries over from one run to the next.  It
    holds the bundled prompt examples, each task's prog prompt and goal
    conditions, and a parse memo keyed by raw plan line.  The parse memo is
    keyed by line, not by whole text: the run's distinct lines are few, while
    holding the parsed commands of every distinct text for a whole run raised
    peak memory by a third.  A remote run's episode threads share one memo:
    the prompts and goals are built here, before any thread starts, and a
    parse memo entry depends only on its line, so a racing write stores the
    same value.
    """

    def __init__(self, bundle: DatasetBundle, tasks: list[Task]):
        self.known_actions = frozenset(bundle.catalog.action_names)
        self.prog_examples = default_prog_examples()
        self.reorder_examples = default_reorder_examples()
        self.lines: dict[str, tuple] = {}
        self.prog_prompts: dict[Task, PromptDocument] = {}
        self.goals: dict[Task, GoalSpec] = {}
        for task in tasks:
            scene = bundle.scenes[task.scene_id]
            self.prog_prompts[task] = format_prog_prompt(
                task.task_name, bundle.catalog.action_names, sorted(scene.objects),
                self.prog_examples,
            )
            if task.goal_conditions is not None:
                goal = GoalSpec(task.task_name, frozenset(task.goal_conditions), source="explicit")
            else:
                goal = derive_goal_conditions(World(bundle.catalog, scene.objects),
                                              scene.initial_state, task.goal_plan, task.task_name)
            self.goals[task] = goal

    def parse(self, text: str, provenance: str,
              sample_index: int) -> tuple[Plan, list[ParseDiagnostic]]:
        return parse_plan_text(text, self.known_actions, provenance, sample_index, self.lines)


@dataclass
class PipelineArtifacts:
    """What one task episode's pipeline produced besides its trace.

    ``error`` says why there is no plan to execute (an empty command pool, or
    no usable reorder sample); ``root`` is then an empty tree.
    """

    reordered: list[Plan]
    pool_size: int
    root: VoteTreeNode
    diagnostics: list[str] = field(default_factory=list)
    error: str | None = None


def run_task_pipeline(
    task: Task,
    memo: RunMemo,
    provider: PlanGenerator,
    prog_config: SamplingConfig,
    reorder_config: SamplingConfig,
) -> PipelineArtifacts:
    """Sample, pool, reorder and aggregate one task into its vote tree.

    An empty command pool skips the reorder stage; it and a reorder stage
    whose samples all parse empty leave an empty tree and the error.
    """
    prog_prompt = memo.prog_prompts[task]
    diagnostics: list[str] = []
    generated: list[Plan] = []
    for k, text in enumerate(provider.generate(prog_prompt, prog_config)):
        plan, diags = memo.parse(text, "generated", k)
        generated.append(plan)
        diagnostics.extend(f"{PROG}[{k}]: {d.code}" for d in diags)

    pool: list[Command] = []
    reordered: list[Plan] = []
    error = None
    try:
        pool = extract_unique_commands(generated)
        reorder_prompt = format_reorder_prompt(pool, task.task_name, memo.reorder_examples)
        for k, text in enumerate(provider.generate(reorder_prompt, reorder_config)):
            plan, diags = memo.parse(text, "reordered", k)
            diagnostics.extend(f"{REORDER}[{k}]: {d.code}" for d in diags)
            if plan.commands:
                reordered.append(plan)
            else:
                diagnostics.append(f"{REORDER}[{k}]: degenerate_sample_dropped")
        root = build_vote_tree(reordered)
    except (EmptyCommandPoolError, NoPlansError) as exc:
        root, error = VoteTreeNode(), str(exc)
    return PipelineArtifacts(
        reordered=reordered,
        pool_size=len(pool),
        root=root,
        diagnostics=diagnostics,
        error=error,
    )


def run_one_episode(
    task: Task,
    bundle: DatasetBundle,
    config: RunConfig,
    rep: int,
    memo: RunMemo | None = None,
) -> tuple[EpisodeResult, PipelineArtifacts]:
    """Run and execute one (repetition, task) episode.

    ``memo`` is the run's shared memo over ``bundle``; without one, the
    episode gets its own.  An episode with no plan to execute attempts
    nothing and ends with termination ``no_plan``.
    """
    if memo is None:
        memo = RunMemo(bundle, [task])
    scene = bundle.scenes[task.scene_id]
    world = World(bundle.catalog, scene.objects)
    goal = memo.goals[task]

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

    if artifacts.error is not None:
        trace = ExecutionTrace((), scene.initial_state, NO_PLAN)
        return EpisodeResult(task.task_name, trace, goal, frozenset()), artifacts
    selection = SelectionStrategy(
        kind=config.selection,
        rng_seed=derive_seed(config.master_seed, rep, task.task_name, "selection"),
    )
    mode = ExecutionMode(kind=config.mode, selection=selection, termination=config.termination)
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


def _episodes(config: RunConfig, bundle: DatasetBundle, memo: RunMemo,
              jobs: list[tuple[int, int, Task]]):
    """Yield each (rep, task index, task) job of ``jobs`` with its
    ``run_one_episode`` result, in order.

    A remote run keeps up to ``MAX_INFLIGHT`` episodes in flight in worker
    threads, starting the next one as the oldest result is taken.  Once an
    episode has failed no further episode starts; those running finish and
    keep their samples in the store, and the error of the earliest failing
    episode in run order is raised.  Every other provider is CPU-bound, so its
    episodes run inline: threads would only contend for the interpreter lock.
    """
    if config.provider != REMOTE:
        for job in jobs:
            rep, _, task = job
            yield job, run_one_episode(task, bundle, config, rep, memo)
        return
    window: deque[tuple[tuple[int, int, Task], Future]] = deque()
    with ThreadPoolExecutor(max_workers=MAX_INFLIGHT) as pool:
        try:
            for job in jobs:
                if any(future.done() and future.exception() is not None for _, future in window):
                    break
                rep, _, task = job
                window.append((job, pool.submit(run_one_episode, task, bundle, config, rep, memo)))
                if len(window) == MAX_INFLIGHT:
                    oldest, future = window.popleft()
                    yield oldest, future.result()
            while window:
                oldest, future = window.popleft()
                yield oldest, future.result()
        finally:
            for _, future in window:
                future.cancel()


def _write_episode_files(conn, parent_end, staging: str) -> None:
    """The episode writer process: for each ``(slug, rep, trace, tree)`` read
    from ``conn``, write ``<staging>/<slug>/<rep>/{trace,tree}.json``.  At the
    ``None`` end marker, reply with the first error met as ``(errno,
    message, path relative to staging)``, or ``None``.  After an error it
    writes nothing more but keeps reading, so the parent never blocks on a
    full pipe."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    parent_end.close()  # so that a parent that dies ends the reading with EOFError
    error = None
    try:
        while (item := conn.recv()) is not None:
            if error is not None:
                continue
            slug, rep, *docs = item
            episode_dir = os.path.join(staging, slug, str(rep))
            try:
                os.makedirs(episode_dir, exist_ok=True)
                for name, doc in zip(("trace.json", "tree.json"), docs):
                    with open(os.path.join(episode_dir, name), "w", encoding="utf-8") as fh:
                        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            except OSError as exc:
                error = (exc.errno, exc.strerror or str(exc),
                         os.path.relpath(exc.filename or episode_dir, staging))
    except EOFError:  # the parent is gone
        return
    conn.send(error)


class _EpisodeWriter:
    """Writes a run's episode files in a forked child process while the
    episodes run, into a staging directory ``<output_dir>/.episodes-XXXX``
    that ``commit`` renames to ``<output_dir>/episodes``; ``abort`` kills the
    child and removes the staging directory.

    Making directories and files, not encoding JSON, is most of the cost of
    the episode files.  A process, not a thread: a writer thread contends with the
    episodes for the interpreter lock, and one measured on suite-clean-artifacts
    ran about 36% fewer episodes/s (2 cores).  Fork, not spawn: the child starts
    from the loaded interpreter without importing anything.  A fork must come
    before any thread starts, which ``run_suite`` ensures.
    """

    def __init__(self, output_dir: Path):
        import multiprocessing  # here: a run that writes no files does not pay for the import

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            raise ConfigError("writing outputs needs the 'fork' start method, which this "
                              "platform lacks; a run with output_dir null writes no files") from None
        output_dir.mkdir(parents=True, exist_ok=True)
        self.episodes_dir = output_dir / "episodes"
        # Not tempfile.mkdtemp: its 0o700 would become the mode of episodes/.
        self.staging = str(output_dir / f".episodes-{os.urandom(6).hex()}")
        os.mkdir(self.staging)
        try:
            self._conn, child_end = context.Pipe()
            self._child = context.Process(target=_write_episode_files,
                                          args=(child_end, self._conn, self.staging), daemon=True)
            self._child.start()
            child_end.close()
        except BaseException:
            shutil.rmtree(self.staging, ignore_errors=True)
            raise

    def _died(self) -> OSError:
        self._child.join()
        return OSError(f"{self.episodes_dir}: the episode writer died "
                       f"(exit code {self._child.exitcode})")

    def send(self, slug: str, rep: int, trace_doc: dict, tree_doc: dict) -> None:
        try:
            self._conn.send((slug, rep, trace_doc, tree_doc))
        except OSError:  # a broken pipe: the child died
            raise self._died() from None

    def commit(self) -> None:
        """Wait for the child's reply, then rename the staging directory to
        ``episodes/``, which replaces the last run's episodes."""
        try:
            self._conn.send(None)
            error = self._conn.recv()
        except (OSError, EOFError):  # the child died
            raise self._died() from None
        self._child.join()
        self._conn.close()
        if error is not None:
            number, message, path = error
            raise OSError(number, message, str(self.episodes_dir / path))
        if self.episodes_dir.exists():
            shutil.rmtree(self.episodes_dir)
        os.rename(self.staging, self.episodes_dir)

    def abort(self) -> None:
        self._child.kill()
        self._child.join()
        self._conn.close()
        shutil.rmtree(self.staging, ignore_errors=True)


def run_suite(config: RunConfig, bundle: DatasetBundle | None = None,
              write_outputs: bool = True) -> SuiteResult:
    """Run the full evaluation protocol for one configuration.

    Every task runs once per repetition, and ``metrics.score`` scores the
    episode records.  Records are kept in run order, also when a remote run
    draws the episodes concurrently.  When the run writes outputs, an
    ``_EpisodeWriter`` is started before the first episode, so an unusable
    ``output_dir`` fails before any work; if the run fails or is
    interrupted, the files of an earlier run there stay as they were.
    """
    if config.master_seed is None:
        raise ConfigError("run config needs a master_seed")
    bundle = bundle or load_dataset(config)
    tasks = evaluated_tasks(bundle, config.include_seen)
    if not tasks:
        raise ConfigError("no tasks to evaluate after applying the seen-task split")

    memo = RunMemo(bundle, tasks)
    jobs = [(rep, task_index, task) for rep in range(config.repetitions)
            for task_index, task in enumerate(tasks)]
    output_dir = Path(config.output_dir) if write_outputs and config.output_dir else None
    writer = _EpisodeWriter(output_dir) if output_dir else None  # forks before any thread
    episode_records: list[dict] = []
    try:
        for (rep, task_index, task), (episode, artifacts) in _episodes(config, bundle, memo, jobs):
            gcr = metrics_mod.compute_gcr(episode.achieved, episode.goal.goal_conditions)
            # A no-plan episode scores Exec 0 without compute_exec's empty-trace warning.
            exec_rate = (0.0 if artifacts.error is not None
                         else metrics_mod.compute_exec(episode.trace))
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
            if writer is not None:
                trace_doc = {
                    "task": task.task_name,
                    "termination": episode.trace.termination,
                    "gcr": gcr,
                    "exec": exec_rate,
                    "goal_conditions": sorted(p.render() for p in episode.goal.goal_conditions),
                    "achieved": sorted(p.render() for p in episode.achieved),
                    "steps": serialize_trace(episode.trace),
                }
                if artifacts.error is not None:
                    trace_doc["error"] = artifacts.error
                writer.send(instruction_slug(task.task_name), rep, trace_doc,
                            tree_to_dict(artifacts.root))

        row, per_rep = metrics_mod.score(config.label, episode_records)
        if writer is not None:
            _write_outputs(output_dir, config, row, per_rep, episode_records, writer)
    except BaseException:
        if writer is not None:
            writer.abort()
        raise
    return SuiteResult(row=row, per_rep=per_rep, episodes=episode_records, output_dir=output_dir)


def _write_outputs(
    output_dir: Path,
    config: RunConfig,
    row: metrics_mod.MetricsRow,
    per_rep: list[dict],
    episode_records: list[dict],
    writer: _EpisodeWriter,
) -> None:
    """Swap in the episode files ``writer`` wrote, then replace the run's three
    top-level files, each by rename.  Nothing else in ``output_dir`` is touched."""
    writer.commit()
    atomic_write(output_dir / "summary.txt", metrics_mod.format_table([row]))
    header = {"kind": "run", "method": config.label, "repetitions": config.repetitions,
              "master_seed": config.master_seed}
    atomic_write(output_dir / "metrics.jsonl", "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in [header, *episode_records, *per_rep]
    ))
    atomic_write(output_dir / "run_config.json",
                 json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


def recompute_metrics(results_dir: str | Path) -> metrics_mod.MetricsRow:
    """Rebuild the summary row from persisted per-episode records."""
    path = Path(results_dir) / "metrics.jsonl"
    method = "unknown"
    episodes: list[dict] = []
    for number, line in enumerate(read_text(path, DatasetError).splitlines(), 1):
        with reading(f"{path} line {number}", DatasetError):
            record = json.loads(line)
            if not isinstance(record, dict):
                raise DatasetError("not a JSON object")
        if record.get("kind") == "run":
            method = record.get("method", method)
        elif record.get("kind") == "episode":
            episodes.append(record)
    if not episodes:
        raise DatasetError(f"no episode records in {path}")
    try:
        return metrics_mod.score(method, episodes)[0]
    except KeyError as exc:
        raise DatasetError(f"{path}: an episode record has no {exc}") from exc
    except TypeError as exc:
        raise DatasetError(f"{path}: an episode record has a bad value: {exc}") from exc


def record_suite(config: RunConfig, bundle: DatasetBundle | None = None) -> SuiteResult:
    """Run the suite without writing artifacts, filling the fixture store at
    ``config.fixtures_dir`` with every sample of every repetition and stage."""
    if not config.fixtures_dir:
        raise ConfigError("record needs fixtures_dir")
    return run_suite(config, bundle, write_outputs=False)

