"""Suite runner: full pipeline over task fixtures, metrics, reports.

One repetition runs every task through generate -> pool -> reorder ->
aggregate -> execute and scores it; repetitions differ only in their derived
seeds.  All randomness is derived from (master_seed, repetition, task, stage),
so reruns of the same config over the same fixtures are byte-identical.
"""

import functools
import json
import os
import shutil
import threading
from pathlib import Path
from typing import NamedTuple

from . import metrics as metrics_mod
from .errors import (
    BOOL,
    INTEGER,
    INTEGER_AT_LEAST_1,
    NUMBER_AT_LEAST_0,
    PROBABILITY,
    STRING,
    STRING_OR_NULL,
    ConfigError,
    DatasetError,
    EmptyCommandPoolError,
    NoPlansError,
    ProviderError,
    check_choice,
    check_value,
    checked,
    json_document,
    read_text,
    reading,
)
from .executor import (
    DEFAULT_STEP_LIMIT,
    TERMINATE_CHILDLESS,
    WITH_CORRECTION,
    EpisodeResult,
    ExecutionMode,
    run_episode,
    serialize_trace,
)
from .plans import Command, Plan, extract_unique_commands, parse_plan_text
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
    RequestPool,
    SyntheticProvider,
    _fill,
    atomic_write,
    derive_seed,
    json_text,
)
from .tree import MAX_VOTE, VoteTreeNode, build_vote_tree, tree_to_dict
from .world import (  # DatasetBundle and load_dataset are re-exported
    DatasetBundle,
    Scene,
    StatePredicate,
    Task,
    World,
    derive_goal_conditions,
    load_dataset,
)

SYNTHETIC = "synthetic"
REPLAY = "replay"
REMOTE = "remote"

MAX_INFLIGHT = 16
"""Most requests a remote run keeps in flight, and most episodes: the run's
request pool has this many threads reading one queue of sample draws, and
its episode pool has this many threads."""


# (fields, rule) for the RunConfig fields no library type checks under the same
# name; NoiseModel and ExecutionMode check noise and policies.
_FIELD_CHECKS = (
    (("repetitions", "prog_num_samples", "reorder_num_samples", "max_length", "step_limit",
      "remote_retries"), INTEGER_AT_LEAST_1),
    (("master_seed",), (lambda v: v is None or type(v) is int, "an integer or null")),
    (("prog_temperature", "reorder_temperature"), NUMBER_AT_LEAST_0),
    (("remote_timeout",), (lambda v: type(v) in (int, float) and v > 0, "a number > 0")),
    (("dataset", "scenes_dir", "actions", "fixtures_dir", "output_dir", "method_label"),
     STRING_OR_NULL),
    (("remote_endpoint", "remote_model", "remote_api_key_env"), STRING),
    (("include_seen",), BOOL),
)

# (field, rule) for each field of a metrics.jsonl episode record that scoring reads.
_EPISODE_FIELDS = (("rep", INTEGER), ("task_index", INTEGER), ("gcr", PROBABILITY),
                   ("exec", PROBABILITY))


@checked
class RunConfig(NamedTuple):
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

    def _check(self) -> None:
        for names, rule in _FIELD_CHECKS:
            for name in names:
                check_value(name, getattr(self, name), rule)
        check_choice("provider", self.provider, (SYNTHETIC, REPLAY, REMOTE))
        NoiseModel(self.drop_prob, self.swap_prob, self.insert_prob)
        ExecutionMode(self.mode, self.selection, self.termination)
        if self.provider != SYNTHETIC and not self.fixtures_dir:
            raise ConfigError(f"{self.provider} provider needs fixtures_dir")

    @property
    def label(self) -> str:
        return self.method_label or f"vote-tree ({self.mode}, {self.selection})"

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with reading(path, ConfigError):
            doc = json_document(path, ConfigError)
            unknown = set(doc) - set(cls._fields)
            if unknown:
                raise ConfigError(f"unknown run config keys: {sorted(unknown)}")
            return cls(**doc)


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
    used = {a for c in task.goal_plan for a in c.args}
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
        return SyntheticProvider(task.goal_plan, noise, config.fixtures_dir)
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
    """A run's state: its config and bundle, and what its episodes share.

    ``run_suite`` makes one per call and drops it when it returns, so
    nothing carries over from one run to the next.  It holds each task's
    provider, from ``make_provider``, one ``World`` per scene its tasks use
    (the goal derivation and every episode share them), the bundled prompt
    examples, each task's prog prompt and goal conditions, and a parse memo
    keyed by raw plan line (within a stage, ``run_one_episode`` parses each
    distinct text once).  The parse memo is keyed by line, not by whole
    text: the run's distinct lines are few, while holding the parsed
    commands of every distinct text for a whole run raised peak memory by a
    third.  All but the parse memo and the worlds' command caches are built
    here, before any worker forks or episode thread starts; forked workers
    each fill their own.  A remote run's episode threads share them, and an
    entry of either depends only on its key, so a racing write stores an
    equal value.
    """

    def __init__(self, config: RunConfig, bundle: DatasetBundle, tasks: list[Task]):
        self.config, self.bundle = config, bundle
        self.known_actions = frozenset(bundle.catalog)
        self.prog_examples = default_prog_examples()
        self.reorder_examples = default_reorder_examples()
        self.lines: dict[str, tuple] = {}
        self.providers: dict[Task, PlanGenerator] = {}
        self.prog_prompts: dict[Task, PromptDocument] = {}
        self.goals: dict[Task, frozenset[StatePredicate]] = {}
        self.worlds = {scene_id: World(bundle.catalog, bundle.scenes[scene_id].objects)
                       for scene_id in dict.fromkeys(task.scene_id for task in tasks)}
        for task in tasks:
            scene = bundle.scenes[task.scene_id]
            self.providers[task] = make_provider(config, task, scene)
            self.prog_prompts[task] = format_prog_prompt(
                task.task_name, sorted(bundle.catalog), sorted(scene.objects),
                self.prog_examples,
            )
            self.goals[task] = task.goal_conditions or derive_goal_conditions(
                self.worlds[task.scene_id], scene.initial_state, task.goal_plan, task.task_name)


class PipelineArtifacts(NamedTuple):
    """What one task episode's pipeline produced besides its trace.

    ``error`` says why there is no plan to execute (an empty command pool, or
    no usable reorder sample); ``root`` is then an empty tree.
    """

    pool_size: int
    root: VoteTreeNode
    diagnostics: list[str]
    error: str | None = None


def run_one_episode(task: Task, rep: int, memo: RunMemo) -> tuple[EpisodeResult, PipelineArtifacts]:
    """Run one (repetition, task) episode of ``memo``'s run: sample plans,
    pool their commands, reorder them, vote them into a tree and execute it.

    A stage parses each distinct sample text once, and that plan serves every
    sample k with the text; diagnostics are still reported per k, in k
    order.  An empty command pool skips the reorder stage; it and a reorder
    stage whose samples all parse empty leave an empty tree and the error,
    and ``run_episode`` then attempts nothing and ends the episode with
    termination ``no_plan``.
    """
    config, bundle, provider = memo.config, memo.bundle, memo.providers[task]
    scene = bundle.scenes[task.scene_id]
    diagnostics: list[str] = []

    def sample(prompt: PromptDocument, temperature: float, num_samples: int) -> list[Plan]:
        """The stage's parsed samples; an empty reorder sample is dropped."""
        seed = derive_seed(config.master_seed, rep, task.task_name, prompt.kind)
        try:
            texts = provider.generate(
                prompt, SamplingConfig(temperature, num_samples, config.max_length, seed=seed))
        except ProviderError as exc:
            raise ProviderError(f"task {task.task_name!r}, repetition {rep}: {exc}") from exc
        plans, parsed = [], {}
        for k, text in enumerate(texts):
            if text not in parsed:
                parsed[text] = parse_plan_text(text, memo.known_actions, memo.lines)
            plan, diags = parsed[text]
            if diags:
                diagnostics.extend(f"{prompt.kind}[{k}]: {d.code}" for d in diags)
            if plan or prompt.kind == PROG:
                plans.append(plan)
            else:
                diagnostics.append(f"{REORDER}[{k}]: degenerate_sample_dropped")
        return plans

    generated = sample(memo.prog_prompts[task], config.prog_temperature, config.prog_num_samples)
    pool, error = (), None
    try:
        pool = extract_unique_commands(generated)
        reorder_prompt = format_reorder_prompt(pool, task.task_name, memo.reorder_examples)
        root = build_vote_tree(
            sample(reorder_prompt, config.reorder_temperature, config.reorder_num_samples))
    except (EmptyCommandPoolError, NoPlansError) as exc:
        root, error = VoteTreeNode(), str(exc)
    seed = derive_seed(config.master_seed, rep, task.task_name, "selection")
    mode = ExecutionMode(config.mode, config.selection, config.termination, seed)
    episode = run_episode(memo.worlds[task.scene_id], scene.initial_state, root, mode,
                          config.step_limit)
    return episode, PipelineArtifacts(len(pool), root, diagnostics, error)


class SuiteResult(NamedTuple):
    row: metrics_mod.MetricsRow
    per_rep: list[dict]
    episodes: list[dict]
    output_dir: Path | None = None


def _run_job(memo: RunMemo, staging: str | None, job: tuple[int, int, Task]) -> dict:
    """Run one (rep, task index, task) job of a run and return its episode
    record.  With a ``staging`` directory, also write the episode's files
    ``<staging>/<slug>/<rep>/{trace,tree}.json``; an error writing them is an
    ``OSError`` naming the file as it would be under ``episodes/``.

    Every episode of a run goes through here: in a forked worker, inline, or
    in a remote run's thread.
    """
    rep, task_index, task = job
    episode, artifacts = run_one_episode(task, rep, memo)
    goal = memo.goals[task]
    gcr = metrics_mod.compute_gcr(episode.achieved, goal)
    exec_rate = metrics_mod.compute_exec(episode.trace)
    record = {
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
    if staging is None:
        return record
    trace_doc = {
        "task": task.task_name,
        "termination": episode.trace.termination,
        "gcr": gcr,
        "exec": exec_rate,
        "goal_conditions": sorted(p.render() for p in goal),
        "achieved": sorted(p.render() for p in episode.achieved),
        "steps": serialize_trace(episode.trace),
    }
    if artifacts.error is not None:
        trace_doc["error"] = artifacts.error
    episode_dir = os.path.join(staging, instruction_slug(task.task_name), str(rep))
    try:
        os.makedirs(episode_dir, exist_ok=True)
        for name, doc in (("trace.json", trace_doc), ("tree.json", tree_to_dict(artifacts.root))):
            with open(os.path.join(episode_dir, name), "w", encoding="utf-8") as fh:
                fh.write(json_text(doc))
    except OSError as exc:
        path = os.path.relpath(exc.filename or episode_dir, staging)
        raise OSError(exc.errno, exc.strerror or str(exc),
                      os.path.join(os.path.dirname(staging), "episodes", path)) from None
    return record


def _worker_count(jobs: int) -> int:
    """Worker processes for a CPU-bound run of ``jobs`` episodes: one per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, jobs)


def _records(memo: RunMemo, staging: str | None, jobs: list[tuple[int, int, Task]]) -> list[dict]:
    """The ``_run_job`` record of each job of ``jobs``, in order.

    A remote run runs its episodes in threads, as it waits on requests, not
    on the interpreter (see ``_threaded``).  Every other provider is
    CPU-bound, and its episodes run in ``_worker_count`` forked worker
    processes, or inline where that is one, where the platform has no
    ``fork``, or where the caller already runs threads: a lock one of them
    holds at the fork would stay locked in the worker.  Either way no episode
    starts once one has failed, those running finish, and the error of the
    earliest failing episode in run order is raised.
    """
    run_job = functools.partial(_run_job, memo, staging)
    if memo.config.provider == REMOTE:
        return _threaded(run_job, jobs, memo.providers.values())
    workers = _worker_count(len(jobs))
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing  # here: a remote or one-worker run does not pay for the import

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform
            pass
        else:
            where = f"{os.path.join(os.path.dirname(staging), 'episodes')}: " if staging else ""
            return _forked(context, run_job, jobs, workers, where)
    return [run_job(job) for job in jobs]


def _threaded(run_job, jobs: list, providers) -> list[dict]:
    """``run_job`` over ``jobs`` in a pool of ``MAX_INFLIGHT`` episode threads,
    each taking the next job as it frees up (see ``providers._fill``).

    Each of the run's ``providers`` gets the run's ``RequestPool`` of
    ``MAX_INFLIGHT`` threads as its ``requests``; a stage puts the draws of
    all its missing samples on the pool's queue and waits once.  The request
    pool is opened first and closed last, and both pools are joined before
    this returns, so no thread of the run outlives it.
    """
    records: list = [None] * len(jobs)
    with RequestPool(MAX_INFLIGHT) as requests:
        for provider in providers:
            provider.requests = requests
        with RequestPool(MAX_INFLIGHT) as episodes:
            _fill(lambda i: run_job(jobs[i]), range(len(jobs)), records, episodes)
    return records


# A forked run's shared mmap holds the next unclaimed job's index in bytes
# 0-7 and the stop flag in byte _STOP.
_STOP = 8


def _forked(context, run_job, jobs: list, workers: int, where: str) -> list[dict]:
    """``run_job`` over ``jobs`` in ``workers`` forked processes, which
    claim jobs in run order from a shared counter and each send all their
    records in one message (see ``_work``).  The parent sets the shared stop
    flag as soon as a worker dies; once each has sent or died, it returns the
    records in run order or raises the first exception it meets in that
    order or, at a job with no record, a dead worker's error, which
    ``where`` begins.  A claimed job always runs, so that is the error the
    inline run raises.

    Fork, not spawn: a worker starts from the loaded interpreter and the
    run's memo without importing or pickling anything, which needs the fork
    to come before any thread starts; the shared ``mmap`` and the claim lock
    start none.  On leaving, early or not, the parent sets stop, closes its
    pipe ends and joins the workers, each of which finishes the episode it
    is in; a worker is never killed in the middle of a file write.
    """
    import mmap  # here: a remote or one-worker run does not pay for the import
    from multiprocessing.connection import wait

    shared = mmap.mmap(-1, _STOP + 1)
    claim = context.Lock()
    readers, procs = [], []
    try:
        for _ in range(workers):
            reader, writer = context.Pipe(duplex=False)
            readers.append(reader)
            proc = context.Process(target=_work, args=(writer, list(readers), shared, claim,
                                                       run_job, jobs), daemon=True)
            try:
                proc.start()
            finally:
                writer.close()
            procs.append(proc)
        outcomes, dead = {}, []
        live = dict(zip(readers, procs))
        while live:
            for reader in wait(list(live)):
                proc = live.pop(reader)
                try:
                    outcomes.update(reader.recv())
                except EOFError:  # the worker exited without sending: it died
                    shared[_STOP] = 1
                    proc.join()
                    dead.append(proc.exitcode)
        for i in range(len(jobs)):
            if i not in outcomes:
                raise OSError(f"{where}an episode worker died (exit code {dead[0]})")
            if isinstance(outcomes[i], BaseException):
                raise outcomes[i]
        return [outcomes[i] for i in range(len(jobs))]
    finally:
        shared[_STOP] = 1
        for reader in readers:
            reader.close()
        for proc in procs:
            proc.join()
        shared.close()


def _work(conn, readers: list, shared, claim, run_job, jobs: list) -> None:
    """An episode worker: claim the next job of ``jobs`` in run order and run
    it until no job is left, stop is set or the parent is gone, then send
    ``conn`` each ``(job index, record)`` pair.  A job that fails sets stop
    and gives the last pair, with its exception.  Only workers take
    ``claim``, each with a timeout after which it checks stop again, so a
    worker that dies holding it cannot hang the run."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    for reader in readers:  # the parent's ends, so that only the parent holds them open
        reader.close()
    parent, done = os.getppid(), []
    while not shared[_STOP] and os.getppid() == parent:
        if not claim.acquire(timeout=0.1):
            continue
        try:
            i = int.from_bytes(shared[:_STOP], "little")
            if shared[_STOP] or i == len(jobs):
                break
            shared[:_STOP] = (i + 1).to_bytes(_STOP, "little")
        finally:
            claim.release()
        try:
            done.append((i, run_job(jobs[i])))
        except BaseException as exc:
            done.append((i, exc))
            shared[_STOP] = 1
    try:
        conn.send(done)
    except BrokenPipeError:  # the parent stopped reading
        return


def run_suite(config: RunConfig, bundle: DatasetBundle | None = None,
              write_outputs: bool = True) -> SuiteResult:
    """Run the full evaluation protocol for one configuration.

    Every task runs once per repetition, and ``metrics.score`` scores the
    episode records.  The run's memo is built first; then ``_records`` runs
    the episodes, in forked workers when the provider is CPU-bound, and
    returns their records in run order.  When the run writes outputs, each
    episode writes its own files into a staging directory
    ``<output_dir>/.episodes-XXXX``, made before the first episode so that
    an unusable ``output_dir`` fails before any work; ``_write_outputs``
    swaps it in.  If the run fails or is interrupted, the staging directory
    is removed and the files of an earlier run there stay as they were.
    """
    if config.master_seed is None:
        raise ConfigError("run config needs a master_seed")
    bundle = bundle or load_dataset(config)
    tasks = evaluated_tasks(bundle, config.include_seen)
    if not tasks:
        raise DatasetError(f"{config.dataset or DATA_DIR / 'tasks.json'}: no tasks to evaluate "
                           "after applying the seen-task split")

    memo = RunMemo(config, bundle, tasks)
    jobs = [(rep, task_index, task) for rep in range(config.repetitions)
            for task_index, task in enumerate(tasks)]
    output_dir = Path(config.output_dir) if write_outputs and config.output_dir else None
    staging = None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        # Not tempfile.mkdtemp: its 0o700 would become the mode of episodes/.
        staging = str(output_dir / f".episodes-{os.urandom(6).hex()}")
        os.mkdir(staging)
    try:
        episode_records = _records(memo, staging, jobs)
        row, per_rep = metrics_mod.score(config.label, episode_records)
        if output_dir is not None:
            _write_outputs(output_dir, config, row, per_rep, episode_records, staging)
    except BaseException:
        if staging is not None:
            _remove(staging)
        raise
    return SuiteResult(row=row, per_rep=per_rep, episodes=episode_records, output_dir=output_dir)


def _remove(staging: str) -> None:
    """Remove the ``staging`` directory of a failed run with SIGINT blocked in
    this thread, so that a second Ctrl-C cannot stop the removal half done;
    it is delivered once the directory is gone."""
    import signal  # here: only a failed run pays for the import

    block = getattr(signal, "pthread_sigmask", None)  # None on Windows
    mask = block(signal.SIG_BLOCK, {signal.SIGINT}) if block else None
    try:
        shutil.rmtree(staging, ignore_errors=True)
    finally:
        if block:
            block(signal.SIG_SETMASK, mask)


def _write_outputs(
    output_dir: Path,
    config: RunConfig,
    row: metrics_mod.MetricsRow,
    per_rep: list[dict],
    episode_records: list[dict],
    staging: str,
) -> None:
    """Rename the ``staging`` directory the episodes wrote to ``episodes/``,
    replacing the last run's, then replace the run's three top-level files,
    each by rename.  Nothing else in ``output_dir`` is touched."""
    episodes_dir = output_dir / "episodes"
    if episodes_dir.exists():
        shutil.rmtree(episodes_dir)
    os.rename(staging, episodes_dir)
    atomic_write(output_dir / "summary.txt", metrics_mod.format_table([row]))
    header = {"kind": "run", "method": config.label, "repetitions": config.repetitions,
              "master_seed": config.master_seed}
    atomic_write(output_dir / "metrics.jsonl", "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in [header, *episode_records, *per_rep]
    ))
    atomic_write(output_dir / "run_config.json", json_text(config._asdict()))


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
                method = check_value("method", record.get("method", method), STRING, DatasetError)
        if record.get("kind") == "episode":
            for name, rule in _EPISODE_FIELDS:
                if name not in record:
                    raise DatasetError(f"{path}: an episode record has no {name!r}")
                check_value(f"{path}: an episode record has a bad value: {name}", record[name],
                            rule, DatasetError)
            episodes.append(record)
    if not episodes:
        raise DatasetError(f"no episode records in {path}")
    return metrics_mod.score(method, episodes)[0]


def record_suite(config: RunConfig, bundle: DatasetBundle | None = None) -> SuiteResult:
    """Run the suite without writing artifacts, filling the fixture store at
    ``config.fixtures_dir`` with every sample of every repetition and stage."""
    if not config.fixtures_dir:
        raise ConfigError("record needs fixtures_dir")
    return run_suite(config, bundle, write_outputs=False)

