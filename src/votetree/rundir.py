"""A run's output directory: its layout, the episode record and files, the
staged commit of a run's outputs, and the reader of its ``metrics.jsonl``.
Episodes write into a staging directory that ``write_outputs`` commits."""

import json
import os
import shutil
from pathlib import Path

from . import metrics as metrics_mod
from .errors import (INTEGER, INTEGER_AT_LEAST_1, PROBABILITY, STRING, DatasetError, check_value,
                     read_text, reading)
from .prompts import instruction_slug
from .providers import json_text

# A run directory's names, and the prefix of its staging directory.
EPISODES, SUMMARY, METRICS, CONFIG = "episodes", "summary.txt", "metrics.jsonl", "run_config.json"
TRACE, TREE, STAGING = "trace.json", "tree.json", ".episodes-"

# The kinds of metrics.jsonl record, and (field, rule) for each episode field scoring reads.
_KINDS = (lambda v: v in ("run", "episode", "repetition"), "'run', 'episode' or 'repetition'")
_EPISODE_FIELDS = (("rep", INTEGER), ("task_index", INTEGER), ("gcr", PROBABILITY),
                   ("exec", PROBABILITY))


def episode_record(job: tuple, trace, pool_size: int, gcr: float, exec_rate: float) -> dict:
    """The record of the episode of ``job``, a (rep, task index, task), that left ``trace``."""
    rep, task_index, task = job
    return {"kind": "episode", "rep": rep, "task_index": task_index, "task": task.task_name,
            "scene": task.scene_id, "gcr": gcr, "exec": exec_rate, "success": gcr == 1.0,
            "steps": trace.attempted, "termination": trace.termination, "pool_size": pool_size}


def make_staging(output_dir: Path) -> str:
    """Make ``output_dir`` and a new staging directory in it, and return the
    latter.  Not tempfile.mkdtemp: its 0o700 would become the mode of episodes/."""
    output_dir.mkdir(parents=True, exist_ok=True)
    staging = str(output_dir / f"{STAGING}{os.urandom(6).hex()}")
    os.mkdir(staging)
    return staging


def published(staging: str, *path: str) -> str:
    """``episodes/``, or where the one ``path`` in ``staging`` will be under it."""
    return os.path.join(os.path.dirname(staging), EPISODES,
                        *(os.path.relpath(p, staging) for p in path))


def _write(directory: str, files: dict[str, str], named) -> None:
    """Write each (name, text) of ``files`` into ``directory``, made if need be.
    An ``OSError`` names its file, or ``directory``, where ``named`` maps it: a
    failed run removes its staging directory before the user reads the error."""
    try:
        os.makedirs(directory, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc),
                      named(exc.filename or directory)) from None


def write_episode(staging: str, record: dict, trace_doc: dict, tree_doc: dict, goal, achieved,
                  error: str | None) -> None:
    """Add the episode's task, scores, ``goal`` conditions, ``achieved`` state and
    any ``error`` to ``trace_doc``; write it and ``tree_doc`` into ``staging``'s
    ``<slug>/<rep>/``, an ``OSError`` naming the file as ``published`` does."""
    trace_doc.update(task=record["task"], gcr=record["gcr"], exec=record["exec"],
                     goal_conditions=sorted(p.render() for p in goal),
                     achieved=sorted(p.render() for p in achieved))
    if error is not None:
        trace_doc["error"] = error
    episode_dir = os.path.join(staging, instruction_slug(record["task"]), str(record["rep"]))
    _write(episode_dir, {TRACE: json_text(trace_doc), TREE: json_text(tree_doc)},
           lambda path: published(staging, path))


def remove(path: str, renames: tuple = ()) -> None:
    """Make each (source, target) rename of ``renames`` in turn, then remove
    the directory ``path``, with SIGINT blocked in this thread, so that a
    second Ctrl-C cannot stop them half done; it is delivered once they are."""
    import signal  # here: a run that writes nothing does not pay for the import

    block = getattr(signal, "pthread_sigmask", None)  # None on Windows
    mask = block(signal.SIG_BLOCK, {signal.SIGINT}) if block else None
    try:
        for source, target in renames:
            os.replace(source, target)
        shutil.rmtree(path, ignore_errors=True)
    finally:
        if block:
            block(signal.SIG_SETMASK, mask)


def write_outputs(output_dir: Path, config, row: metrics_mod.MetricsRow, per_rep: list[dict],
                  episode_records: list[dict], staging: str) -> None:
    """Write the run's three top-level files into the ``staging`` directory the
    episodes wrote to; then, by ``remove``, move them over the last run's,
    swap ``staging`` in as ``episodes/`` and remove the last run's.  A fault
    before the swap leaves the last run's four outputs as they were, and an
    ``OSError`` names the file in ``output_dir``.  Nothing else in
    ``output_dir`` is touched."""
    header = {"kind": "run", "method": config.label, "repetitions": config.repetitions,
              "master_seed": config.master_seed}
    files = {SUMMARY: metrics_mod.format_table([row]),
             METRICS: "".join(json.dumps(record, sort_keys=True) + "\n"
                              for record in [header, *episode_records, *per_rep]),
             CONFIG: json_text(config._asdict())}
    _write(staging, files,  # no slug has a dot: these clash with no episode
           lambda path: str(output_dir / os.path.relpath(path, staging)))
    episodes_dir, earlier = output_dir / EPISODES, f"{staging}-earlier"
    renames = [(os.path.join(staging, name), output_dir / name) for name in files]
    if episodes_dir.exists():
        renames.append((episodes_dir, earlier))
    remove(earlier, (*renames, (staging, episodes_dir)))


def recompute_metrics(results_dir: str | Path) -> metrics_mod.MetricsRow:
    """Rebuild the summary row from a run's ``metrics.jsonl``: its one run
    record names the method and how many repetition records there are, and
    its episode records must score to those repetition records."""
    path = Path(results_dir) / METRICS
    records = {"run": [], "episode": [], "repetition": []}
    for number, line in enumerate(read_text(path, DatasetError).splitlines(), 1):
        with reading(f"{path} line {number}", DatasetError):
            record = json.loads(line)
            if not isinstance(record, dict):
                raise DatasetError("not a JSON object")
            kind = check_value("kind", record["kind"], _KINDS, DatasetError)
            if kind == "run":
                check_value("method", record["method"], STRING, DatasetError)
                check_value("repetitions", record["repetitions"], INTEGER_AT_LEAST_1, DatasetError)
        for name, rule in _EPISODE_FIELDS if kind == "episode" else ():
            if name not in record:
                raise DatasetError(f"{path}: an episode record has no {name!r}")
            check_value(f"{path}: an episode record has a bad value: {name}", record[name], rule,
                        DatasetError)
        records[kind].append(record)
    if len(records["run"]) != 1:
        raise DatasetError(f"{path}: {len(records['run'])} run records, where a run has one")
    if not records["episode"]:
        raise DatasetError(f"no episode records in {path}")
    [run], repetitions = records["run"], records["repetition"]
    if len(repetitions) != run["repetitions"]:
        raise DatasetError(f"{path}: {len(repetitions)} repetition record(s), where the run "
                           f"record says {run['repetitions']}")
    row, per_rep = metrics_mod.score(run["method"], records["episode"])
    if per_rep != repetitions:
        raise DatasetError(f"{path}: the repetition records do not match the episode records")
    return row
