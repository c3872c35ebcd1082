import ast
import errno
import hashlib
import json
import multiprocessing
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votetree import harness, rundir
from votetree.diff import classify, plan_diff_report
from votetree.errors import ConfigError, DatasetError, ProviderError
from votetree.executor import MODES, TERMINATIONS, ExecutionMode, execute_tree
from votetree.harness import (
    RunConfig,
    RunMemo,
    build_distractors,
    evaluated_tasks,
    load_dataset,
    record_suite,
    run_one_episode,
    run_suite,
)
from votetree.metrics import format_table
from votetree.plans import Command
from votetree.prompts import DATA_DIR, PROG, instruction_slug
from votetree.providers import NoiseModel, RemoteProvider, derive_seed
from votetree.rundir import recompute_metrics
from votetree.tree import SELECTIONS, build_vote_tree, tree_to_dict
from votetree.world import World, derive_goal_conditions, load_scene

from conftest import FakeTransport, plan_of
from identity import MANIFEST

# The digests of the run both noisy pin tests make: the identity manifest
# holds the one copy of them.
NOISY_PIN = json.loads(MANIFEST.read_text(encoding="utf-8"))["noisy seed 7 x2"]["files"]


class TestRunConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"master_seed": 1, "banana": 2}), encoding="utf-8")
        with pytest.raises(ConfigError, match="banana"):
            RunConfig.from_file(path)

    def test_round_trip(self, tmp_path):
        cfg = RunConfig(master_seed=9, drop_prob=0.25, repetitions=3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg._asdict()), encoding="utf-8")
        assert RunConfig.from_file(path) == cfg

    def test_missing_master_seed_rejected(self, bundle):
        with pytest.raises(ConfigError, match="master_seed"):
            run_suite(RunConfig(output_dir=None), bundle, write_outputs=False)

    def test_replay_requires_fixtures_dir(self, bundle):
        with pytest.raises(ConfigError, match="fixtures_dir"):
            cfg = RunConfig(master_seed=1, provider="replay", repetitions=1, output_dir=None)
            run_suite(cfg, bundle, write_outputs=False)

    @staticmethod
    def _error(build, value):
        try:
            build(value)
        except ConfigError as exc:
            return str(exc)
        return None

    OWNERS = {
        "drop_prob": lambda v: NoiseModel(drop_prob=v),
        "swap_prob": lambda v: NoiseModel(swap_prob=v),
        "insert_prob": lambda v: NoiseModel(insert_prob=v),
        "mode": lambda v: ExecutionMode(kind=v),
        "termination": lambda v: ExecutionMode(termination=v),
        "selection": lambda v: ExecutionMode(selection=v),
    }

    @pytest.mark.parametrize("name", OWNERS)
    @given(value=st.one_of(st.integers(), st.floats(), st.floats(0, 1), st.booleans(), st.text(),
                           st.sampled_from(MODES + TERMINATIONS + SELECTIONS), st.none()))
    def test_the_type_that_uses_a_field_checks_it(self, name, value):
        """A RunConfig field is rejected exactly when the library type that uses
        it rejects it, with the same ConfigError naming the field."""
        error = self._error(self.OWNERS[name], value)
        assert self._error(lambda v: RunConfig(**{name: v}), value) == error
        assert error is None or name in error


class TestSplit:
    def test_seen_tasks_excluded_by_default(self, bundle):
        names = {t.task_name for t in evaluated_tasks(bundle)}
        assert len(names) == 31
        assert "wash mug" not in names
        assert "microwave salmon" in names

    def test_include_seen(self, bundle):
        assert len(evaluated_tasks(bundle, include_seen=True)) == 35


class TestLoadDataset:
    def test_import_and_load_dataset_leave_run_only_modules_unloaded(self):
        """``import votetree`` and ``load_dataset()`` in a fresh interpreter
        import neither the CLI nor a module that only a forked, remote or
        failed run uses."""
        lazy = ["multiprocessing", "mmap", "signal", "http.client", "urllib.request", "socket",
                "concurrent.futures", "votetree.cli", "votetree.diff", "votetree.harness",
                "votetree.executor", "votetree.providers", "votetree.metrics", "votetree.tree",
                "votetree.rundir",
                "logging", "hashlib", "queue", "urllib.error", "dataclasses", "inspect"]
        code = ("import sys, votetree\n"
                "votetree.load_dataset()\n"
                f"print([name for name in {lazy!r} if name in sys.modules])\n")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert run.stdout == "[]\n"

    def test_importing_the_cli_loads_no_dataclass_machinery(self):
        """``import votetree.cli``, which every CLI command pays for, loads
        neither ``dataclasses`` nor the ``inspect`` it imports: value types
        are named tuples."""
        code = ("import sys, votetree.cli\n"
                "print([name for name in ('dataclasses', 'inspect') if name in sys.modules])\n")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert run.stdout == "[]\n"

    def test_a_field_refusal_is_written_only_in_check_value(self):
        """``<field> must be <expected>, got <value>`` is written once, in
        ``errors.check_value``, which every refusal of a field calls."""
        written = []
        for path in sorted(Path(harness.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exempt = {id(node) for function in ast.walk(tree)
                      if isinstance(function, ast.FunctionDef)
                      and (path.name, function.name) == ("errors.py", "check_value")
                      for node in ast.walk(function)}
            for node in ast.walk(tree):
                if isinstance(node, ast.JoinedStr):
                    text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                                   for part in node.values)
                elif isinstance(node, ast.Constant) and type(node.value) is str:
                    text = node.value
                else:
                    continue
                if re.search(r"must be .*, got ", text, re.DOTALL) and id(node) not in exempt:
                    written.append(f"{path.name}:{node.lineno}")
        assert written == []

    def test_only_harness_starts_threads_and_no_module_imports_a_private_name(self):
        """``harness`` owns a run's threads, processes and shared memory, so no
        other module imports ``threading``, ``queue``, ``multiprocessing`` or
        ``mmap``; and no module imports a ``_``-prefixed name from another."""
        concurrency = {"threading", "queue", "multiprocessing", "mmap"}
        found = []
        for path in sorted(Path(harness.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] if node.level == 0 else []
                    if node.level or (node.module or "").startswith("votetree"):
                        found += [f"{path.name}:{node.lineno} imports {alias.name}"
                                  for alias in node.names if alias.name.startswith("_")]
                else:
                    continue
                if path.name != "harness.py":
                    found += [f"{path.name}:{node.lineno} imports {module}" for module in modules
                              if module.split(".")[0] in concurrency]
        assert found == []

    def test_top_level_names_load_from_their_modules(self):
        """In a fresh interpreter a submodule is reached as an attribute and by
        ``from votetree import``, as the benchmark reaches ``harness``; each
        exported name is, on first use, the object its module defines; ``dir``
        lists the exports and an unknown name raises AttributeError."""
        exports = ["Command", "ExecutionMode", "NoiseModel", "RemoteProvider", "ReplayProvider",
                   "RunConfig", "SyntheticProvider", "World", "build_vote_tree", "evaluated_tasks",
                   "execute_tree", "extract_unique_commands", "format_table", "load_dataset",
                   "parse_plan_text", "record_suite", "render_outline", "render_plan",
                   "run_suite", "state_diff", "synthesize_noisy_plans", "tree_stats",
                   "tree_to_dict"]
        code = ("import importlib, sys, votetree\n"
                "assert votetree.harness is sys.modules['votetree.harness']\n"
                "from votetree import cli, harness\n"
                "assert (cli, harness) == (votetree.cli, votetree.harness)\n"
                "assert harness.load_dataset is votetree.world.load_dataset\n"
                "assert harness.DatasetBundle is votetree.world.DatasetBundle\n"
                f"assert votetree.__all__ == {exports!r}\n"
                f"assert set({exports!r}) <= set(dir(votetree))\n"
                f"for name in {exports!r}:\n"
                "    value = getattr(votetree, name)\n"
                "    assert getattr(importlib.import_module(value.__module__), name) is value\n"
                "try:\n"
                "    votetree.load_datasets\n"
                "except AttributeError as exc:\n"
                "    print(exc)\n")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == "module 'votetree' has no attribute 'load_datasets'\n"

    def test_two_tasks_with_one_slug_are_refused(self, tmp_path):
        """Both would write episodes/<slug>/<rep>/, so one's files would replace the other's."""
        tasks = [{"task_name": name, "scene_id": "scene1", "goal_plan": ["find(folder)"]}
                 for name in ("put the folder on the desk", "PUT THE FOLDER ON THE DESK!")]
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps(tasks), encoding="utf-8")
        with pytest.raises(DatasetError) as info:
            load_dataset(RunConfig(dataset=str(path)))
        assert str(info.value) == (
            f"{path}: tasks 'put the folder on the desk' and 'PUT THE FOLDER ON THE DESK!' "
            "share the slug 'put_the_folder_on_the_desk'")

    def test_two_scene_files_with_one_scene_id_are_refused(self, tmp_path):
        for scene in (DATA_DIR / "scenes").glob("*.json"):
            (tmp_path / scene.name).write_bytes(scene.read_bytes())
        (tmp_path / "zz_copy.json").write_bytes((DATA_DIR / "scenes" / "scene1.json").read_bytes())
        with pytest.raises(DatasetError) as info:
            load_dataset(RunConfig(scenes_dir=str(tmp_path)))
        assert str(info.value) == (
            f"{tmp_path / 'scene1.json'}, {tmp_path / 'zz_copy.json'}: both define scene 'scene1'")


class TestBenchmarkSurface:
    def test_the_names_the_benchmark_reads_on_harness_resolve(self, bundle, tmp_path,
                                                               monkeypatch):
        """``bench/`` wraps and patches names on ``votetree.harness`` and does
        not change with the package: every (target, attribute) its traced pass
        wraps resolves for each workload, the names its workloads read are
        there, and a writing run calls ``make_provider`` and ``_write_outputs``
        through ``harness``, so a span or a patch on either sees the calls."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
        import run_bench
        import votetree
        import workloads

        for name, workload in workloads.WORKLOADS.items():
            wraps = run_bench.span_targets(votetree, workload(bundle, tmp_path, None),
                                           run_bench.Observations(votetree.tree_stats))
            assert [(attr, span) for target, attr, span, _ in wraps
                    if not hasattr(target, attr)] == [], name
        assert [name for name in ("make_provider", "DatasetBundle", "SuiteResult")
                if not hasattr(harness, name)] == []
        calls = Counter()
        for name in ("make_provider", "_write_outputs"):
            def counted(*args, name=name, call=getattr(harness, name)):
                calls[name] += 1
                return call(*args)

            monkeypatch.setattr(harness, name, counted)
        monkeypatch.setattr(harness, "_worker_count", lambda jobs: 1)
        run_suite(RunConfig(master_seed=1, repetitions=1, output_dir=str(tmp_path / "out")),
                  bundle)
        assert calls == {"make_provider": 31, "_write_outputs": 1}


class TestDistractors:
    def test_deterministic_and_plausible(self, bundle):
        task = next(t for t in bundle.tasks if t.task_name == "microwave salmon")
        scene = bundle.scenes[task.scene_id]
        pool = build_distractors(task, scene)
        assert pool == build_distractors(task, scene)
        used = {a for c in task.goal_plan for a in c.args}
        for command in pool:
            if command.args[0] != "doorknob":
                assert command.args[0] in scene.objects
                assert command.args[0] not in used
        assert Command("find", ("doorknob",)) in pool


class TestSuite:
    def test_zero_noise_small_run(self, bundle):
        cfg = RunConfig(master_seed=5, repetitions=2, output_dir=None)
        result = run_suite(cfg, bundle, write_outputs=False)
        assert result.row.sr_mean == 1.0
        assert result.row.sr_std == 0.0
        assert result.row.exec_mean == 1.0
        assert len(result.episodes) == 2 * 31

    def test_a_run_of_more_episodes_than_the_bound_is_refused_before_any_work(
            self, bundle, tmp_path, monkeypatch):
        """10**9 repetitions would build a job list of 3.1e10 tuples and exhaust
        memory before the first episode: the run is refused before its memo,
        so no provider is made and nothing is written.  A provider made
        fails the test at once, before the job list."""
        def make_provider(*args):
            raise AssertionError("make_provider was called")

        monkeypatch.setattr(harness, "make_provider", make_provider)
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as refused:
            run_suite(RunConfig(master_seed=1, repetitions=10**9, output_dir=str(out)), bundle)
        assert str(refused.value) == (f"1000000000 repetitions of 31 tasks are more than the "
                                      f"{harness.MAX_EPISODES} episodes a run may have")
        assert not out.exists()

    def test_explicit_goal_conditions_are_the_episode_goals(self, bundle, tmp_path):
        """A task's explicit ``goal_conditions``, not its goal plan's state
        diff, are what GCR scores and what trace.json lists."""
        task = bundle.tasks[0]
        scene = bundle.scenes[task.scene_id]
        derived = derive_goal_conditions(World(bundle.catalog, scene.objects),
                                         scene.initial_state, task.goal_plan, task.task_name)
        goals = sorted([*(p.render() for p in derived), "ON(kitchencabinet)"])  # never achieved
        tasks_file = tmp_path / "tasks.json"
        tasks_file.write_text(json.dumps([{
            "task_name": task.task_name, "scene_id": task.scene_id, "goal_conditions": goals,
            "goal_plan": [c.canonical_form for c in task.goal_plan],
        }]), encoding="utf-8")
        out = tmp_path / "out"
        run_suite(RunConfig(master_seed=5, repetitions=1, dataset=str(tasks_file),
                            include_seen=True, output_dir=str(out)))
        records = [json.loads(line) for line in
                   (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
        episode = next(r for r in records if r["kind"] == "episode")
        assert (episode["gcr"], episode["success"]) == (1 - 1 / len(goals), False)
        trace = json.loads((out / "episodes" / instruction_slug(task.task_name) / "0" /
                            "trace.json").read_text(encoding="utf-8"))
        assert trace["goal_conditions"] == goals and "ON(kitchencabinet)" not in trace["achieved"]

    def test_artifacts_allow_exact_recomputation(self, bundle, tmp_path):
        out = tmp_path / "results"
        cfg = RunConfig(master_seed=5, repetitions=2, drop_prob=0.2, swap_prob=0.1,
                        output_dir=str(out))
        result = run_suite(cfg, bundle)
        row = recompute_metrics(out)
        assert row.sr_mean == result.row.sr_mean
        assert row.sr_std == result.row.sr_std
        assert row.gcr_mean == result.row.gcr_mean
        assert row.exec_mean == result.row.exec_mean
        assert format_table([row]).encode("utf-8") == (out / "summary.txt").read_bytes()
        assert (out / "summary.txt").exists()
        episode_dirs = list((out / "episodes").glob("*/*"))
        assert len(episode_dirs) == 2 * 31
        assert all((d / "trace.json").exists() and (d / "tree.json").exists()
                   for d in episode_dirs)

    def test_rerun_into_the_same_output_dir_replaces_its_episodes(self, bundle, tmp_path):
        (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
        run_suite(RunConfig(master_seed=5, repetitions=2, output_dir=str(tmp_path)), bundle)
        run_suite(RunConfig(master_seed=5, repetitions=1, output_dir=str(tmp_path)), bundle)
        episode_dirs = list((tmp_path / "episodes").glob("*/*"))
        assert len(episode_dirs) == 31 and {d.name for d in episode_dirs} == {"0"}
        assert recompute_metrics(tmp_path).runs == 1
        assert (tmp_path / "notes.txt").read_text(encoding="utf-8") == "kept"

    def test_episode_seeds_stable_across_modes(self, bundle):
        """Seed derivation ignores the execution mode, so mode comparisons
        are seed-matched by construction."""
        task = next(t for t in bundle.tasks if t.task_name == "microwave salmon")
        base = dict(master_seed=3, drop_prob=0.3, output_dir=None)
        ep_with, art_with = run_one_episode(task, 0, RunMemo(RunConfig(**base), bundle, [task]))
        ep_without, art_without = run_one_episode(
            task, 0, RunMemo(RunConfig(**base, mode="no_correction"), bundle, [task])
        )
        assert art_with.diagnostics == art_without.diagnostics
        assert tree_to_dict(art_with.root) == tree_to_dict(art_without.root)

    def test_noise_sweep_sr_trend_non_increasing(self, bundle):
        drops = [0.0, 0.1, 0.2, 0.3]
        means = []
        for drop in drops:
            cfg = RunConfig(master_seed=11, repetitions=10, drop_prob=drop, output_dir=None)
            means.append(run_suite(cfg, bundle, write_outputs=False).row.sr_mean)
        slope = statistics.linear_regression(drops, means).slope
        assert slope <= 0.02, f"SR should not increase with drop noise: {means}"


class TestEveryRunConfig:
    """Over drawn run configs and task files of one to three tasks, each run
    is its own oracle: a rerun into another directory writes the same bytes,
    ``votetree metrics`` reproduces its summary, and every episode's rates and
    step count are in range."""

    PROBABILITY = st.floats(0, 1)

    @staticmethod
    def _outputs(out: Path) -> dict[str, bytes]:
        """The bytes of summary.txt, metrics.jsonl and every file under episodes/."""
        files = [out / "summary.txt", out / "metrics.jsonl",
                 *sorted(p for p in (out / "episodes").rglob("*") if p.is_file())]
        return {str(p.relative_to(out)): p.read_bytes() for p in files}

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), drop_prob=PROBABILITY, swap_prob=PROBABILITY,
           insert_prob=PROBABILITY, mode=st.sampled_from(MODES),
           selection=st.sampled_from(SELECTIONS), termination=st.sampled_from(TERMINATIONS),
           step_limit=st.integers(1, 60), repetitions=st.integers(1, 2),
           master_seed=st.integers(0, 2**64))
    def test_a_run_is_its_own_oracle(self, bundle, data, **config):
        tasks = data.draw(st.lists(st.sampled_from(evaluated_tasks(bundle)), min_size=1,
                                   max_size=3, unique=True), label="tasks")
        with tempfile.TemporaryDirectory() as tmp:
            dataset = Path(tmp, "tasks.json")
            dataset.write_text(json.dumps([
                {"task_name": t.task_name, "scene_id": t.scene_id,
                 "goal_plan": [c.canonical_form for c in t.goal_plan]} for t in tasks
            ]), encoding="utf-8")
            outs = [Path(tmp, "first"), Path(tmp, "second")]
            for out in outs:
                run_suite(RunConfig(dataset=str(dataset), output_dir=str(out), **config))
            first = self._outputs(outs[0])
            assert first == self._outputs(outs[1])
            assert format_table([recompute_metrics(outs[0])]).encode("utf-8") == first["summary.txt"]
            records = [json.loads(line) for line in first["metrics.jsonl"].splitlines()]
            episodes = [r for r in records if r["kind"] == "episode"]
            assert len(episodes) == len(tasks) * config["repetitions"]
            for episode in episodes:
                assert 0 <= episode["gcr"] <= 1 and 0 <= episode["exec"] <= 1
                assert episode["steps"] <= config["step_limit"]


class TestRunMemo:
    NOISY = dict(drop_prob=0.2, swap_prob=0.1, insert_prob=0.1)

    def test_noisy_outputs_are_pinned(self, bundle, tmp_path):
        """SHA-256 of a small noisy run's outputs: a change to them changes behaviour."""
        cfg = RunConfig(master_seed=7, repetitions=2, output_dir=str(tmp_path), **self.NOISY)
        run_suite(cfg, bundle)
        names = ("summary.txt", "metrics.jsonl")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in names}
        assert digests == {name: NOISY_PIN[name] for name in names}

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every call to the per-run work, made through the ``votetree.harness``
        namespace: the arguments of the calls made in this process, and the
        number of calls made here and in the run's forked episode workers
        together, in shared memory made before they fork.  Beside them, what
        each provider's ``generate`` returned: its samples, and its distinct
        texts, which is one (episode, stage) pair's count.  The run's episodes
        run in two workers."""
        names = ("default_prog_examples", "default_reorder_examples", "format_prog_prompt",
                 "derive_goal_conditions", "parse_plan_text")
        seen: dict[str, list[tuple]] = {name: [] for name in names}
        counts = {name: multiprocessing.get_context("fork").Value("i", 0)
                  for name in (*names, "samples", "distinct_texts")}

        def add(name, n):
            with counts[name].get_lock():
                counts[name].value += n

        def counting(name, real):
            def wrapper(*args, **kwargs):
                seen[name].append(args)
                add(name, 1)
                return real(*args, **kwargs)
            return wrapper

        def counting_texts(make_provider):
            def wrapper(*args):
                provider = make_provider(*args)
                generate = provider.generate

                def counted(prompt, config):
                    texts = generate(prompt, config)
                    add("samples", len(texts))
                    add("distinct_texts", len(set(texts)))
                    return texts

                provider.generate = counted
                return provider
            return wrapper

        for name in names:
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        monkeypatch.setattr(harness, "make_provider", counting_texts(harness.make_provider))
        monkeypatch.setattr(harness, "_worker_count", lambda jobs: min(2, jobs))
        return seen, counts

    def test_per_run_work_done_once_per_run(self, bundle, calls, tmp_path):
        seen, counts = calls
        names = sorted(t.task_name for t in evaluated_tasks(bundle))

        def clear():
            for name in seen:
                seen[name].clear()
            for count in counts.values():
                count.value = 0

        def assert_done_once():
            assert counts["default_prog_examples"].value == 1
            assert counts["default_reorder_examples"].value == 1
            assert sorted(args[0] for args in seen["format_prog_prompt"]) == names
            assert counts["format_prog_prompt"].value == len(names)
            assert sorted(args[3] for args in seen["derive_goal_conditions"]) == names
            assert counts["derive_goal_conditions"].value == len(names)
            assert counts["samples"].value == 2 * len(names) * (30 + 20)
            assert counts["parse_plan_text"].value == counts["distinct_texts"].value

        cfg = RunConfig(master_seed=3, repetitions=2, output_dir=None, **self.NOISY)
        for _ in range(2):  # a second run repeats the counts: no state carries over
            clear()
            run_suite(cfg, bundle, write_outputs=False)
            assert_done_once()

        clear()
        record_suite(RunConfig(master_seed=3, repetitions=2, fixtures_dir=str(tmp_path),
                               **self.NOISY), bundle)
        assert_done_once()

    def test_one_provider_per_task_per_run(self, bundle, tmp_path, monkeypatch):
        """A 2-repetition run calls ``harness.make_provider`` once per task,
        31 times, not once per episode, whether its episodes run in two
        forked workers (counted in shared memory made before they fork),
        inline, or in a remote run's threads."""
        names = sorted(t.task_name for t in evaluated_tasks(bundle))
        count = multiprocessing.get_context("fork").Value("i", 0)
        made: list[str] = []

        def counting(make_provider):
            def wrapper(config, task, scene):
                with count.get_lock():
                    count.value += 1
                made.append(task.task_name)
                return make_provider(config, task, scene)
            return wrapper

        def assert_made_once(config):
            count.value = 0
            made.clear()
            run_suite(config, bundle, write_outputs=False)
            assert count.value == len(names)
            assert sorted(made) == names

        noisy = RunConfig(master_seed=3, repetitions=2, **self.NOISY)
        monkeypatch.setattr(harness, "make_provider", counting(harness.make_provider))
        monkeypatch.setattr(harness, "_worker_count", lambda jobs: min(2, jobs))
        assert_made_once(noisy)
        monkeypatch.setattr(harness, "_worker_count", lambda jobs: 1)
        assert_made_once(noisy)
        _remote_via(monkeypatch, FakeTransport(bundle))
        monkeypatch.setattr(harness, "make_provider", counting(harness.make_provider))
        assert_made_once(_remote_config(tmp_path, "remote", repetitions=2))

    def test_one_world_per_scene_per_run(self, bundle, tmp_path, monkeypatch):
        """A 2-repetition run makes one ``harness.World`` per scene of its
        tasks, which the goal derivation and every episode share, whether its
        episodes run in two forked workers (counted in shared memory made
        before they fork), inline, or in a remote run's threads."""
        scenes = {t.scene_id for t in evaluated_tasks(bundle)}
        count = multiprocessing.get_context("fork").Value("i", 0)

        class CountingWorld(World):
            def __init__(self, *args):
                with count.get_lock():
                    count.value += 1
                super().__init__(*args)

        def assert_one_per_scene(config):
            count.value = 0
            run_suite(config, bundle, write_outputs=False)
            assert count.value == len(scenes)

        monkeypatch.setattr(harness, "World", CountingWorld)
        noisy = RunConfig(master_seed=3, repetitions=2, **self.NOISY)
        monkeypatch.setattr(harness, "_worker_count", lambda jobs: min(2, jobs))
        assert_one_per_scene(noisy)
        monkeypatch.setattr(harness, "_worker_count", lambda jobs: 1)
        assert_one_per_scene(noisy)
        _remote_via(monkeypatch, FakeTransport(bundle))
        assert_one_per_scene(_remote_config(tmp_path, "remote", repetitions=2))


class TestFixtureStore:
    NOISY = TestRunMemo.NOISY

    @staticmethod
    def _outputs(out):
        return {name: (out / name).read_bytes() for name in ("summary.txt", "metrics.jsonl")}

    def test_replay_reproduces_every_repetition(self, bundle, tmp_path):
        fixtures = str(tmp_path / "fixtures")
        base = dict(master_seed=7, repetitions=5, **self.NOISY)
        plain = run_suite(RunConfig(output_dir=str(tmp_path / "plain"), **base), bundle)
        recording = run_suite(RunConfig(fixtures_dir=fixtures, output_dir=str(tmp_path / "rec"),
                                        **base), bundle)
        replay = run_suite(RunConfig(master_seed=7, repetitions=5, provider="replay",
                                     fixtures_dir=fixtures, output_dir=str(tmp_path / "replay")),
                           bundle)
        assert self._outputs(plain.output_dir) == self._outputs(recording.output_dir)
        assert self._outputs(replay.output_dir) == self._outputs(recording.output_dir)
        assert replay.row.sr_std > 0

    def test_remote_suite_with_repetitions(self, bundle, tmp_path, monkeypatch):
        fake = FakeTransport(bundle)

        def make_provider(config, task, scene):
            return RemoteProvider(endpoint="", model="fake", cache_dir=config.fixtures_dir,
                                  transport=fake)

        monkeypatch.setattr(harness, "make_provider", make_provider)
        cache = str(tmp_path / "cache")
        remote = run_suite(RunConfig(master_seed=4, repetitions=2, provider="remote",
                                     fixtures_dir=cache, output_dir=str(tmp_path / "remote")),
                           bundle)
        assert fake.calls == 2 * 31 * (30 + 20)
        monkeypatch.undo()
        replay = run_suite(RunConfig(master_seed=4, repetitions=2, provider="replay",
                                     fixtures_dir=cache, output_dir=str(tmp_path / "replay")),
                           bundle)
        assert self._outputs(replay.output_dir) == self._outputs(remote.output_dir)

    def test_store_filled_under_other_noise_is_refused(self, bundle, tmp_path):
        fixtures = str(tmp_path / "fixtures")
        record_suite(RunConfig(master_seed=2, repetitions=1, fixtures_dir=fixtures,
                               drop_prob=0.2), bundle)
        with pytest.raises(ProviderError, match="recorded by noise"):
            run_suite(RunConfig(master_seed=2, repetitions=1, fixtures_dir=fixtures,
                                drop_prob=0.5, output_dir=None), bundle)

    def test_store_filled_at_another_max_length_is_refused(self, bundle, tmp_path):
        fixtures = str(tmp_path / "fixtures")
        record_suite(RunConfig(master_seed=2, repetitions=1, fixtures_dir=fixtures), bundle)
        for provider in ("synthetic", "replay"):
            with pytest.raises(ProviderError, match="recorded with"):
                run_suite(RunConfig(master_seed=2, repetitions=1, provider=provider,
                                    fixtures_dir=fixtures, max_length=2, output_dir=None), bundle)

    def test_record_suite_writes_one_file_per_prompt_stage_and_seed(self, bundle, tmp_path):
        fixtures = tmp_path / "fixtures"
        record_suite(RunConfig(master_seed=2, repetitions=1, fixtures_dir=str(fixtures),
                               **self.NOISY), bundle)
        files = [p for p in fixtures.rglob("*") if p.is_file()]
        assert len(files) == 31 * 2
        assert {p.parent.name for p in files} == {"prog", "reorder"}


def _remote_via(monkeypatch, transport):
    """Route a remote run's requests to ``transport`` instead of HTTP."""
    def make_provider(config, task, scene):
        return RemoteProvider(endpoint="", model="fake", cache_dir=config.fixtures_dir,
                              retries=1, transport=transport)

    monkeypatch.setattr(harness, "make_provider", make_provider)


def _remote_config(tmp_path, name, **overrides):
    base = dict(master_seed=6, repetitions=1, provider="remote",
                fixtures_dir=str(tmp_path / name / "cache"), output_dir=str(tmp_path / name / "out"))
    return RunConfig(**{**base, **overrides})


def _files(root):
    """Every file under ``root`` by relative path, but the run config (it names paths)."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "run_config.json"}


def _request_key(request):
    return request["messages"][0]["content"], request["seed"]


class TestRemoteRun:
    """A remote run keeps up to MAX_INFLIGHT requests in flight: up to
    MAX_INFLIGHT episode threads, each stage of which puts its missing samples
    on the run's request queue as one batch and waits once for it, while the
    run's MAX_INFLIGHT request threads draw them.  Samples and episodes go by
    one fill rule: what has not begun is skipped once a lower one has failed,
    or once the run is interrupted.  The run scores the episodes in run
    order."""

    def test_make_provider_builds_the_configured_remote_provider(self, bundle, tmp_path):
        config = RunConfig(master_seed=1, provider="remote", fixtures_dir=str(tmp_path / "cache"),
                           remote_endpoint="http://localhost:9/v1/chat/completions",
                           remote_model="model-1", remote_api_key_env="MY_KEY",
                           remote_timeout=2.5, remote_retries=7)
        task = bundle.tasks[0]
        provider = harness.make_provider(config, task, bundle.scenes[task.scene_id])
        assert isinstance(provider, RemoteProvider)
        assert (provider.endpoint, provider.model, provider.cache_dir, provider.api_key_env,
                provider.timeout, provider.retries) == (
            "http://localhost:9/v1/chat/completions", "model-1", tmp_path / "cache", "MY_KEY",
            2.5, 7)

    def test_in_flight_requests_are_bounded(self, bundle, tmp_path, monkeypatch):
        fake = FakeTransport(bundle)
        lock = threading.Lock()
        active = [0]
        peak = [0]
        pause = threading.Event()

        def transport(request):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            pause.wait(0.002)
            with lock:
                active[0] -= 1
            return fake(request)

        _remote_via(monkeypatch, transport)
        result = run_suite(_remote_config(tmp_path, "bounded", output_dir=None), bundle)
        assert len(result.episodes) == 31
        assert fake.calls == 31 * (30 + 20)
        assert 1 < peak[0] <= harness.MAX_INFLIGHT

    def test_a_stage_sends_its_requests_together(self, bundle, tmp_path, monkeypatch):
        """With one repetition a prompt's text names one (prompt, seed) store file."""
        fake = FakeTransport(bundle)
        lock = threading.Lock()
        active: Counter = Counter()
        peak: Counter = Counter()
        pause = threading.Event()

        def transport(request):
            prompt = request["messages"][0]["content"]
            with lock:
                active[prompt] += 1
                peak[prompt] = max(peak[prompt], active[prompt])
            pause.wait(0.002)
            with lock:
                active[prompt] -= 1
            return fake(request)

        _remote_via(monkeypatch, transport)
        run_suite(_remote_config(tmp_path, "together", output_dir=None), bundle)
        assert len(peak) == 31 * 2
        assert 1 < max(peak.values()) <= harness.MAX_INFLIGHT

    def test_the_run_fills_its_request_pool(self, bundle, tmp_path, monkeypatch):
        """The first MAX_INFLIGHT requests wait until all of them are in
        flight; a pool with fewer threads breaks the barrier."""
        fake = FakeTransport(bundle)
        barrier = threading.Barrier(harness.MAX_INFLIGHT, timeout=10)
        lock = threading.Lock()
        calls = [0]
        active = [0]
        peak = [0]

        def transport(request):
            with lock:
                calls[0] += 1
                first = calls[0] <= harness.MAX_INFLIGHT
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                if first:
                    barrier.wait()
                return fake(request)
            finally:
                with lock:
                    active[0] -= 1

        _remote_via(monkeypatch, transport)
        run_suite(_remote_config(tmp_path, "full", output_dir=None), bundle)
        assert calls[0] == 31 * (30 + 20)
        assert peak[0] == harness.MAX_INFLIGHT

    def test_a_base_exception_in_a_request_stops_the_run(self, bundle, tmp_path, monkeypatch):
        """An exception that is not an ``Exception`` still settles its
        request: the run raises it within seconds and leaves no thread."""

        class Stop(BaseException):
            pass

        fake = FakeTransport(bundle)
        task = evaluated_tasks(bundle)[2].task_name
        stage_seed = derive_seed(6, 0, task, PROG)
        stop_seed = derive_seed(stage_seed, 7) % 2**31

        def transport(request):
            if request["seed"] == stop_seed and fake.task_of(request) == task:
                raise Stop
            return fake(request)

        _remote_via(monkeypatch, transport)
        threads = threading.active_count()
        raised: list[BaseException] = []

        def run():
            try:
                run_suite(_remote_config(tmp_path, "stopped", output_dir=None), bundle)
            except BaseException as exc:
                raised.append(exc)

        runner = threading.Thread(target=run, daemon=True)  # a hung run fails, not hangs, the test
        runner.start()
        runner.join(30)
        assert not runner.is_alive(), "the run did not end"
        assert [type(exc) for exc in raised] == [Stop]
        assert threading.active_count() == threads

    def test_a_failure_in_the_middle_of_a_stage(self, bundle, tmp_path, monkeypatch):
        """In one task's prog stage sample 9 fails at once, and sample 5 half a
        second later.  Samples 10-28 each hold a request thread for 0.05 s
        after sample 9 has failed, so sample 29 could only begin after that:
        it is never sent, though sample 5 is still running.  The run raises
        sample 5's error, the stage's store file keeps every sample answered,
        and a rerun sends only the requests that were not answered."""
        fake = FakeTransport(bundle)
        task = evaluated_tasks(bundle)[2].task_name
        stage_seed = derive_seed(6, 0, task, PROG)
        k_of = {derive_seed(stage_seed, k) % 2**31: k for k in range(30)}
        lock = threading.Lock()
        nine_failed, last_sent, pause = threading.Event(), threading.Event(), threading.Event()
        answered: list[tuple] = []
        stage: dict[int, str] = {}  # the failing stage's answers by k

        def transport(request):
            k = k_of.get(request["seed"])
            if k == 9:
                nine_failed.set()
                raise urllib.error.HTTPError("https://example.invalid", 403, "nine", {}, None)
            if k == 5:
                last_sent.wait(0.5)  # never set: sample 29 is skipped
                raise urllib.error.HTTPError("https://example.invalid", 400, "five", {}, None)
            if k == 29:
                last_sent.set()
            elif k is not None and k > 9:
                nine_failed.wait(10)
                pause.wait(0.05)
            text = fake(request)
            with lock:
                answered.append(_request_key(request))
                if k is not None:
                    stage[k] = text
            return text

        _remote_via(monkeypatch, transport)
        config = _remote_config(tmp_path, "resumed")
        threads = threading.active_count()
        with pytest.raises(ProviderError, match=rf"task {task!r}, repetition 0: .*five"):
            run_suite(config, bundle)
        assert threading.active_count() == threads
        [path] = (tmp_path / "resumed" / "cache").glob(f"*/{PROG}/{stage_seed}.json")
        stored = json.loads(path.read_text(encoding="utf-8"))["samples"]
        assert {k: text for k, text in enumerate(stored) if text is not None} == stage
        assert not last_sent.is_set()
        assert set(range(5)) <= set(stage) and not {5, 9, 29} & set(stage)

        resent: list[tuple] = []

        def working(request):
            with lock:
                resent.append(_request_key(request))
            return fake(request)

        _remote_via(monkeypatch, working)
        run_suite(config, bundle)
        resumed = list(resent)
        resent.clear()
        run_suite(_remote_config(tmp_path, "clean"), bundle)
        assert not set(resumed) & set(answered)
        assert Counter(resumed) + Counter(answered) == Counter(resent)
        for part in ("out", "cache"):
            assert _files(tmp_path / "resumed" / part) == _files(tmp_path / "clean" / part)

    def test_out_of_order_responses_land_in_k_order(self, bundle, tmp_path, monkeypatch):
        fake = FakeTransport(bundle)
        index = {task.task_name: i for i, task in enumerate(evaluated_tasks(bundle))}
        lock = threading.Lock()
        pause = threading.Event()
        delayed: set[str] = set()
        answered: list[int] = []  # task index of each task's first answer

        def later_tasks_answer_sooner(request):
            task = fake.task_of(request)
            with lock:
                first = task not in delayed
                delayed.add(task)
            if first:
                pause.wait(0.002 * (len(index) - index[task]))
                with lock:
                    answered.append(index[task])
            return fake(request)

        _remote_via(monkeypatch, later_tasks_answer_sooner)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the episode threads finely
        try:
            run_suite(_remote_config(tmp_path, "concurrent", repetitions=2), bundle)
        finally:
            sys.setswitchinterval(switch)
        assert answered != sorted(answered)

        # Reference: one episode at a time, one request at a time.
        monkeypatch.setattr(harness, "MAX_INFLIGHT", 1)
        delayed.clear()
        answered.clear()
        run_suite(_remote_config(tmp_path, "serial", repetitions=2), bundle)
        assert answered == sorted(answered)
        for part in ("out", "cache"):
            assert _files(tmp_path / "concurrent" / part) == _files(tmp_path / "serial" / part)
        assert {"summary.txt", "metrics.jsonl"} <= set(_files(tmp_path / "concurrent" / "out"))
        assert len(_files(tmp_path / "concurrent" / "cache")) == 2 * 31 * 2

    def test_a_failing_episode_stops_the_run_and_a_rerun_resumes(self, bundle, tmp_path,
                                                                monkeypatch):
        fake = FakeTransport(bundle)
        tasks = [task.task_name for task in evaluated_tasks(bundle)]
        failing = tasks[3]
        lock = threading.Lock()
        raised = threading.Event()
        started: list[str] = []
        sent: Counter = Counter()
        answered: list[tuple] = []
        run_one_episode = harness.run_one_episode

        def counted(task, *args):
            with lock:
                started.append(task.task_name)
            try:
                return run_one_episode(task, *args)
            except BaseException:
                raised.set()
                raise

        def fails_for_one_task(request):
            index = tasks.index(fake.task_of(request))
            if index == 3:
                raise urllib.error.HTTPError("https://example.invalid", 400, "bad", {}, None)
            with lock:
                sent[index] += 1
                last = sent[index] == 30 + 20
            if last:
                # Every other episode holds its last request until episode 3
                # has raised, so none ends and frees its episode thread for a
                # later job before then.  The window left is between that raise
                # and RequestPool.fill's lock, where episode 3's thread records its
                # failure: a job taken in it would still start.
                raised.wait(10)
            text = fake(request)
            with lock:
                answered.append(_request_key(request))
            return text

        monkeypatch.setattr(harness, "run_one_episode", counted)
        _remote_via(monkeypatch, fails_for_one_task)
        config = _remote_config(tmp_path, "resumed", repetitions=2)
        with pytest.raises(ProviderError, match=rf"task {failing!r}, repetition 0: .*not retried"):
            run_suite(config, bundle)
        # The episodes started before the failure was seen, a prefix of the run
        # order, ran to their end; none queued behind them started.
        assert 3 < len(started) <= harness.MAX_INFLIGHT
        assert sorted(started) == sorted(tasks[:len(started)])
        assert len(answered) == (len(started) - 1) * (30 + 20)

        resent: list[tuple] = []

        def working(request):
            with lock:
                resent.append(_request_key(request))
            return fake(request)

        _remote_via(monkeypatch, working)
        run_suite(config, bundle)
        resumed = list(resent)
        resent.clear()
        run_suite(_remote_config(tmp_path, "clean", repetitions=2), bundle)
        assert not set(resumed) & set(answered)
        assert Counter(resumed) + Counter(answered) == Counter(resent)
        for part in ("out", "cache"):
            assert _files(tmp_path / "resumed" / part) == _files(tmp_path / "clean" / part)

    def test_the_earliest_failing_episode_in_run_order_is_raised(self, bundle, tmp_path,
                                                                 monkeypatch):
        """Task 1 fails after task 3 has; the run raises task 1's error."""
        fake = FakeTransport(bundle)
        tasks = [task.task_name for task in evaluated_tasks(bundle)]
        three_raised = threading.Event()
        first = threading.Lock()  # the first of task 1's requests to take it waits
        waited: list[bool] = []
        run_one_episode = harness.run_one_episode

        def marks_three_raised(task, *args):
            try:
                return run_one_episode(task, *args)
            except BaseException:
                if task.task_name == tasks[3]:
                    three_raised.set()
                raise

        def transport(request):
            task = fake.task_of(request)
            if task == tasks[1]:
                if first.acquire(blocking=False):
                    # The rest of task 1's requests fail at once, so they hold
                    # no request thread that task 3's requests need.
                    waited.append(three_raised.wait(10))
                raise urllib.error.HTTPError("https://example.invalid", 401, "one", {}, None)
            if task == tasks[3]:
                raise urllib.error.HTTPError("https://example.invalid", 403, "three", {}, None)
            return fake(request)

        monkeypatch.setattr(harness, "run_one_episode", marks_three_raised)
        _remote_via(monkeypatch, transport)
        with pytest.raises(ProviderError, match=rf"task {tasks[1]!r}, repetition 0: .*401"):
            run_suite(_remote_config(tmp_path, "two-failures", output_dir=None), bundle)
        assert waited == [True]

    def test_a_slow_episode_does_not_hold_back_the_others(self, bundle, tmp_path, monkeypatch):
        """Episode 0 waits until episode MAX_INFLIGHT has started: an episode
        thread takes the next job as soon as it frees up."""
        tasks = [task.task_name for task in evaluated_tasks(bundle)]
        later_started = threading.Event()
        waited: list[bool] = []
        run_one_episode = harness.run_one_episode

        def first_waits(task, *args):
            if task.task_name == tasks[harness.MAX_INFLIGHT]:
                later_started.set()
            if task.task_name == tasks[0]:
                waited.append(later_started.wait(10))
            return run_one_episode(task, *args)

        monkeypatch.setattr(harness, "run_one_episode", first_waits)
        _remote_via(monkeypatch, FakeTransport(bundle))
        result = run_suite(_remote_config(tmp_path, "slow", output_dir=None), bundle)
        assert waited == [True]
        assert [record["task"] for record in result.episodes] == tasks

    def test_an_interrupt_starts_no_further_episode(self, bundle, tmp_path, monkeypatch):
        """SIGINT, sent from a request thread, raises KeyboardInterrupt once the
        episodes running have ended; no other episode starts, and the run
        leaves no thread and no staging directory.  No request returns before
        the main thread has run the SIGINT handler, so no episode can end
        before the interrupt is seen; a wait that missed the signal would
        hold the requests for 10 s and then let every episode run."""
        fake = FakeTransport(bundle)
        lock = threading.Lock()
        sent = [0]
        started: list[str] = []
        seen = threading.Event()
        run_one_episode = harness.run_one_episode

        def counted(task, *args):
            with lock:
                started.append(task.task_name)
            return run_one_episode(task, *args)

        def interrupting(request):
            with lock:
                sent[0] += 1
                first = sent[0] == 1
            if first:
                os.kill(os.getpid(), signal.SIGINT)
            seen.wait(10)
            return fake(request)

        def handler(signum, frame):
            seen.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "run_one_episode", counted)
        _remote_via(monkeypatch, interrupting)
        config = _remote_config(tmp_path, "interrupted", repetitions=3)
        threads = threading.active_count()
        previous = signal.signal(signal.SIGINT, handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_suite(config, bundle)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert 0 < len(started) <= harness.MAX_INFLIGHT
        assert threading.active_count() == threads
        assert list(Path(config.output_dir).iterdir()) == []


class TestEpisodeWriter:
    """Each episode writes its own files into a staging directory, which the
    run swaps in as ``episodes/`` by rename before it replaces its three
    top-level files by rename.  A run that fails leaves an earlier run's
    files as they were, and no staging directory, temporary file or live
    episode worker.  These runs use two forked workers on any machine."""

    NOISY = TestRunMemo.NOISY

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(harness, "_worker_count", lambda jobs: min(2, jobs))

    @staticmethod
    def _contents(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    @staticmethod
    def _leftovers(root):
        return [p for p in root.rglob("*") if p.name.startswith(".episodes-") or p.suffix == ".tmp"]

    def test_noisy_episode_files_are_pinned(self, bundle, tmp_path):
        """SHA-256 of the ``sha256sum`` listing of every trace.json and tree.json
        of the run whose top-level files ``test_noisy_outputs_are_pinned`` pins."""
        run_suite(RunConfig(master_seed=7, repetitions=2, output_dir=str(tmp_path), **self.NOISY),
                  bundle)
        files = sorted(p.relative_to(tmp_path).as_posix()
                       for p in (tmp_path / "episodes").rglob("*") if p.is_file())
        assert len(files) == 2 * 2 * 31
        listing = "".join(f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  {name}\n"
                          for name in files)
        assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == NOISY_PIN["episodes"]
        assert not self._leftovers(tmp_path)

    @pytest.fixture
    def earlier(self, bundle, tmp_path):
        """An output directory holding a finished run, and that run's files."""
        out = tmp_path / "out"
        run_suite(RunConfig(master_seed=7, repetitions=2, output_dir=str(out), **self.NOISY), bundle)
        return out, self._contents(out)

    @staticmethod
    def _fail_writing(monkeypatch, episode_dir):
        """Make ``os.makedirs`` fail for ``episode_dir``; the forked workers
        inherit the patch."""
        makedirs = harness.os.makedirs

        def failing(path, *args, **kwargs):
            if path.endswith(episode_dir):
                raise OSError(errno.ENOSPC, "No space left on device")
            return makedirs(path, *args, **kwargs)

        monkeypatch.setattr(harness.os, "makedirs", failing)

    @staticmethod
    def _fail_at_the_40th(monkeypatch, failure):
        """Make the run's 40th ``run_episode`` call, counted across its
        workers, raise, or be a Ctrl-C: SIGINT to the worker, which ignores
        it and finishes the episode, and to the parent.  Returns the call
        count and how many interrupted episodes finished."""
        run_episode = harness.run_episode
        calls = multiprocessing.get_context("fork").Value("i", 0)
        finished = multiprocessing.get_context("fork").Value("i", 0)
        parent = os.getpid()

        def fails_at_the_40th(*args):
            with calls.get_lock():
                calls.value += 1
                count = calls.value
            if count != 40:
                return run_episode(*args)
            if failure == "episode":
                raise RuntimeError("episode")
            assert os.getpid() != parent, "the episode ran in the parent"
            os.kill(os.getpid(), signal.SIGINT)
            os.kill(parent, signal.SIGINT)
            time.sleep(0.2)  # the parent is stopping the workers meanwhile
            result = run_episode(*args)
            finished.value += 1
            return result

        monkeypatch.setattr(harness, "run_episode", fails_at_the_40th)
        return calls, finished

    def test_the_writers_first_error_names_the_path(self, bundle, earlier, monkeypatch):
        out, before = earlier
        slug = instruction_slug(evaluated_tasks(bundle)[5].task_name)
        self._fail_writing(monkeypatch, os.path.join(slug, "1"))
        with pytest.raises(OSError) as raised:
            run_suite(RunConfig(master_seed=8, repetitions=3, output_dir=str(out)), bundle)
        assert raised.value.errno == errno.ENOSPC
        assert raised.value.filename == str(out / "episodes" / slug / "1")
        assert self._contents(out) == before
        assert not self._leftovers(out)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("failure", ["episode", "interrupt", "writer"])
    def test_a_failed_rerun_leaves_the_earlier_run_as_it_was(self, bundle, earlier, monkeypatch,
                                                             failure):
        out, before = earlier
        if failure == "writer":
            self._fail_writing(monkeypatch, os.path.join(instruction_slug(
                evaluated_tasks(bundle)[0].task_name), "0"))
        else:
            _, finished = self._fail_at_the_40th(monkeypatch, failure)
        with pytest.raises((OSError, RuntimeError, KeyboardInterrupt)):
            run_suite(RunConfig(master_seed=8, repetitions=3, output_dir=str(out)), bundle)
        if failure == "interrupt":
            assert finished.value == 1
        assert self._contents(out) == before
        assert not self._leftovers(out)
        assert not multiprocessing.active_children()

    def test_an_interrupt_while_removing_the_earlier_episodes_leaves_the_new_run(
            self, bundle, earlier, monkeypatch):
        """A Ctrl-C that arrives after the earlier ``episodes/`` lost its first
        file waits until the swap and the removal are done: the directory holds
        the new run's four outputs, byte for byte."""
        out, _ = earlier
        rmtree = rundir.shutil.rmtree

        def interrupted(path, *args, **kwargs):
            monkeypatch.setattr(rundir.shutil, "rmtree", rmtree)  # only the first call
            sorted(Path(path).rglob("trace.json"))[0].unlink()
            signal.raise_signal(signal.SIGINT)
            return rmtree(path, *args, **kwargs)

        monkeypatch.setattr(rundir.shutil, "rmtree", interrupted)
        config = RunConfig(master_seed=8, repetitions=1, output_dir=str(out))
        with pytest.raises(KeyboardInterrupt):
            run_suite(config, bundle)
        contents, leftovers = self._contents(out), self._leftovers(out)
        shutil.rmtree(out)
        run_suite(config, bundle)
        assert contents == self._contents(out) and not leftovers

    def test_a_full_disk_writing_metrics_leaves_the_earlier_run(self, bundle, earlier,
                                                                monkeypatch):
        """The three top-level files are written before anything of the earlier
        run is touched, so failing at ``metrics.jsonl`` leaves its four outputs
        as they were.  The error names the file in ``out``, not in the staging
        directory the failed run removed."""
        out, before = earlier
        real_open = open

        def full_disk(file, *args, **kwargs):
            if not isinstance(file, int) and os.path.basename(file).startswith("metrics.jsonl"):
                raise OSError(errno.ENOSPC, "No space left on device", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", full_disk)
        with pytest.raises(OSError) as raised:
            run_suite(RunConfig(master_seed=8, repetitions=1, output_dir=str(out)), bundle)
        assert raised.value.errno == errno.ENOSPC
        assert raised.value.filename == str(out / "metrics.jsonl")
        assert self._contents(out) == before
        assert not self._leftovers(out)

    @pytest.mark.parametrize("failure", ["episode", "interrupt"])
    def test_a_failed_recording_leaves_no_temporary_file(self, bundle, tmp_path, monkeypatch,
                                                          failure):
        """The workers finish the episodes they are in, so the fixture store
        they fill holds no ``*.tmp`` of a write cut short."""
        calls, finished = self._fail_at_the_40th(monkeypatch, failure)
        store = tmp_path / "fixtures"
        with pytest.raises(KeyboardInterrupt if failure == "interrupt" else RuntimeError):
            record_suite(RunConfig(master_seed=8, repetitions=3, fixtures_dir=str(store),
                                   **self.NOISY), bundle)
        assert 40 <= calls.value < 3 * 31
        assert finished.value == (failure == "interrupt")
        assert len(list(store.rglob("*.json"))) >= 2 * 39
        assert not self._leftovers(store)
        assert not multiprocessing.active_children()

    def test_a_dead_worker_names_itself(self, bundle, earlier, monkeypatch):
        """Job 17 waits until the other 61 episodes have begun, then kills its
        own worker, so the episode that dies is the run's last to begin."""
        out, before = earlier
        tasks = evaluated_tasks(bundle)
        calls = multiprocessing.get_context("fork").Value("i", 0)
        run_one_episode = harness.run_one_episode

        def kills_its_worker_in_job_17(task, rep, memo):
            with calls.get_lock():
                calls.value += 1
            if rep * len(tasks) + tasks.index(task) == 17:
                deadline = time.monotonic() + 30
                while calls.value < 2 * len(tasks) and time.monotonic() < deadline:
                    time.sleep(0.001)
                os.kill(os.getpid(), signal.SIGKILL)
            return run_one_episode(task, rep, memo)

        monkeypatch.setattr(harness, "run_one_episode", kills_its_worker_in_job_17)
        with pytest.raises(OSError) as raised:
            run_suite(RunConfig(master_seed=8, repetitions=2, output_dir=str(out)), bundle)
        assert str(raised.value) == (f"{out / 'episodes'}: an episode worker died "
                                     f"(exit code {-signal.SIGKILL})")
        assert calls.value == 2 * 31
        assert self._contents(out) == before
        assert not self._leftovers(out)
        assert not multiprocessing.active_children()

    def test_a_dead_worker_stops_the_others(self, bundle, monkeypatch):
        """The parent sets stop as soon as a worker dies, so the other worker
        claims no episode after the one it is in."""
        tasks = evaluated_tasks(bundle)
        calls = multiprocessing.get_context("fork").Value("i", 0)
        run_one_episode = harness.run_one_episode

        def kills_its_worker_in_job_3(task, rep, memo):
            with calls.get_lock():
                calls.value += 1
            time.sleep(0.01)
            if rep * len(tasks) + tasks.index(task) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_one_episode(task, rep, memo)

        monkeypatch.setattr(harness, "run_one_episode", kills_its_worker_in_job_3)
        with pytest.raises(OSError, match=rf"an episode worker died \(exit code {-signal.SIGKILL}\)"):
            run_suite(RunConfig(master_seed=8, repetitions=2, output_dir=None), bundle)
        assert 4 <= calls.value < 31
        assert not multiprocessing.active_children()

    def test_a_worker_dying_with_the_claim_lock_does_not_hang_the_run(self, bundle,
                                                                      monkeypatch):
        """A worker killed at its claim, holding the lock: the other waits for
        the lock with a timeout, sees the stop the parent set and sends."""
        claims = multiprocessing.get_context("fork").Value("i", 0)
        fork_context = type(multiprocessing.get_context("fork"))
        new_lock = fork_context.Lock

        class DiesHoldingIt:
            def __init__(self, lock):
                self.lock = lock

            def acquire(self, *args, **kwargs):
                if not self.lock.acquire(*args, **kwargs):
                    return False
                with claims.get_lock():
                    claims.value += 1
                    count = claims.value
                if count == 10:
                    os.kill(os.getpid(), signal.SIGKILL)
                return True

            def release(self):
                self.lock.release()

        def hung(signum, frame):
            raise TimeoutError("the run hung")

        monkeypatch.setattr(fork_context, "Lock", lambda context: DiesHoldingIt(new_lock(context)))
        alarm = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)  # on a hang the parent leaves early, setting stop as it goes
        try:
            with pytest.raises(OSError, match=rf"an episode worker died \(exit code {-signal.SIGKILL}\)"):
                run_suite(RunConfig(master_seed=8, repetitions=2, output_dir=None), bundle)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, alarm)
        assert claims.value == 10
        assert not multiprocessing.active_children()

    def test_the_workers_stop_when_the_run_is_killed(self):
        """A worker checks at each claim that its parent lives, so a run killed
        with SIGKILL leaves no worker running the tens of seconds of episodes
        still unclaimed.  The workers share the run's stdout: its end of file
        says both exited."""
        code = ("import os\n"
                "from votetree import harness\n"
                "work = harness._work\n"
                "def announced(*args):\n"
                "    os.write(1, b'%d\\n' % os.getpid())  # one write: the workers' lines do not mix\n"
                "    work(*args)\n"
                "harness._work = announced\n"
                "harness._worker_count = lambda jobs: 2\n"
                "harness.run_suite(harness.RunConfig(master_seed=1, repetitions=2000, output_dir=None,\n"
                "                                    drop_prob=0.2, swap_prob=0.1, insert_prob=0.1))\n")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        run = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                               env={**os.environ, "PYTHONPATH": src})
        workers = []
        try:
            workers = [int(run.stdout.readline()) for _ in range(2)]
            time.sleep(0.2)
            run.kill()
            run.wait(30)
            ended, _, _ = select.select([run.stdout], [], [], 5)
            assert ended and run.stdout.read() == b""
        finally:
            run.kill()
            run.wait(30)
            run.stdout.close()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_a_slow_episode_does_not_hold_back_the_others(self, bundle, monkeypatch):
        """Job 0 sleeps 0.5 s; the other worker takes the jobs meanwhile."""
        tasks = evaluated_tasks(bundle)
        pids = multiprocessing.get_context("fork").Array("i", 2 * len(tasks))
        run_one_episode = harness.run_one_episode

        def job_0_sleeps(task, rep, memo):
            job = rep * len(tasks) + tasks.index(task)
            pids[job] = os.getpid()
            if job == 0:
                time.sleep(0.5)
            return run_one_episode(task, rep, memo)

        monkeypatch.setattr(harness, "run_one_episode", job_0_sleeps)
        run_suite(RunConfig(master_seed=8, repetitions=2, output_dir=None), bundle)
        assert all(pids) and len(set(pids)) == 2
        assert pids[1:].count(pids[0]) < 15

    def test_the_workers_start_before_any_thread(self, bundle, tmp_path, monkeypatch):
        """A synthetic run forks its workers before any thread starts and
        starts no thread at all; a remote run runs its episodes in threads
        and forks nothing."""
        threads_at_fork = []
        fork = os.fork

        def counted_fork():
            threads_at_fork.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        threads = threading.active_count()
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: pytest.fail(f"{thread} started"))
        run_suite(RunConfig(master_seed=3, repetitions=1, output_dir=str(tmp_path / "plain")),
                  bundle)
        assert threads_at_fork == [threads, threads]
        monkeypatch.undo()
        monkeypatch.setattr(os, "fork", counted_fork)
        _remote_via(monkeypatch, FakeTransport(bundle))
        run_suite(_remote_config(tmp_path, "remote"), bundle)
        assert threads_at_fork == [threads, threads]
        assert (tmp_path / "remote" / "out" / "episodes").is_dir()

    def test_a_remote_run_leaves_no_thread_behind(self, bundle, tmp_path, monkeypatch):
        """A remote run joins its episode and request pools before it returns,
        so a synthetic run right after it still forks its workers."""
        threads = threading.active_count()
        with monkeypatch.context() as remote:
            _remote_via(remote, FakeTransport(bundle))
            run_suite(_remote_config(tmp_path, "remote", output_dir=None), bundle)
        assert threading.active_count() == threads
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        run_suite(RunConfig(master_seed=3, repetitions=1, output_dir=None), bundle)
        assert forks == [threads, threads]

    def test_a_second_interrupt_while_cleaning_up_leaves_no_staging(self, bundle, earlier,
                                                                    monkeypatch):
        """Repetition 1 of an inline run fails, and a Ctrl-C arrives as the
        run starts removing its staging directory: the removal finishes, and
        the interrupt is raised after it."""
        out, before = earlier
        monkeypatch.setattr(harness, "_worker_count", lambda jobs: 1)
        run_one_episode = harness.run_one_episode

        def fails_in_repetition_1(task, rep, memo):
            if rep == 1:
                raise RuntimeError("episode")
            return run_one_episode(task, rep, memo)

        rmtree = rundir.shutil.rmtree

        def interrupted_rmtree(path, *args, **kwargs):
            os.kill(os.getpid(), signal.SIGINT)
            return rmtree(path, *args, **kwargs)

        monkeypatch.setattr(harness, "run_one_episode", fails_in_repetition_1)
        monkeypatch.setattr(rundir.shutil, "rmtree", interrupted_rmtree)
        with pytest.raises(KeyboardInterrupt):
            run_suite(RunConfig(master_seed=8, repetitions=2, output_dir=str(out)), bundle)
        monkeypatch.undo()
        assert self._contents(out) == before
        assert not self._leftovers(out)

    def test_a_caller_with_threads_runs_its_episodes_inline(self, bundle, tmp_path,
                                                            monkeypatch):
        config = RunConfig(master_seed=3, repetitions=1, output_dir=None, **self.NOISY)
        forked = run_suite(config, bundle)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        release = threading.Event()
        waiting = threading.Thread(target=release.wait, args=(30,))
        waiting.start()
        try:
            inline = run_suite(config, bundle)
        finally:
            release.set()
            waiting.join(30)
        assert not waiting.is_alive()
        assert inline.episodes == forked.episodes

    def test_the_earliest_failing_episode_in_run_order_is_raised(self, bundle, monkeypatch):
        """Task 1 fails after task 2 has; the run raises task 1's error, the
        one the inline run raises."""
        tasks = [task.task_name for task in evaluated_tasks(bundle)]
        make_provider = harness.make_provider

        class FailsForTwoTasks:
            def __init__(self, config, task, scene):
                self.task = task.task_name
                self.provider = make_provider(config, task, scene)

            def generate(self, prompt, config):
                if self.task == tasks[1]:
                    time.sleep(0.05)
                    raise ProviderError("one")
                if self.task == tasks[2]:
                    raise ProviderError("two")
                return self.provider.generate(prompt, config)

        monkeypatch.setattr(harness, "make_provider", FailsForTwoTasks)
        config = RunConfig(master_seed=3, repetitions=1, output_dir=None)
        with pytest.raises(ProviderError) as forked:
            run_suite(config, bundle)
        monkeypatch.setattr(harness, "_worker_count", lambda jobs: 1)
        with pytest.raises(ProviderError) as inline:
            run_suite(config, bundle)
        assert str(forked.value) == str(inline.value) == f"task {tasks[1]!r}, repetition 0: one"
        assert not multiprocessing.active_children()

    def test_outputs_do_not_depend_on_the_worker_count(self, bundle, tmp_path, monkeypatch):
        for workers in (1, 2, 3):
            monkeypatch.setattr(harness, "_worker_count", lambda jobs, w=workers: min(w, jobs))
            run_suite(RunConfig(master_seed=7, repetitions=2, output_dir=str(tmp_path / f"out-{workers}"),
                                **self.NOISY), bundle)
            record_suite(RunConfig(master_seed=7, repetitions=2,
                                   fixtures_dir=str(tmp_path / f"store-{workers}"), **self.NOISY),
                         bundle)
        for part in ("out", "store"):
            one, two, three = (_files(tmp_path / f"{part}-{w}") for w in (1, 2, 3))
            assert one == two == three
            assert len(one) == {"out": 2 * 2 * 31 + 2, "store": 2 * 2 * 31}[part]

    def test_an_unusable_output_dir_fails_before_any_request(self, bundle, tmp_path, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("a file", encoding="utf-8")
        sent = []
        _remote_via(monkeypatch, sent.append)
        with pytest.raises(OSError):
            run_suite(_remote_config(tmp_path, "remote", output_dir=str(taken / "out")), bundle)
        with pytest.raises(OSError):
            run_suite(_remote_config(tmp_path, "remote", output_dir=str(taken)), bundle)
        assert sent == [] and not (tmp_path / "remote").exists()
        assert taken.read_text(encoding="utf-8") == "a file"


class TestNoPlan:
    """A task with nothing to execute is a failed episode, not a failed suite."""

    def test_empty_command_pool_scores_a_failed_episode(self, bundle, tmp_path):
        result = run_suite(RunConfig(master_seed=3, repetitions=2, drop_prob=1.0,
                                     output_dir=str(tmp_path)), bundle)
        assert len(result.episodes) == 2 * 31
        for record in result.episodes:
            assert (record["termination"], record["gcr"], record["exec"], record["steps"],
                    record["pool_size"]) == ("no_plan", 0.0, 0.0, 0, 0)
        assert (result.row.sr_mean, result.row.gcr_mean, result.row.exec_mean) == (0.0, 0.0, 0.0)
        trace = json.loads(next((tmp_path / "episodes").glob("*/1/trace.json"))
                           .read_text(encoding="utf-8"))
        assert trace["steps"] == [] and trace["termination"] == "no_plan"
        assert "empty_command_pool" in trace["error"]

    def test_reorder_samples_that_all_parse_empty(self, bundle, monkeypatch):
        class GarbageReorder:
            def generate(self, prompt, config):
                text = "find('salmon')\n" if prompt.kind == "prog" else "not a plan\n"
                return [text] * config.num_samples

        monkeypatch.setattr(harness, "make_provider", lambda config, task, scene: GarbageReorder())
        task = next(t for t in bundle.tasks if t.task_name == "microwave salmon")
        memo = RunMemo(RunConfig(master_seed=1), bundle, [task])
        episode, artifacts = run_one_episode(task, 0, memo)
        assert episode.trace.termination == "no_plan" and episode.trace.steps == ()
        assert artifacts.pool_size == 1 and artifacts.root.children == {}
        assert sum(d.endswith(": degenerate_sample_dropped") for d in artifacts.diagnostics) == 20
        assert "no_plans" in artifacts.error

    def test_one_empty_reorder_text_is_parsed_once_and_reported_per_sample(self, bundle,
                                                                           monkeypatch):
        class EmptyReorder:
            def generate(self, prompt, config):
                return ["find('salmon')\n" if prompt.kind == "prog" else ""] * config.num_samples

        parsed, pooled = [], []
        parse_plan_text = harness.parse_plan_text
        extract_unique_commands = harness.extract_unique_commands

        def counted(text, *args):
            parsed.append(text)
            return parse_plan_text(text, *args)

        def pooling(plans):
            pooled.extend(plans)
            return extract_unique_commands(plans)

        monkeypatch.setattr(harness, "make_provider", lambda config, task, scene: EmptyReorder())
        monkeypatch.setattr(harness, "parse_plan_text", counted)
        monkeypatch.setattr(harness, "extract_unique_commands", pooling)
        task = next(t for t in bundle.tasks if t.task_name == "microwave salmon")
        memo = RunMemo(RunConfig(master_seed=1), bundle, [task])
        episode, artifacts = run_one_episode(task, 0, memo)
        assert parsed == ["find('salmon')\n", ""]
        assert len(pooled) == 30
        assert len(set(pooled)) == 1
        assert artifacts.diagnostics == [
            f"reorder[{k}]: {code}" for k in range(20)
            for code in ("no_commands_found", "degenerate_sample_dropped")]
        assert episode.trace.termination == "no_plan" and "no_plans" in artifacts.error


class TestPlanDiff:
    def _trace(self, world, state, commands):
        tree = build_vote_tree([plan_of(*commands)])
        return execute_tree(tree, world.execute, state, ExecutionMode(kind="no_correction"))

    @pytest.fixture
    def fridge_world(self, bundle):
        scene = load_scene(
            {
                "scene_id": "diff",
                "objects": [
                    {"id": "fridge", "properties": ["CAN_OPEN", "CONTAINER"]},
                    {"id": "salmon", "properties": ["GRABBABLE", "EATABLE"]},
                    {"id": "microwave", "properties": ["CAN_OPEN", "CONTAINER", "HAS_SWITCH"]},
                ],
                "init": ["CLOSED(fridge)", "CLOSED(microwave)", "OFF(microwave)"],
            }
        )
        return World(bundle.catalog, scene.objects), scene.initial_state

    def test_duplicate_find_flagged_redundant(self, fridge_world):
        world, state = fridge_world
        trace = self._trace(world, state, ["find(salmon)", "find(microwave)", "find(microwave)"])
        statuses, _ = classify(trace.steps, trace.steps)
        assert statuses[2] == "redundant"
        assert statuses[1] != "redundant"

    def test_identical_traces_have_no_flags(self, fridge_world):
        world, state = fridge_world
        commands = ["find(salmon)", "grab(salmon)", "find(fridge)", "open(fridge)"]
        trace = self._trace(world, state, commands)
        statuses, _ = classify(trace.steps, trace.steps)
        assert all(status == "shared-necessary" for status in statuses)
        report = plan_diff_report(trace.steps, trace.steps, labels=("a", "b"))
        assert report.endswith("both traces have the same length.\n")

    def test_adjacent_open_close_pair_flagged(self, fridge_world):
        world, state = fridge_world
        trace = self._trace(world, state, ["find(fridge)", "open(fridge)", "close(fridge)"])
        statuses, _ = classify(trace.steps, trace.steps)
        assert statuses[1] == "redundant" and statuses[2] == "redundant"

    def test_erroneous_takes_priority(self, fridge_world):
        world, state = fridge_world
        trace = self._trace(world, state, ["grab(salmon)"])  # fails: not close
        statuses, _ = classify(trace.steps, trace.steps)
        assert statuses[0] == "erroneous"

    def test_render_mentions_lengths(self, fridge_world):
        world, state = fridge_world
        a = self._trace(world, state, ["find(salmon)", "grab(salmon)"])
        b = self._trace(world, state, ["find(salmon)"])
        text = plan_diff_report(a.steps, b.steps, labels=("long", "short"))
        assert "long (2 commands" in text
        assert "short is strictly shorter (1 vs 2 commands)." in text
