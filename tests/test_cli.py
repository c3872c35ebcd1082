import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from votetree import cli, harness, world
from votetree.cli import main
from votetree.executor import TERMINATE_CHILDLESS, TERMINATIONS
from votetree.harness import RunConfig, record_suite, run_suite
from votetree.prompts import DATA_DIR, instruction_slug, seen_task_names


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "plans.txt"
    path.write_text(
        "--- sample 0 ---\nfind('a')\ngrab('a')\n"
        "--- sample 1 ---\nfind('a')\ngrab('a')\n"
        "--- sample 2 ---\nfind('a')\nfind('b')\n",
        encoding="utf-8",
    )
    return path


def test_build_tree_writes_serialized_tree(tmp_path, corpus_file, capsys):
    out = tmp_path / "tree.json"
    rc = main(["build-tree", "--corpus", str(corpus_file), "--out", str(out), "--outline"])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["vote"] == 3
    find_a = next(c for c in doc["children"] if c["command"] == "find(a)")
    assert find_a["vote"] == 3
    assert "vote=3" in capsys.readouterr().out


def test_execute_runs_tree_against_scene(tmp_path, corpus_file, capsys):
    scene = {
        "scene_id": "cli",
        "objects": [
            {"id": "a", "properties": ["GRABBABLE"]},
            {"id": "b", "properties": []},
        ],
        "init": [],
    }
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene), encoding="utf-8")
    tree_path = tmp_path / "tree.json"
    main(["build-tree", "--corpus", str(corpus_file), "--out", str(tree_path)])
    capsys.readouterr()

    trace_path = tmp_path / "trace.json"
    rc = main(["execute", "--tree", str(tree_path), "--scene", str(scene_path),
               "--out", str(trace_path)])
    assert rc == 0
    doc = json.loads(trace_path.read_text(encoding="utf-8"))
    assert doc["termination"] == "completed"
    assert [s["command"] for s in doc["steps"]] == ["find(a)", "grab(a)"]


def test_out_files_are_replaced_atomically(tmp_path, corpus_file, capsys, monkeypatch):
    """``--out`` of build-tree and execute writes by rename: a write that
    fails leaves the old file and no ``*.tmp``, and a missing parent
    directory is made."""
    tree_path = tmp_path / "new" / "tree.json"
    assert main(["build-tree", "--corpus", str(corpus_file), "--out", str(tree_path)]) == 0
    execute = ["execute", "--tree", str(tree_path),
               "--scene", str(DATA_DIR / "scenes" / "scene1.json")]
    assert main([*execute, "--out", str(tmp_path / "new" / "trace.json")]) == 0

    def fails(src, dst):
        raise OSError(28, "No space left on device", str(dst))

    monkeypatch.setattr(os, "replace", fails)
    old = tmp_path / "old.json"
    old.write_text("old\n", encoding="utf-8")
    for argv in (["build-tree", "--corpus", str(corpus_file)], execute):
        assert main([*argv, "--out", str(old)]) == 1
        assert old.read_text(encoding="utf-8") == "old\n"
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [
        "old.json", "trace.json", "tree.json"]


def test_execute_reads_only_the_action_catalog(tmp_path, corpus_file, capsys, monkeypatch):
    """Without ``--actions`` execute reads the bundled action catalog, as a run
    does, and no scene or task file but its own ``--scene``."""
    tree_path = tmp_path / "tree.json"
    main(["build-tree", "--corpus", str(corpus_file), "--out", str(tree_path)])
    monkeypatch.setattr(world, "load_scene", None)  # what load_dataset calls
    monkeypatch.setattr(world, "load_tasks", None)
    scene = str(DATA_DIR / "scenes" / "scene1.json")
    traces = []
    for actions in ([], ["--actions", str(DATA_DIR / "actions.json")]):
        out = tmp_path / f"trace{len(traces)}.json"
        assert main(["execute", "--tree", str(tree_path), "--scene", scene, "--out", str(out),
                     *actions]) == 0
        traces.append(out.read_bytes())
    assert traces[0] == traces[1] and json.loads(traces[0])["steps"]


def test_execute_reproduces_every_episode_of_a_run(tmp_path, capsys):
    """``votetree execute`` on an episode's tree.json gives that episode's
    trace.json steps and termination, under either termination rule and for
    the empty tree of an episode with no plan (``no_plan``): executing an
    episode reads nothing but its tree and its scene."""
    noisy = {"drop_prob": 0.2, "swap_prob": 0.1, "insert_prob": 0.1}
    runs = [(termination, noisy) for termination in TERMINATIONS]
    runs.append((TERMINATE_CHILDLESS, {"drop_prob": 1.0}))
    for number, (termination, noise) in enumerate(runs):
        out = tmp_path / str(number)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "master_seed": 1, "repetitions": 1, **noise, "mode": "with_correction",
            "selection": "max_vote", "termination": termination, "output_dir": str(out),
        }), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 0
        lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
        episodes = [r for r in map(json.loads, lines) if r["kind"] == "episode"]
        assert len(episodes) == 31
        for record in episodes:
            episode_dir = out / "episodes" / instruction_slug(record["task"]) / "0"
            replayed = tmp_path / "replayed.json"
            assert main(["execute", "--tree", str(episode_dir / "tree.json"),
                         "--scene", str(DATA_DIR / "scenes" / f"{record['scene']}.json"),
                         "--actions", str(DATA_DIR / "actions.json"),
                         "--termination", termination, "--out", str(replayed)]) == 0
            expected = json.loads((episode_dir / "trace.json").read_text(encoding="utf-8"))
            got = json.loads(replayed.read_text(encoding="utf-8"))
            assert (got["termination"], got["steps"]) == (expected["termination"],
                                                          expected["steps"])


def test_execute_repeats_a_random_walk_and_ends_an_empty_tree_no_plan(tmp_path, capsys):
    """``votetree execute`` with random selection and one seed writes the same
    bytes twice for a tree of a noisy run, and ends the empty tree of a run
    with no plan ``no_plan`` without correction as with it."""
    for name, noise in (("noisy", {"drop_prob": 0.2, "swap_prob": 0.1, "insert_prob": 0.1}),
                        ("no-plan", {"drop_prob": 1.0})):
        run_suite(RunConfig(master_seed=1, repetitions=1, output_dir=str(tmp_path / name), **noise))

    def first_episode(out):
        """The --tree and --scene of the run's first episode."""
        record = json.loads((out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()[1])
        return ["--tree", str(out / "episodes" / instruction_slug(record["task"]) / "0" /
                              "tree.json"),
                "--scene", str(DATA_DIR / "scenes" / f"{record['scene']}.json")]

    traces = []
    for n in range(2):
        out = tmp_path / f"random-{n}.json"
        assert main(["execute", *first_episode(tmp_path / "noisy"), "--selection", "random",
                     "--seed", "7", "--out", str(out)]) == 0
        traces.append(out.read_bytes())
    assert traces[0] == traces[1] and json.loads(traces[0])["steps"]
    for mode in ("with_correction", "no_correction"):
        out = tmp_path / f"{mode}.json"
        assert main(["execute", *first_episode(tmp_path / "no-plan"), "--mode", mode,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == {"termination": "no_plan",
                                                                "steps": []}


def test_run_metrics_and_determinism(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    record_cfg = RunConfig(master_seed=2, provider="synthetic", fixtures_dir=str(fixtures),
                           output_dir=None)
    record_suite(record_cfg)

    cfg = RunConfig(master_seed=2, provider="replay", fixtures_dir=str(fixtures),
                    repetitions=2, output_dir=None)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg._asdict()), encoding="utf-8")

    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(out2)]) == 0
    second = capsys.readouterr().out
    assert first.splitlines()[:3] == second.splitlines()[:3]
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    assert main(["metrics", "--results", str(out1)]) == 0
    recomputed = capsys.readouterr().out
    assert recomputed.strip() == (out1 / "summary.txt").read_text(encoding="utf-8").strip()


def test_diff_command(tmp_path, capsys):
    """The whole report: a repeated command, an adjacent open/close pair and a
    failed step on the longer side, a trace diffed with itself, and a trace
    whose successful retry of a failed command is no repeat."""
    def step(command, outcome="success", **reason):
        return {"command": command, "outcome": outcome, **reason}

    traces = {
        "a": [step("find(salmon)"), step("find(fridge)"), step("find(fridge)"),
              step("open(fridge)"), step("close(fridge)"),
              step("grab(salmon)", "failure", reason="not close to salmon"),
              step("find(microwave)")],
        "b": [step("find(salmon)"), step("grab(salmon)"), step("find(table)")],
        "retry": [step("find(bread)"), step("cut(bread)", "failure", reason="not holding knife"),
                  step("find(knife)"), step("cut(bread)")],
    }
    for name, steps in traces.items():
        doc = {"termination": "completed", "steps": [{"idx": i, **s} for i, s in enumerate(steps)]}
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")

    assert main(["diff", "--trace-a", pa, "--trace-b", pb,
                 "--label-a", "baseline", "--label-b", "votetree"]) == 0
    assert capsys.readouterr().out == (
        "baseline (7 commands, 1 duplicates)\n"
        "   0. find(salmon)                             [shared-necessary]\n"
        "   1. find(fridge)                             [unique]\n"
        "   2. find(fridge)                             [redundant]\n"
        "   3. open(fridge)                             [redundant]\n"
        "   4. close(fridge)                            [redundant]\n"
        "   5. grab(salmon)                             [erroneous]\n"
        "   6. find(microwave)                          [unique]\n"
        "\n"
        "votetree (3 commands, 0 duplicates)\n"
        "   0. find(salmon)                             [shared-necessary]\n"
        "   1. grab(salmon)                             [shared-necessary]\n"
        "   2. find(table)                              [unique]\n"
        "\n"
        "votetree is strictly shorter (3 vs 7 commands).\n"
    )

    assert main(["diff", "--trace-a", pb, "--trace-b", pb]) == 0
    assert capsys.readouterr().out == (
        "a (3 commands, 0 duplicates)\n"
        "   0. find(salmon)                             [shared-necessary]\n"
        "   1. grab(salmon)                             [shared-necessary]\n"
        "   2. find(table)                              [shared-necessary]\n"
        "\n"
        "b (3 commands, 0 duplicates)\n"
        "   0. find(salmon)                             [shared-necessary]\n"
        "   1. grab(salmon)                             [shared-necessary]\n"
        "   2. find(table)                              [shared-necessary]\n"
        "\n"
        "both traces have the same length.\n"
    )

    retry = str(tmp_path / "retry.json")
    assert main(["diff", "--trace-a", retry, "--trace-b", retry]) == 0
    side = (
        "(4 commands, 0 duplicates)\n"
        "   0. find(bread)                              [shared-necessary]\n"
        "   1. cut(bread)                               [erroneous]\n"
        "   2. find(knife)                              [shared-necessary]\n"
        "   3. cut(bread)                               [shared-necessary]\n"
        "\n"
    )
    assert capsys.readouterr().out == f"a {side}b {side}both traces have the same length.\n"


@pytest.mark.parametrize("command, target", [("run", "output_dir"), ("record", "fixtures_dir")])
def test_master_seed_option_overrides_the_config(tmp_path, capsys, command, target):
    """``--master-seed`` replaces the config's seed: the run's files, or the
    store a recording fills, are those of a config with that seed."""
    written = {}
    for name, seed, option in (("option", 1, ["--master-seed", "5"]), ("config", 5, [])):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"master_seed": seed, "repetitions": 1, "drop_prob": 0.2,
                                        "output_dir": None, target: str(tmp_path / name)}),
                            encoding="utf-8")
        assert main([command, "--config", str(cfg_path), *option]) == 0
        root = tmp_path / name
        written[name] = {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*")
                         if p.is_file() and p.name != "run_config.json"}
    assert written["option"] and written["option"] == written["config"]


def test_run_options_are_recorded_in_run_config_json(tmp_path, capsys):
    """``run --master-seed N --output-dir D`` runs the file's config with N and
    D in place of its own, and ``run_config.json`` records that config."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"master_seed": 1, "repetitions": 1, "drop_prob": 0.2,
                                    "output_dir": str(tmp_path / "unused")}), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg_path), "--master-seed", "9", "--output-dir", str(out)]
    assert main(argv) == 0
    recorded = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
    assert recorded == {**RunConfig()._asdict(), "master_seed": 9, "repetitions": 1,
                        "drop_prob": 0.2, "output_dir": str(out)}
    assert not (tmp_path / "unused").exists()


def test_record_command(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    cfg = RunConfig(master_seed=4, provider="synthetic", fixtures_dir=str(fixtures),
                    output_dir=None)
    cfg_path = tmp_path / "record.json"
    cfg_path.write_text(json.dumps(cfg._asdict()), encoding="utf-8")
    assert main(["record", "--config", str(cfg_path)]) == 0
    assert "recorded" in capsys.readouterr().out
    assert any(fixtures.iterdir())


def test_replaying_a_sample_that_is_not_a_string_is_a_typed_error(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    record_suite(RunConfig(master_seed=4, repetitions=1, fixtures_dir=str(fixtures),
                           drop_prob=0.2, swap_prob=0.1, insert_prob=0.1))
    path = sorted(fixtures.glob("*/prog/*.json"))[0]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["samples"][3] = 3
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps({"master_seed": 4, "repetitions": 1, "provider": "replay",
                                    "fixtures_dir": str(fixtures), "output_dir": None}),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert f"{path}: sample 3 is 3, not a string or null" in captured.err


def test_run_with_an_empty_command_pool_scores_every_episode_no_plan(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"master_seed": 5, "repetitions": 1, "drop_prob": 1.0}),
                        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    records = [json.loads(line) for line in
               (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
    episodes = [r for r in records if r["kind"] == "episode"]
    assert len(episodes) == 31
    assert {r["termination"] for r in episodes} == {"no_plan"}


def test_run_without_fork_runs_inline(tmp_path, capsys, monkeypatch):
    """Where the platform has no ``fork`` start method, a run's episodes run
    inline and write the bytes a run in forked workers writes."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"master_seed": 1, "repetitions": 2, "drop_prob": 0.2,
                                    "swap_prob": 0.1, "insert_prob": 0.1}), encoding="utf-8")
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(harness, "_worker_count", lambda jobs: min(2, jobs))
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "forked")]) == 0
    assert len(forks) == 2

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "inline")]) == 0
    assert len(forks) == 2
    assert "error" not in capsys.readouterr().err

    def files(root):
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != "run_config.json"}

    forked, inline = files(tmp_path / "forked"), files(tmp_path / "inline")
    assert len(forked) == 2 * 2 * 31 + 2 and forked == inline


def test_an_interrupted_run_prints_one_line(tmp_path, capsys, monkeypatch):
    def interrupted(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_suite", interrupted)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"master_seed": 1, "repetitions": 1}), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n" and "Traceback" not in captured.out


def test_error_paths_return_nonzero(tmp_path, capsys):
    cfg = dict(RunConfig(output_dir=None)._asdict(), provider="replay")  # no master seed, no fixtures
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, named", [
    ({"repetitions": 0}, "repetitions"),
    ({"repetitions": "3"}, "repetitions"),
    ({"repetitions": 2.0}, "repetitions"),
    ({"provider": "bogus"}, "provider"),
    ({"mode": "bogus"}, "mode"),
    ({"selection": "bogus"}, "selection"),
    ({"termination": "bogus"}, "termination"),
    ({"provider": "replay"}, "fixtures_dir"),
    ({"provider": "remote"}, "fixtures_dir"),
    ({"method_label": 5}, "method_label"),
    ({"include_seen": "no"}, "include_seen"),
    ({"include_seen": 1}, "include_seen"),
    ({"dataset": 5}, "dataset"),
    ({"scenes_dir": 5}, "scenes_dir"),
    ({"actions": ["actions.json"]}, "actions"),
    ({"fixtures_dir": 5}, "fixtures_dir"),
    ({"output_dir": 5}, "output_dir"),
    ({"remote_endpoint": None}, "remote_endpoint"),
    ({"remote_model": 5}, "remote_model"),
    ({"remote_api_key_env": None}, "remote_api_key_env"),
])
def test_bad_run_config_fails_before_any_episode(tmp_path, capsys, overrides, named):
    out = tmp_path / "results"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"master_seed": 1, "output_dir": str(out), **overrides}),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("overrides, named", [
    ({"prog_num_samples": "30"}, "prog_num_samples"),
    ({"prog_num_samples": 0}, "prog_num_samples"),
    ({"reorder_num_samples": True}, "reorder_num_samples"),
    ({"max_length": 0}, "max_length"),
    ({"step_limit": 0}, "step_limit"),
    ({"step_limit": 2.5}, "step_limit"),
    ({"remote_retries": 0}, "remote_retries"),
    ({"master_seed": "x"}, "master_seed"),
    ({"master_seed": 1.0}, "master_seed"),
    ({"prog_temperature": -0.1}, "prog_temperature"),
    ({"reorder_temperature": "0.65"}, "reorder_temperature"),
    ({"remote_timeout": 0}, "remote_timeout"),
    ({"drop_prob": 1.5}, "drop_prob"),
    ({"swap_prob": -0.1}, "swap_prob"),
    ({"insert_prob": float("nan")}, "insert_prob"),
])
def test_bad_numeric_run_config_fails_before_any_episode(tmp_path, capsys, overrides, named):
    out = tmp_path / "results"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"master_seed": 1, "output_dir": str(out), **overrides}),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_remote_run_with_a_bad_step_limit_sends_no_request(tmp_path, capsys, monkeypatch):
    opened: list = []
    monkeypatch.setenv("VOTETREE_API_KEY", "test-key")
    monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **kw: opened.append(a))
    cfg_path = tmp_path / "remote.json"
    cfg_path.write_text(json.dumps({
        "master_seed": 1, "provider": "remote", "remote_endpoint": "https://example.invalid/v1",
        "remote_model": "m", "fixtures_dir": str(tmp_path / "cache"), "step_limit": 0,
        "output_dir": str(tmp_path / "results"),
    }), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "step_limit" in capsys.readouterr().err
    assert opened == []
    assert not (tmp_path / "cache").exists()


def test_a_remote_run_without_an_endpoint_writes_no_store(tmp_path, capsys, monkeypatch):
    """The default ``remote_endpoint``, empty, is refused before any request is
    sent and before any store file or output is written."""
    opened: list = []
    monkeypatch.setenv("VOTETREE_API_KEY", "test-key")
    monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **kw: opened.append(a))
    cfg_path = tmp_path / "remote.json"
    cfg_path.write_text(json.dumps({"master_seed": 1, "repetitions": 1, "provider": "remote",
                                    "fixtures_dir": str(tmp_path / "store")}), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.err.endswith(": remote endpoint '' is not an http(s) URL\n")
    assert opened == [] and not (tmp_path / "store").exists()
    assert list((tmp_path / "out").iterdir()) == []


def test_the_entry_point_exits_1_on_a_refusal(tmp_path):
    """``python -m votetree.cli`` as a process: a refusal goes through
    ``sys.exit(main())`` to exit status 1, ``error: `` first, no traceback."""
    config = tmp_path / "latin1.json"
    config.write_bytes(b"\xff")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "votetree.cli", "run", "--config", str(config)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_unreadable_inputs_fail_without_traceback(tmp_path, capsys, corpus_file):
    not_json = tmp_path / "run.json"
    not_json.write_text("{master_seed: 1", encoding="utf-8")
    not_objects = []
    for name, doc in (("list", "[]"), ("null", "null"), ("number", "3")):
        not_objects.append(tmp_path / f"{name}.json")
        not_objects[-1].write_text(doc, encoding="utf-8")
    missing = str(tmp_path / "missing.json")
    tree = tmp_path / "tree.json"
    main(["build-tree", "--corpus", str(corpus_file), "--out", str(tree)])
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"scene_id": "cli", "objects": [], "init": []}), encoding="utf-8")
    run_record = json.dumps({"kind": "run", "method": "m", "repetitions": 1, "master_seed": 1})
    no_gcr = json.dumps({"kind": "episode", "rep": 0, "task_index": 0, "exec": 1.0})
    text_gcr = json.dumps({"kind": "episode", "rep": 0, "task_index": 0, "gcr": "x", "exec": 1.0})
    int_method = json.dumps({"kind": "run", "method": 5, "repetitions": 1, "master_seed": 1})
    for name, lines in (("bad-line", [run_record, "3"]), ("no-gcr", [run_record, no_gcr]),
                        ("text-gcr", [run_record, text_gcr]), ("int-method", [int_method, no_gcr.replace('"exec"', '"gcr": 1.0, "exec"')]),
                        ("header-only", [run_record])):
        (tmp_path / name).mkdir()
        (tmp_path / name / "metrics.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    documents = {"no-vote": {"command": None, "children": []},
                 "no-steps": {"termination": "completed"},
                 "bad-command": {"steps": [{"idx": 0, "command": "find apple", "outcome": "success"}]},
                 "empty-trace": {"steps": []},
                 "no-command": {"command": None, "vote": 2,
                                "children": [{"vote": 2, "end_marker": True, "children": []}]},
                 "float-vote": {"command": None, "vote": 1.5, "children": []},
                 "bool-vote": {"command": None, "vote": True, "children": []},
                 "string-end-marker": {"command": None, "vote": 1, "end_marker": "false",
                                       "children": []},
                 "misspelt-outcome": {"steps": [{"idx": 0, "command": "find(apple)",
                                                 "outcome": "succes"}]},
                 "string-idx": {"steps": [{"idx": "0", "command": "find(apple)",
                                           "outcome": "success"}]},
                 "int-node": {"command": None, "vote": 1, "children": [3]},
                 "int-children": {"command": None, "vote": 1, "children": 3},
                 "int-command": {"command": None, "vote": 1,
                                 "children": [{"command": 3, "vote": 1, "children": []}]}}
    for name, doc in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    catalog = json.loads((DATA_DIR / "actions.json").read_text(encoding="utf-8"))
    action = {entry["name"]: entry for entry in catalog}

    def edited(name, key, value):
        """The bundled catalog with action ``name``'s ``key`` set to ``value``."""
        return json.dumps([{**e, key: value} if e["name"] == name else e for e in catalog]).encode()

    def extended(name):
        """The bundled catalog and one more action, a copy of find named ``name``."""
        return json.dumps(catalog + [{**action["find"], "name": name}]).encode()

    files = {"latin1.json": b"\xff", "latin1-corpus.txt": b"\xff", "latin1-tasks.json": b"\xff",
             "latin1-scenes/s.json": b"\xff", "latin1-results/metrics.jsonl": b"\xff",
             "string-task.json": b'["put apple in fridge"]',
             "string-entry-tasks.json": b'[{"task_name": "wash mug", "scene_id": "scene1", '
                                        b'"goal_plan": ["find(mug)"]}, "apple"]',
             "string-entry-actions.json": json.dumps([catalog[0], "find"]).encode(),
             "int-init/s.json": b'{"scene_id": "kitchen", "objects": [], "init": [3]}',
             "string-init/s.json": b'{"scene_id": "kitchen", "objects": [], "init": "OPEN(x)"}',
             "string-plan-tasks.json": b'[{"task_name": "wash mug", "scene_id": "scene1", '
                                       b'"goal_plan": "find(mug)"}]',
             "int-plan-tasks.json": b'[{"task_name": "wash mug", "scene_id": "scene1", '
                                    b'"goal_plan": [3]}]',
             "string-goals-tasks.json": b'[{"task_name": "wash mug", "scene_id": "scene1", '
                                        b'"goal_plan": ["find(mug)"], "goal_conditions": '
                                        b'"OPEN(mug)"}]',
             "object-tasks.json": b"{}", "object-actions.json": b"{}", "not-json-tasks.json": b"[{",
             "binary-open-actions.json": edited("find", "add",
                                                action["find"]["add"] + ["OPEN(?1, agent)"]),
             "unary-inside-actions.json": edited("open", "preconditions",
                                                 action["open"]["preconditions"] + ["INSIDE(?1)"]),
             "hands-free-add-actions.json": edited("find", "add",
                                                   action["find"]["add"] + ["HANDS_FREE(agent)"]),
             "negated-add-actions.json": edited("open", "add", action["open"]["add"] + ["!OPEN(?1)"]),
             "string-required-actions.json": edited("grab", "required_properties", ["GRABBABLE"]),
             "int-name-actions.json": edited("open", "name", 5),
             "float-arity-actions.json": edited("grab", "arity", 1.5),
             "bool-arity-actions.json": edited("grab", "arity", True),
             "empty-name-actions.json": extended(""),
             "star-name-actions.json": extended("*"),
             "call-name-actions.json": extended("find(x)"),
             "newline-name-actions.json": extended("find\n"),
             "duplicate-find-actions.json": extended("find"),
             "unlisted-required-actions.json": edited("grab", "required_properties", "GRABBABLE"),
             "two-required-actions.json": edited("grab", "required_properties", [["GRABBABLE"], []]),
             "unparsed-template-actions.json": edited(
                 "open", "preconditions", action["open"]["preconditions"] + ["OPEN fridge"]),
             "flying-actions.json": edited("open", "add", ["FLYING(?1)"]),
             "undeclared-parameter-actions.json": edited("open", "add", ["INSIDE(?1, ?2)"]),
             "wildcard-precondition-actions.json": edited("find", "preconditions",
                                                          ["CLOSE_TO(agent, *)"]),
             "literal-actions.json": edited("grab", "add",
                                            action["grab"]["add"] + ["ON_TOP(?1, table)"]),
             "string-properties/s.json": b'{"scene_id": "kitchen", "objects": '
                                         b'[{"id": "apple", "properties": "GRABBABLE"}], "init": []}',
             "int-name-tasks.json": b'[{"task_name": 5, "scene_id": "scene1", '
                                    b'"goal_plan": ["find(\'salmon\')"]}]',
             "nowhere-tasks.json": b'[{"task_name": "wash mug", "scene_id": "nowhere", '
                                   b'"goal_plan": ["find(mug)"]}]',
             "seen-tasks.json": json.dumps([t for t in json.loads(
                 (DATA_DIR / "tasks.json").read_text(encoding="utf-8"))
                 if t["task_name"] in seen_task_names()]).encode()}
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    for name, edit in (("int-id", lambda d: d["objects"].append({"id": 7, "class_name": "seven"})),
                       ("list-scene-id", lambda d: d.update(scene_id=[d["scene_id"]])),
                       ("newline-class", lambda d: d["objects"][0].update(
                           class_name=d["objects"][0]["class_name"] + "\n")),
                       ("int-class", lambda d: d["objects"][0].update(class_name=5)),
                       ("upper-class", lambda d: d["objects"][0].update(class_name="Apple")),
                       ("string-properties-bad-class", lambda d: d["objects"][0].update(
                           properties="CAN_OPEN", class_name="X")),
                       ("agent-bad-class", lambda d: d["objects"].append(
                           {"id": "agent", "class_name": "Bad"})),
                       ("string-objects", lambda d: d.update(objects="apple")),
                       ("string-entry", lambda d: d["objects"].insert(1, "apple")),
                       ("no-scene-id", lambda d: d.pop("scene_id")),
                       ("agent-object", lambda d: d["objects"].append({"id": "agent"})),
                       ("call-id", lambda d: d["objects"].append(
                           {"id": "find(x)", "class_name": "apple"})),
                       ("empty-id", lambda d: d["objects"].append({"id": "", "class_name": "apple"})),
                       *((name, lambda d, text=text: d["init"].append(text))
                         for name, text in (("binary-open-init", "OPEN(fridge, microwave)"),
                                            ("unary-inside-init", "INSIDE(salmon)"),
                                            ("flying-init", "FLYING(salmon)"),
                                            ("sentence-init", "salmon is open")))):
        shutil.copytree(DATA_DIR / "scenes", tmp_path / name)
        doc = json.loads((tmp_path / name / "scene1.json").read_text(encoding="utf-8"))
        edit(doc)
        (tmp_path / name / "scene1.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "no-scenes").mkdir()
    (tmp_path / "taken").write_text("a file, not a directory", encoding="utf-8")
    (tmp_path / "run-ok.json").write_text('{"master_seed": 1, "repetitions": 1}', encoding="utf-8")
    (tmp_path / "run-seen.json").write_text(json.dumps(
        {"master_seed": 1, "repetitions": 1, "dataset": str(tmp_path / "seen-tasks.json"),
         "output_dir": str(tmp_path / "out")}),
        encoding="utf-8")
    task = next(t for t in json.loads((DATA_DIR / "tasks.json").read_text(encoding="utf-8"))
                if t["task_name"] not in seen_task_names())
    one_task = tmp_path / "one-task.json"
    one_task.write_text(json.dumps([task]), encoding="utf-8")
    record_suite(RunConfig(master_seed=1, repetitions=1, dataset=str(one_task),
                           fixtures_dir=str(tmp_path / "store")))
    stores = {}  # a replay store whose one prog file's samples are not a list
    for name, samples in (("null", None), ("number", 3), ("string", "find(mug)")):
        shutil.copytree(tmp_path / "store", tmp_path / f"{name}-samples")
        [path] = (tmp_path / f"{name}-samples").glob("*/prog/*.json")
        doc = {**json.loads(path.read_text(encoding="utf-8")), "samples": samples}
        path.write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / f"run-{name}-samples.json").write_text(json.dumps(
            {"master_seed": 1, "repetitions": 1, "dataset": str(one_task), "provider": "replay",
             "fixtures_dir": str(tmp_path / f"{name}-samples"), "output_dir": None}),
            encoding="utf-8")
        stores[name] = path, samples
    configs = {"latin1-tasks.json": {"dataset": "latin1-tasks.json"},
               "latin1-scenes/s.json": {"scenes_dir": "latin1-scenes"},
               "string-task.json": {"dataset": "string-task.json"},
               "string-entry-tasks.json": {"dataset": "string-entry-tasks.json"},
               "string-entry-actions.json": {"actions": "string-entry-actions.json"},
               "int-init/s.json": {"scenes_dir": "int-init"},
               "string-init/s.json": {"scenes_dir": "string-init"},
               "string-plan-tasks.json": {"dataset": "string-plan-tasks.json"},
               "int-plan-tasks.json": {"dataset": "int-plan-tasks.json"},
               "string-goals-tasks.json": {"dataset": "string-goals-tasks.json"},
               "object-tasks.json": {"dataset": "object-tasks.json"},
               "object-actions.json": {"actions": "object-actions.json"},
               "not-json-tasks.json": {"dataset": "not-json-tasks.json"},
               "binary-open-actions.json": {"actions": "binary-open-actions.json"},
               "unary-inside-actions.json": {"actions": "unary-inside-actions.json"},
               "hands-free-add-actions.json": {"actions": "hands-free-add-actions.json"},
               "negated-add-actions.json": {"actions": "negated-add-actions.json"},
               "string-required-actions.json": {"actions": "string-required-actions.json"},
               "int-name-actions.json": {"actions": "int-name-actions.json"},
               "float-arity-actions.json": {"actions": "float-arity-actions.json"},
               "bool-arity-actions.json": {"actions": "bool-arity-actions.json"},
               "empty-name-actions.json": {"actions": "empty-name-actions.json"},
               "star-name-actions.json": {"actions": "star-name-actions.json"},
               "call-name-actions.json": {"actions": "call-name-actions.json"},
               "newline-name-actions.json": {"actions": "newline-name-actions.json"},
               "duplicate-find-actions.json": {"actions": "duplicate-find-actions.json"},
               "unlisted-required-actions.json": {"actions": "unlisted-required-actions.json"},
               "two-required-actions.json": {"actions": "two-required-actions.json"},
               "unparsed-template-actions.json": {"actions": "unparsed-template-actions.json"},
               "flying-actions.json": {"actions": "flying-actions.json"},
               "undeclared-parameter-actions.json": {"actions": "undeclared-parameter-actions.json"},
               "wildcard-precondition-actions.json": {
                   "actions": "wildcard-precondition-actions.json"},
               "literal-actions.json": {"actions": "literal-actions.json"},
               "string-properties/s.json": {"scenes_dir": "string-properties"},
               "int-id/scene1.json": {"scenes_dir": "int-id"},
               "list-scene-id/scene1.json": {"scenes_dir": "list-scene-id"},
               "newline-class/scene1.json": {"scenes_dir": "newline-class"},
               "int-class/scene1.json": {"scenes_dir": "int-class"},
               "upper-class/scene1.json": {"scenes_dir": "upper-class"},
               "string-properties-bad-class/scene1.json": {
                   "scenes_dir": "string-properties-bad-class"},
               "agent-bad-class/scene1.json": {"scenes_dir": "agent-bad-class"},
               "string-objects/scene1.json": {"scenes_dir": "string-objects"},
               "string-entry/scene1.json": {"scenes_dir": "string-entry"},
               "no-scene-id/scene1.json": {"scenes_dir": "no-scene-id"},
               "agent-object/scene1.json": {"scenes_dir": "agent-object"},
               "call-id/scene1.json": {"scenes_dir": "call-id"},
               "empty-id/scene1.json": {"scenes_dir": "empty-id"},
               "binary-open-init/scene1.json": {"scenes_dir": "binary-open-init"},
               "unary-inside-init/scene1.json": {"scenes_dir": "unary-inside-init"},
               "flying-init/scene1.json": {"scenes_dir": "flying-init"},
               "sentence-init/scene1.json": {"scenes_dir": "sentence-init"},
               "nowhere-tasks.json": {"dataset": "nowhere-tasks.json"},
               "int-name-tasks.json": {"dataset": "int-name-tasks.json"},
               "no-scenes": {"scenes_dir": "no-scenes"}}
    for named, paths in configs.items():
        doc = {"master_seed": 1, "repetitions": 1, "output_dir": str(tmp_path / "out"),
               **{key: str(tmp_path / value) for key, value in paths.items()}}
        (tmp_path / f"run-{named.replace('/', '-')}").write_text(json.dumps(doc), encoding="utf-8")
    # What follows the file's name in the error, where a row pins the whole message.
    grab = f" entry {catalog.index(action['grab'])}: action 'grab'"
    entry = {name: f" entry {catalog.index(action[name])}: " for name in ("find", "open", "grab")}
    messages = {"duplicate-find-actions.json": ": duplicate action schema 'find'",
                "unlisted-required-actions.json": f"{grab}: required_properties must be a list",
                "two-required-actions.json": f"{grab}: more property lists than parameters",
                "no-scene-id/scene1.json": ": missing 'scene_id'",
                "newline-class/scene1.json": ": object 'fridge': class_name must be a non-empty "
                                             "lowercase token, got 'fridge\\n'",
                "int-class/scene1.json": ": object 'fridge': class_name must be a non-empty "
                                         "lowercase token, got 5",
                "upper-class/scene1.json": ": object 'fridge': class_name must be a non-empty "
                                           "lowercase token, got 'Apple'",
                "string-properties-bad-class/scene1.json": ": object 'fridge': properties must be "
                                                           "a list of strings, got 'CAN_OPEN'",
                "agent-bad-class/scene1.json": ": object 'agent': class_name must be a non-empty "
                                               "lowercase token, got 'Bad'",
                "agent-object/scene1.json": ": object id 'agent' is reserved",
                "string-objects/scene1.json": ": objects must be a list of JSON objects, got "
                                              "'apple'",
                "string-entry/scene1.json": ": objects entry 1 must be a JSON object, got 'apple'",
                "call-id/scene1.json": ": object id must be a lowercase token, got 'find(x)'",
                "empty-id/scene1.json": ": object id must be a lowercase token, got ''",
                "binary-open-init/scene1.json": ": OPEN is unary, got second object 'microwave'",
                "unary-inside-init/scene1.json": ": INSIDE is binary and needs a second object",
                "flying-init/scene1.json": ": unknown predicate token 'FLYING'; expected one of "
                                           "['CLEAN', 'CLOSED', 'CLOSE_TO', 'DIRTY', 'FACING', "
                                           "'HELD_BY_AGENT', 'INSIDE', 'OFF', 'ON', 'ON_TOP', 'OPEN']",
                "sentence-init/scene1.json": ": cannot parse predicate string 'salmon is open'",
                "unparsed-template-actions.json": f"{entry['open']}cannot parse template 'OPEN fridge'",
                "flying-actions.json": f"{entry['open']}template 'FLYING(?1)': unknown predicate "
                                       "'FLYING'",
                "undeclared-parameter-actions.json": f"{entry['open']}template 'INSIDE(?1, ?2)': "
                                                     "parameter '?2' not declared (arity 1)",
                "wildcard-precondition-actions.json": f"{entry['find']}template 'CLOSE_TO(agent, "
                                                      "*)': wildcard only allowed in delete effects",
                "literal-actions.json": f"{entry['grab']}template 'ON_TOP(?1, table)': literal "
                                        "'table' (only ?1, ?2, agent, * allowed)",
                "nowhere-tasks.json": ": task 'wash mug' references unknown scene 'nowhere'",
                "string-entry-tasks.json": " entry 1: a task must be a JSON object, got 'apple'",
                "int-init/s.json": ": init must be a list of strings, got [3]",
                "string-init/s.json": ": init must be a list of strings, got 'OPEN(x)'",
                "string-plan-tasks.json": " entry 0: goal_plan must be a list of strings, got "
                                          "'find(mug)'",
                "int-plan-tasks.json": " entry 0: goal_plan must be a list of strings, got [3]",
                "string-goals-tasks.json": " entry 0: goal_conditions must be a list of strings, "
                                           "got 'OPEN(mug)'",
                "string-entry-actions.json": " entry 1: an action schema must be a JSON object, "
                                             "got 'find'"}
    # Trace steps and episode records refused by name, and inputs nested deeper than the stack.
    for name, steps in (("string-step", ["x"]), ("string-steps", "x"),
                        ("int-step-command", [{"idx": 0, "command": 3, "outcome": "success"}]),
                        ("int-reason", [{"idx": 0, "command": "find(apple)", "outcome": "failure",
                                         "reason": 3}])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"steps": steps}), encoding="utf-8")
    episode = {"kind": "episode", "rep": 0, "task_index": 0, "gcr": 1.0, "exec": 1.0}
    bad_records = (("list-rep", "rep", [1], "an integer"),
                   ("text-task-index", "task_index", "1", "an integer"),
                   ("null-gcr", "gcr", None, "a number in [0, 1]"),
                   ("bool-gcr", "gcr", True, "a number in [0, 1]"),
                   ("big-exec", "exec", 1.5, "a number in [0, 1]"))
    for name, field, value, _ in bad_records:
        (tmp_path / name).mkdir()
        (tmp_path / name / "metrics.jsonl").write_text("\n".join(
            [run_record, json.dumps({**episode, "task_index": 1}),
             json.dumps({**episode, field: value})]) + "\n", encoding="utf-8")
    run_suite(RunConfig(master_seed=1, repetitions=2, drop_prob=0.2, swap_prob=0.1,
                        output_dir=str(tmp_path / "two-reps")))
    lines = (tmp_path / "two-reps" / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    second = json.loads(lines[1])
    for name, line in (("deleted-line", None), ("empty-record", "{}"),
                       ("x-kind", json.dumps({**second, "kind": "x"}))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "metrics.jsonl").write_text("".join(
            f"{text}\n" for text in [lines[0], line, *lines[2:]] if text is not None),
            encoding="utf-8")
    header = json.loads(lines[0])
    for name, kept in (("no-run-record", lines[1:]), ("two-run-records", [lines[0], *lines]),
                       ("lost-repetition", [line for line in lines if json.loads(line).get("rep") != 1]),
                       ("no-method", [json.dumps({k: v for k, v in header.items() if k != "method"}),
                                      *lines[1:]]),
                       ("text-repetitions", [json.dumps({**header, "repetitions": "2"}), *lines[1:]])):
        (tmp_path / name).mkdir()
        (tmp_path / name / "metrics.jsonl").write_text("".join(f"{text}\n" for text in kept),
                                                         encoding="utf-8")
    (tmp_path / "deep-tree.json").write_text(  # 1,500 levels below the root, one child each
        '{"vote": 1, "children": [' + '{"command": "find(apple)", "vote": 1, "children": [' * 1500
        + "]}" * 1501, encoding="utf-8")
    # 20,000 levels: Python 3.13 decodes 5,000, and fails on them as bad JSON instead.
    (tmp_path / "deep-config.json").write_text("[" * 20_000, encoding="utf-8")
    (tmp_path / "long-corpus.txt").write_text("".join(f"find(x{i})\n" for i in range(1400)),
                                              encoding="utf-8")
    (tmp_path / "comments-corpus.txt").write_text("# no plan here\n# nor here\n",
                                                  encoding="utf-8")
    capsys.readouterr()
    for argv, named in ((["run", "--config", missing], "missing.json"),
                        (["run", "--config", str(not_json)], "line 1"),
                        *((["diff", "--trace-a", str(tmp_path / f"{name}.json"),
                            "--trace-b", str(tmp_path / "empty-trace.json")],
                           f"error: {tmp_path}/{name}.json: {problem}\n")
                          for name, problem in (
                              ("string-step", "step 0 must be a JSON object, got 'x'"),
                              ("string-steps", "steps must be a list, got 'x'"),
                              ("int-step-command", "step 0: command must be a string, got 3"),
                              ("int-reason", "step 0: reason must be a string or null, got 3"))),
                        *((["metrics", "--results", str(tmp_path / name)],
                           f"error: {tmp_path}/{name}/metrics.jsonl: an episode record has a bad "
                           f"value: {field} must be {expected}, got {value!r}\n")
                          for name, field, value, expected in bad_records),
                        (["execute", "--tree", str(tmp_path / "deep-tree.json"),
                          "--scene", str(scene)],
                         f"error: {tmp_path}/deep-tree.json: nested too deeply\n"),
                        (["run", "--config", str(tmp_path / "deep-config.json")],
                         f"error: {tmp_path}/deep-config.json: nested too deeply\n"),
                        *((["build-tree", "--corpus", str(tmp_path / "long-corpus.txt"), *outline],
                           f"error: {tmp_path}/long-corpus.txt: vote tree: nested too deeply\n")
                          for outline in ([], ["--outline"])),
                        (["build-tree", "--corpus", str(tmp_path / "comments-corpus.txt")],
                         f"error: {tmp_path}/comments-corpus.txt: no plan to build a vote tree "
                         "from\n"),
                        *((["run", "--config", str(path)], "JSON object") for path in not_objects),
                        (["record", "--config", missing], "missing.json"),
                        (["execute", "--tree", missing, "--scene", str(scene)], "missing.json"),
                        (["execute", "--tree", str(tree), "--scene", missing], "missing.json"),
                        (["metrics", "--results", str(tmp_path / "bad-line")],
                         "bad-line/metrics.jsonl line 2: not a JSON object"),
                        (["metrics", "--results", str(tmp_path / "no-gcr")],
                         "no-gcr/metrics.jsonl: an episode record has no 'gcr'"),
                        (["metrics", "--results", str(tmp_path / "text-gcr")],
                         "text-gcr/metrics.jsonl: an episode record has a bad value"),
                        (["metrics", "--results", str(tmp_path / "int-method")],
                         "int-method/metrics.jsonl line 1: method must be a string"),
                        (["metrics", "--results", str(tmp_path / "header-only")],
                         f"error: no episode records in {tmp_path}/header-only/metrics.jsonl\n"),
                        (["metrics", "--results", str(tmp_path / "deleted-line")],
                         f"error: {tmp_path}/deleted-line/metrics.jsonl: the repetition records do "
                         "not match the episode records\n"),
                        (["metrics", "--results", str(tmp_path / "empty-record")],
                         f"error: {tmp_path}/empty-record/metrics.jsonl line 2: missing field "
                         "'kind'\n"),
                        (["metrics", "--results", str(tmp_path / "x-kind")],
                         f"error: {tmp_path}/x-kind/metrics.jsonl line 2: kind must be 'run', "
                         "'episode' or 'repetition', got 'x'\n"),
                        *((["metrics", "--results", str(tmp_path / name)],
                           f"error: {tmp_path}/{name}/metrics.jsonl{problem}\n")
                          for name, problem in (
                              ("no-run-record", ": 0 run records, where a run has one"),
                              ("two-run-records", ": 2 run records, where a run has one"),
                              ("lost-repetition", ": 1 repetition record(s), where the run record "
                                                  "says 2"),
                              ("no-method", " line 1: missing field 'method'"),
                              ("text-repetitions", " line 1: repetitions must be an integer >= 1, "
                                                   "got '2'"))),
                        (["run", "--config", str(tmp_path / "run-seen.json")],
                         f"error: {tmp_path}/seen-tasks.json: no tasks to evaluate after applying "
                         "the seen-task split\n"),
                        (["record", "--config", str(tmp_path / "run-ok.json")],
                         "error: record needs fixtures_dir\n"),
                        (["execute", "--tree", str(tmp_path / "no-vote.json"), "--scene", str(scene)],
                         "no-vote.json: missing field 'vote'"),
                        (["execute", "--tree", str(tmp_path / "no-command.json"), "--scene",
                          str(DATA_DIR / "scenes" / "scene1.json")],
                         "no-command.json: a node below the root has no command"),
                        *((["execute", "--tree", str(tmp_path / f"{name}.json"), "--scene",
                            str(scene)], f"{name}.json: vote must be an integer")
                          for name in ("float-vote", "bool-vote")),
                        (["execute", "--tree", str(tmp_path / "string-end-marker.json"), "--scene",
                          str(scene), "--termination", "end_marker_or_childless"],
                         "string-end-marker.json: end_marker must be true or false, got 'false'"),
                        *((["diff", "--trace-a", str(tmp_path / f"{name}.json"),
                            "--trace-b", str(tmp_path / "empty-trace.json")], problem)
                          for name, problem in (("no-steps", "no-steps.json: missing field 'steps'"),
                                                ("bad-command", "bad-command.json: cannot parse command "
                                                                "string 'find apple'"),
                                                ("misspelt-outcome", "misspelt-outcome.json: outcome must "
                                                 "be 'success' or 'failure', got 'succes'"),
                                                ("string-idx", "string-idx.json: step 0: idx must be 0, "
                                                               "got '0'"))),
                        (["run", "--config", str(tmp_path / "latin1.json")], "latin1.json"),
                        (["metrics", "--results", str(tmp_path / "latin1-results")],
                         "latin1-results/metrics.jsonl"),
                        (["execute", "--tree", str(tree), "--scene", str(tmp_path / "latin1.json")],
                         "latin1.json"),
                        (["diff", "--trace-a", str(tmp_path / "latin1.json"),
                          "--trace-b", str(tmp_path / "empty-trace.json")], "latin1.json"),
                        (["build-tree", "--corpus", str(tmp_path / "latin1-corpus.txt")],
                         "latin1-corpus.txt"),
                        (["run", "--config", str(tmp_path / "run-ok.json"),
                          "--output-dir", str(tmp_path / "taken")], "taken"),
                        *((["run", "--config", str(tmp_path / f"run-{named.replace('/', '-')}")],
                           named + messages.get(named, "")) for named in configs),
                        *((["run", "--config", str(tmp_path / f"run-{name}-samples.json")],
                           f"error: task {task['task_name']!r}, repetition 0: {path}: "
                           f"samples must be a list, got {samples!r}\n")
                          for name, (path, samples) in stores.items()),
                        *((["execute", "--tree", str(tmp_path / f"{name}.json"), "--scene",
                            str(scene)], f"error: {tmp_path}/{name}.json: {problem}\n")
                          for name, problem in (
                              ("int-node", "a node must be a JSON object, got 3"),
                              ("int-children", "children must be a list, got 3"),
                              ("int-command", "command must be a string or null, got 3")))):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, (argv, err)
        assert "Traceback" not in err, (argv, err)
