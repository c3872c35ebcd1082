import json

import pytest

from votetree.cli import main
from votetree.harness import RunConfig, record_suite


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


def test_run_metrics_and_determinism(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    record_cfg = RunConfig(master_seed=2, provider="synthetic", fixtures_dir=str(fixtures),
                           output_dir=None)
    record_suite(record_cfg)

    cfg = RunConfig(master_seed=2, provider="replay", fixtures_dir=str(fixtures),
                    repetitions=2, output_dir=None)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")

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
    trace_a = {
        "termination": "completed",
        "steps": [
            {"idx": 0, "command": "find(salmon)", "outcome": "success"},
            {"idx": 1, "command": "find(microwave)", "outcome": "success"},
            {"idx": 2, "command": "find(microwave)", "outcome": "success"},
        ],
    }
    trace_b = {
        "termination": "completed",
        "steps": [{"idx": 0, "command": "find(salmon)", "outcome": "success"}],
    }
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(trace_a), encoding="utf-8")
    pb.write_text(json.dumps(trace_b), encoding="utf-8")
    rc = main(["diff", "--trace-a", str(pa), "--trace-b", str(pb),
               "--label-a", "baseline", "--label-b", "votetree"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[redundant]" in out
    assert "votetree is strictly shorter" in out


def test_record_command(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    cfg = RunConfig(master_seed=4, provider="synthetic", fixtures_dir=str(fixtures),
                    output_dir=None)
    cfg_path = tmp_path / "record.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert main(["record", "--config", str(cfg_path)]) == 0
    assert "recorded" in capsys.readouterr().out
    assert any(fixtures.iterdir())


def test_error_paths_return_nonzero(tmp_path, capsys):
    cfg = dict(RunConfig(output_dir=None).to_dict(), provider="replay")  # no master seed, no fixtures
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
    capsys.readouterr()
    for argv, named in ((["run", "--config", missing], "missing.json"),
                        (["run", "--config", str(not_json)], "line 1"),
                        *((["run", "--config", str(path)], "JSON object") for path in not_objects),
                        (["record", "--config", missing], "missing.json"),
                        (["execute", "--tree", missing, "--scene", str(scene)], "missing.json"),
                        (["execute", "--tree", str(tree), "--scene", missing], "missing.json")):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, (argv, err)
