"""Each run artifact the CLI reads, mutated once, through ``cli.main`` in process:
every case exits 0, or exits 1 with ``error: `` first, in the package's own
words.  No exception escapes and no message carries CPython's text, which
names neither the field nor the fix.

A mutation sets one field of the document, or one of the first two items of
one of its lists, to a value of the wrong type, or deletes it, or replaces the
whole document.  Each kind's base document is small enough that it has at
most ``CASES`` mutations, and Hypothesis runs each of them once.  A silent
coercion exits 0, so the property does not find one; the rows of
``test_cli.test_unreadable_inputs_fail_without_traceback`` do.
"""

import copy
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votetree.cli import main
from votetree.harness import RunConfig, record_suite, run_suite
from votetree.prompts import DATA_DIR, seen_task_names

# Phrases of CPython's own exception texts.
CPYTHON_TEXTS = ("indices must be integers", "expected string or bytes-like object",
                 "unhashable type", "not supported between instances of",
                 "unsupported operand type", "is not iterable", "is not subscriptable",
                 "has no attribute", "maximum recursion depth")

CASES = 200
DELETE = object()
# Written as a list nested deeper than any interpreter's recursion limit for JSON.
DEEP = "deeply nested"
DEEP_TEXT = "[" * 20_000 + "]" * 20_000
WRONG = (None, True, "x", [], [3], {}, DEEP)


def _places(doc, path=()):
    """The path of each field of ``doc``, and of the first two items of each
    of its lists, at any depth."""
    if isinstance(doc, dict):
        keys = list(doc)
    elif isinstance(doc, list):
        keys = range(min(len(doc), 2))
    else:
        return
    for key in keys:
        yield (*path, key)
        yield from _places(doc[key], (*path, key))


def _mutated(doc, path, value):
    """``doc`` with the item at ``path`` set to ``value`` (deleted for DELETE);
    the empty path replaces the whole document."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = reduce(getitem, path[:-1], doc)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutations(doc):
    """Each mutation of ``doc`` as (path, value)."""
    cases = [((), value) for value in WRONG]
    cases += [(path, value) for path in _places(doc) for value in (DELETE, *WRONG)]
    assert len(cases) <= CASES
    return st.sampled_from(cases)


def _json(doc) -> str:
    """The JSON text of ``doc``, with DEEP written as the list it stands for."""
    return json.dumps(doc).replace(json.dumps(DEEP), DEEP_TEXT)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """By file kind: (the base document, its mutations, the text of a document,
    the file a case writes, the command that reads it)."""
    root = tmp_path_factory.mktemp("artifacts")
    tasks = [t for t in json.loads((DATA_DIR / "tasks.json").read_text(encoding="utf-8"))
             if t["task_name"] not in seen_task_names()][:2]
    (root / "tasks.json").write_text(json.dumps(tasks), encoding="utf-8")
    scene = str(DATA_DIR / "scenes" / f"{tasks[0]['scene_id']}.json")
    small = dict(master_seed=1, repetitions=1, dataset=str(root / "tasks.json"),
                 prog_num_samples=2, reorder_num_samples=2)

    goal = tasks[0]["goal_plan"]  # the tree: a -> b twice, c once; the trace: a, b
    (root / "corpus.txt").write_text("".join(
        f"--- sample {k} ---\n" + "\n".join(plan) + "\n"
        for k, plan in enumerate([goal[:2], goal[:2], goal[2:3]])), encoding="utf-8")
    assert main(["build-tree", "--corpus", str(root / "corpus.txt"),
                 "--out", str(root / "base-tree.json")]) == 0
    assert main(["execute", "--tree", str(root / "base-tree.json"), "--scene", scene,
                 "--out", str(root / "base-trace.json")]) == 0
    run_suite(RunConfig(**small, output_dir=str(root / "results")))  # two episodes in one rep
    # One task in one scene: a replay run forks no worker and loads one scene file.
    small["dataset"], small["scenes_dir"] = str(root / "one-task.json"), str(root / "scenes")
    (root / "one-task.json").write_text(json.dumps(tasks[:1]), encoding="utf-8")
    (root / "scenes").mkdir()
    shutil.copy(scene, root / "scenes")
    record_suite(RunConfig(**small, fixtures_dir=str(root / "store")))
    [store_file] = (root / "store").glob("*/prog/*.json")
    (root / "replay.json").write_text(json.dumps(
        {**small, "provider": "replay", "fixtures_dir": str(root / "store"), "output_dir": None}),
        encoding="utf-8")

    def document(path):
        return json.loads(path.read_text(encoding="utf-8"))

    lines = (root / "results" / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    (root / "mutated").mkdir()
    kinds = {
        "tree": (document(root / "base-tree.json"), _json, root / "tree.json",
                 ["execute", "--tree", str(root / "tree.json"), "--scene", scene]),
        "trace": (document(root / "base-trace.json"), _json, root / "trace.json",
                  ["diff", "--trace-a", str(root / "trace.json"),
                   "--trace-b", str(root / "base-trace.json")]),
        "metrics": ([json.loads(line) for line in lines],
                    lambda doc: "".join(_json(r) + "\n" for r in doc) if isinstance(doc, list)
                    else _json(doc) + "\n",
                    root / "mutated" / "metrics.jsonl",
                    ["metrics", "--results", str(root / "mutated")]),
        "store": (document(store_file), _json, store_file,
                  ["run", "--config", str(root / "replay.json")]),
    }
    return {kind: (base, _mutations(base), *rest) for kind, (base, *rest) in kinds.items()}


@pytest.mark.parametrize("kind", ["tree", "trace", "metrics", "store"])
@settings(max_examples=CASES, deadline=None)
@given(data=st.data())
def test_a_mutated_artifact_fails_in_the_packages_own_words(artifacts, kind, data):
    base, mutations, text, path, argv = artifacts[kind]
    path.write_text(text(_mutated(base, *data.draw(mutations))), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code == 0 or (code == 1 and message.startswith("error: ")), (code, message)
    assert not [phrase for phrase in CPYTHON_TEXTS if phrase in message], message
