"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import random
import time
from pathlib import Path

import pytest

from votetree.diff import plan_diff_report
from votetree.executor import ExecutionMode, execute_tree
from votetree.harness import (
    RunConfig,
    record_suite,
    run_suite,
)
from votetree.metrics import compute_exec, compute_gcr, compute_sr
from votetree.plans import Command, parse_plan_text, render_plan
from votetree.tree import build_vote_tree, tree_stats, tree_to_dict
from votetree.world import ExecutionOutcome, World, WorldState, load_scene

from conftest import plan_of

DATA = Path(__file__).parent / "data"
SEED = 42


def _pass(criterion, detail):
    print(f"[acceptance] criterion {criterion:02d} PASS - {detail}")


def scripted_runner(outcomes):
    def run(state, command):
        ok = outcomes.get(command.canonical_form, True)
        return ExecutionOutcome(ok, state, None if ok else "scripted_failure")

    return run


def random_plan_set(rng, max_plans=50, max_len=10, alphabet=12):
    commands = [Command(f"act{i}", ("x",)) for i in range(alphabet)]
    return [
        tuple(rng.choice(commands) for _ in range(rng.randint(0, max_len)))
        for _ in range(rng.randint(1, max_plans))
    ]


def walk_nodes(root):
    """Every (canonical prefix, node) pair of the tree, the root's prefix empty."""
    stack = [((), root)]
    while stack:
        prefix, node = stack.pop()
        yield prefix, node
        stack.extend(((*prefix, key), child) for key, child in node.children.items())


def test_c01_vote_tree_oracle_equivalence():
    """Every node's vote equals brute-force prefix counting; structure is
    permutation invariant.  200 randomized plan sets, exact, < 10 s."""
    start = time.monotonic()
    rng = random.Random(SEED)
    for _ in range(200):
        plans = random_plan_set(rng)
        root = build_vote_tree(plans)
        for prefix, node in walk_nodes(root):
            if node.is_root:
                assert node.vote == len(plans)
                continue
            expected = sum(
                1
                for p in plans
                if [c.canonical_form for c in p[: len(prefix)]] == list(prefix)
            )
            assert node.vote == expected
        shuffled = plans[:]
        rng.shuffle(shuffled)
        assert tree_to_dict(build_vote_tree(shuffled)) == tree_to_dict(root)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _pass(1, f"200 plan sets, exact vote oracle + permutation invariance in {elapsed:.1f}s")


def test_c02_algorithm_conformance_all_outcome_combinations(worked_tree):
    """Hand-derived traces for all 8 success/failure combinations of
    {a, b, c} on the worked tree, including fallback and backtracking."""
    expectations = {
        (True, True, True): ([("a(x)", True), ("b(x)", True)], "completed"),
        (True, True, False): ([("a(x)", True), ("b(x)", True)], "completed"),
        (True, False, True): ([("a(x)", True), ("b(x)", False), ("c(x)", True)], "completed"),
        (True, False, False): ([("a(x)", True), ("b(x)", False), ("c(x)", False)], "exhausted"),
        (False, True, True): ([("a(x)", False)], "exhausted"),
        (False, True, False): ([("a(x)", False)], "exhausted"),
        (False, False, True): ([("a(x)", False)], "exhausted"),
        (False, False, False): ([("a(x)", False)], "exhausted"),
    }
    for combo, (expected_steps, expected_term) in expectations.items():
        outcomes = dict(zip(("a(x)", "b(x)", "c(x)"), combo))
        trace = execute_tree(
            worked_tree, scripted_runner(outcomes), WorldState(), ExecutionMode()
        )
        got = [(s.command.canonical_form, s.ok) for s in trace.steps]
        assert got == expected_steps, f"combo {combo}: got {got}"
        assert trace.termination == expected_term, f"combo {combo}"
    _pass(2, "all 8 outcome combinations match hand-derived traces")


def test_c03_termination_and_no_reexecution():
    """500 random trees with random failure injection: every episode ends
    within node_count steps and never attempts the same node twice."""
    rng = random.Random(SEED + 3)
    for _ in range(500):
        plans = random_plan_set(rng, max_plans=25, max_len=8, alphabet=8)
        plans = [p for p in plans if p] or [plan_of("act0(x)")]
        root = build_vote_tree(plans)
        bound = tree_stats(root).node_count
        outcomes = {f"act{i}(x)": rng.random() < 0.55 for i in range(8)}
        trace = execute_tree(
            root, scripted_runner(outcomes), WorldState(), ExecutionMode(), step_limit=100_000
        )
        assert trace.attempted <= bound
        paths = [s.node_path for s in trace.steps]
        assert len(paths) == len(set(paths))
        assert trace.termination in ("completed", "exhausted")
    _pass(3, "500 episodes terminate within node_count steps, no node re-executed")


def test_c04_metric_formulas_and_fixture_oracle(bundle):
    """Formula examples exactly, plus GCR on the apple fixture against an
    independent state-diff oracle."""
    from votetree.world import StatePredicate

    def preds(*names):
        return frozenset(StatePredicate("CLEAN", n) for n in names)

    assert compute_gcr(preds("a", "b"), preds("a", "b")) == 1.0
    assert compute_gcr(preds("x"), preds("a", "b", "c", "d")) == 0.0
    assert compute_gcr(preds("a", "b", "c"), preds("a", "b", "c", "d")) == 0.75
    assert compute_sr([1.0, 1.0, 0.5, 0.0]) == 0.5
    assert compute_sr([1.0, 1.0]) == 1.0
    assert compute_sr([0.5, 0.99]) == 0.0

    from votetree.harness import RunMemo, run_one_episode

    task = next(t for t in bundle.tasks if t.task_name == "put apple in fridge")
    memo = RunMemo(RunConfig(master_seed=SEED, output_dir=None), bundle, [task])
    episode, _ = run_one_episode(task, 0, memo)
    assert compute_exec(episode.trace) == 1.0

    # Independent oracle: simulate the goal plan step by step and diff sets.
    scene = bundle.scenes[task.scene_id]
    world = World(bundle.catalog, scene.objects)
    state = scene.initial_state
    for command in task.goal_plan:
        outcome = world.execute(state, command)
        assert outcome.ok
        state = outcome.state
    oracle_goal = state.predicates - scene.initial_state.predicates
    oracle_gcr = 1.0 - len(oracle_goal - episode.achieved) / len(oracle_goal)
    assert compute_gcr(episode.achieved, memo.goals[task]) == oracle_gcr == 1.0
    _pass(4, "metric formulas exact; fixture GCR equals the state-diff oracle")


def test_c05_zero_noise_upper_bound(bundle):
    """Noise-free synthetic provider: SR = 1.0 +/- 0.0 and Exec = 1.0 over
    10 repetitions of the fixture suite, in under 30 s."""
    start = time.monotonic()
    cfg = RunConfig(master_seed=SEED, repetitions=10, output_dir=None)
    result = run_suite(cfg, bundle, write_outputs=False)
    elapsed = time.monotonic() - start
    tasks = {e["task"] for e in result.episodes}
    scenes = {e["scene"] for e in result.episodes}
    assert len(tasks) >= 10 and len(scenes) >= 2
    assert result.row.sr_mean == 1.0
    assert result.row.sr_std == 0.0
    assert result.row.exec_mean == 1.0
    assert elapsed < 30.0
    _pass(5, f"SR 1.0 +/- 0.0, Exec 1.0 over {len(tasks)} tasks x10 reps in {elapsed:.1f}s")


def test_c06_correction_benefit_directional(bundle):
    """Seed-matched repetitions: with-correction SR and GCR are never below
    no-correction, and the mean gaps are positive (frozen as regression
    baselines for this seed)."""
    base = dict(master_seed=SEED, repetitions=10, drop_prob=0.2, swap_prob=0.1, output_dir=None)
    with_corr = run_suite(RunConfig(**base, mode="with_correction"), bundle, write_outputs=False)
    without = run_suite(RunConfig(**base, mode="no_correction"), bundle, write_outputs=False)
    sr_gaps, gcr_gaps = [], []
    for rw, rn in zip(with_corr.per_rep, without.per_rep):
        assert rw["sr"] >= rn["sr"], f"rep {rw['rep']}: SR {rw['sr']} < {rn['sr']}"
        assert rw["gcr"] >= rn["gcr"], f"rep {rw['rep']}: GCR {rw['gcr']} < {rn['gcr']}"
        sr_gaps.append(rw["sr"] - rn["sr"])
        gcr_gaps.append(rw["gcr"] - rn["gcr"])
    mean_sr_gap = sum(sr_gaps) / len(sr_gaps)
    mean_gcr_gap = sum(gcr_gaps) / len(gcr_gaps)
    assert mean_sr_gap > 0.0
    assert mean_gcr_gap > 0.0
    # Regression baselines measured once for SEED=42.
    assert mean_sr_gap == pytest.approx(0.04516129032258065, abs=1e-9)
    assert mean_gcr_gap == pytest.approx(0.025268817204301075, abs=1e-9)
    _pass(6, f"per-pair dominance holds; mean gaps SR +{mean_sr_gap:.4f}, GCR +{mean_gcr_gap:.4f}")


def test_c07_selection_ablation_directional(bundle):
    """Max-vote selection beats random selection on mean SR over 10
    seed-matched repetitions (directional only)."""
    base = dict(master_seed=SEED, repetitions=10, drop_prob=0.2, swap_prob=0.1,
                mode="no_correction", output_dir=None)
    max_vote = run_suite(RunConfig(**base, selection="max_vote"), bundle, write_outputs=False)
    rand = run_suite(RunConfig(**base, selection="random"), bundle, write_outputs=False)
    assert max_vote.row.sr_mean >= rand.row.sr_mean
    _pass(7, f"mean SR max_vote {max_vote.row.sr_mean:.3f} >= random {rand.row.sr_mean:.3f}")


def test_c08_pipeline_determinism(bundle, tmp_path):
    """Two `run` invocations with identical config over replay fixtures
    produce byte-identical summary tables."""
    fixtures = tmp_path / "fixtures"
    record_cfg = RunConfig(master_seed=SEED, provider="synthetic", drop_prob=0.1,
                           fixtures_dir=str(fixtures), output_dir=None)
    record_suite(record_cfg, bundle)
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        cfg = RunConfig(master_seed=SEED, provider="replay", fixtures_dir=str(fixtures),
                        repetitions=3, output_dir=str(out))
        run_suite(cfg, bundle)
        outputs.append(out)
    s1 = (outputs[0] / "summary.txt").read_bytes()
    s2 = (outputs[1] / "summary.txt").read_bytes()
    assert s1 == s2
    assert (outputs[0] / "metrics.jsonl").read_bytes() == (outputs[1] / "metrics.jsonl").read_bytes()
    _pass(8, "replay reruns are byte-identical (summary and metrics records)")


def test_c09_parser_golden_suite():
    """Recorded plan texts (with assertion blocks) parse to frozen goldens."""
    cases = sorted((DATA / "parser_golden").glob("*.txt"))
    assert len(cases) >= 20
    for case in cases:
        golden = case.with_suffix(".golden").read_text(encoding="utf-8").strip("\n")
        plan, _ = parse_plan_text(case.read_text(encoding="utf-8"))
        assert render_plan(plan) == golden, case.name
    assert any("assert(" in c.read_text(encoding="utf-8") for c in cases)
    _pass(9, f"{len(cases)} recorded plan texts match frozen golden sequences")


def test_c10_redundancy_report(bundle):
    """The qualitative comparison flags the duplicated find and the adjacent
    open-then-close pair as redundant, and the vote-tree trace is strictly
    shorter."""
    scene = load_scene(
        {
            "scene_id": "salmon_fridge",
            "objects": [
                {"id": "fridge", "properties": ["CAN_OPEN", "CONTAINER"]},
                {"id": "salmon", "properties": ["GRABBABLE", "EATABLE"]},
                {"id": "microwave", "properties": ["CAN_OPEN", "CONTAINER", "HAS_SWITCH"]},
            ],
            "init": ["CLOSED(fridge)", "CLOSED(microwave)", "OFF(microwave)"],
        }
    )
    world = World(bundle.catalog, scene.objects)

    def run_plan(commands):
        tree = build_vote_tree([plan_of(*commands)])
        return execute_tree(tree, world.execute, scene.initial_state,
                            ExecutionMode(kind="no_correction"))

    baseline_trace = run_plan([
        "find(salmon)", "grab(salmon)", "find(microwave)", "find(microwave)",
        "find(fridge)", "open(fridge)", "putin(salmon,fridge)", "close(fridge)",
        "open(fridge)", "close(fridge)",
    ])
    votetree_trace = run_plan([
        "find(salmon)", "grab(salmon)", "find(fridge)", "open(fridge)",
        "putin(salmon,fridge)", "close(fridge)",
    ])
    assert all(s.ok for s in baseline_trace.steps)

    report = plan_diff_report(baseline_trace, votetree_trace, labels=("baseline", "votetree"))
    statuses = {e.index: e.status for e in report.entries[0]}
    commands = {e.index: e.command for e in report.entries[0]}
    assert commands[3] == "find(microwave)" and statuses[3] == "redundant"
    assert commands[8] == "open(fridge)" and statuses[8] == "redundant"
    assert commands[9] == "close(fridge)" and statuses[9] == "redundant"
    assert report.shorter_side == 1
    assert report.lengths == (10, 6)
    assert "votetree is strictly shorter" in report.render()
    _pass(10, "duplicate find and open-then-close pair flagged; vote trace shorter (6 vs 10)")
