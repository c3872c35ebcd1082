import json
import random

import pytest

from votetree.errors import ConfigError, NoPlansError
from votetree.executor import ExecutionMode
from votetree.plans import Command
from votetree.tree import (
    build_vote_tree,
    render_outline,
    select_child,
    tree_from_dict,
    tree_stats,
    tree_to_dict,
)

from conftest import plan_of


def random_plans(rng, max_plans=50, max_len=10, alphabet=12):
    commands = [Command(f"act{i}", ("x",)) for i in range(alphabet)]
    plans = []
    for _ in range(rng.randint(1, max_plans)):
        length = rng.randint(0, max_len)
        plans.append(tuple(rng.choice(commands) for _ in range(length)))
    return plans


def brute_force_vote(plans, prefix):
    """Oracle: how many plans start with the given canonical prefix."""
    n = 0
    for p in plans:
        forms = [c.canonical_form for c in p]
        if forms[: len(prefix)] == list(prefix):
            n += 1
    return n


def walk(root):
    """Every (canonical prefix, node) pair of the tree, the root's prefix empty."""
    stack = [((), root)]
    while stack:
        prefix, node = stack.pop()
        yield prefix, node
        stack.extend(((*prefix, key), child) for key, child in node.children.items())


class TestBuildVoteTree:
    def test_worked_example(self, worked_tree):
        root = worked_tree
        assert root.vote == 3
        a = root.children["a(x)"]
        assert a.vote == 3
        assert a.children["b(x)"].vote == 2
        assert a.children["c(x)"].vote == 1

    def test_single_plan_path(self):
        root = build_vote_tree([plan_of("a(x)", "b(x)", "c(x)")])
        node, votes = root, []
        while node.children:
            (node,) = node.children.values()
            votes.append(node.vote)
        assert votes == [1, 1, 1]

    def test_twenty_identical_plans(self):
        plans = [plan_of("a(x)", "b(x)") for _ in range(20)]
        root = build_vote_tree(plans)
        a = root.children["a(x)"]
        assert (root.vote, a.vote, a.children["b(x)"].vote) == (20, 20, 20)
        assert len(a.children) == 1

    def test_empty_plan_list_rejected(self):
        with pytest.raises(NoPlansError, match="no_plans"):
            build_vote_tree([])

    def test_votes_match_brute_force_oracle(self):
        rng = random.Random(2024)
        for _ in range(30):
            plans = random_plans(rng)
            root = build_vote_tree(plans)
            for prefix, node in walk(root):
                if node.is_root:
                    assert node.vote == len(plans)
                else:
                    assert node.vote == brute_force_vote(plans, prefix)

    def test_permutation_invariance(self):
        rng = random.Random(55)
        for _ in range(20):
            plans = random_plans(rng, max_plans=20)
            doc = tree_to_dict(build_vote_tree(plans))
            shuffled = plans[:]
            rng.shuffle(shuffled)
            assert tree_to_dict(build_vote_tree(shuffled)) == doc

    def test_conservation(self):
        rng = random.Random(99)
        for _ in range(30):
            plans = random_plans(rng, max_plans=30)
            root = build_vote_tree(plans)
            empty = sum(1 for p in plans if not p)
            assert sum(c.vote for c in root.children.values()) + empty == len(plans)

    def test_strict_prefix_marks_internal_end(self):
        plans = [plan_of("a(x)", "b(x)"), plan_of("a(x)", "b(x)", "c(x)")]
        root = build_vote_tree(plans)
        b = root.children["a(x)"].children["b(x)"]
        assert b.end_marker
        assert b.vote > sum(c.vote for c in b.children.values())

    def test_internal_no_end_has_vote_equality(self):
        plans = [plan_of("a(x)", "b(x)"), plan_of("a(x)", "c(x)")]
        a = build_vote_tree(plans).children["a(x)"]
        assert not a.end_marker
        assert a.vote == sum(c.vote for c in a.children.values())


class TestSelectChild:
    def test_max_vote_picks_highest(self, worked_tree):
        a = worked_tree.children["a(x)"]
        chosen = select_child(a.children, None)
        assert chosen.key == "b(x)"

    def test_lexicographic_tie_break(self):
        plans = [plan_of("a(x)", "c(x)"), plan_of("a(x)", "b(x)")]
        a = build_vote_tree(plans).children["a(x)"]
        assert select_child(a.children, None).key == "b(x)"

    def test_childless_returns_none(self, worked_tree):
        leaf = worked_tree.children["a(x)"].children["b(x)"]
        assert select_child(leaf.children, None) is None

    def test_random_is_seeded_and_uniformish(self, worked_tree):
        a = worked_tree.children["a(x)"]
        picks_one = [select_child(a.children, random.Random(s)).key
                     for s in range(40)]
        picks_two = [select_child(a.children, random.Random(s)).key
                     for s in range(40)]
        assert picks_one == picks_two
        assert set(picks_one) == {"b(x)", "c(x)"}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            ExecutionMode(selection="coin_flip")


class TestRemoveChild:
    """The executor removes a tried child from its copy of the untried children."""

    def test_runner_up_selected_after_removal(self, worked_tree):
        a = worked_tree.children["a(x)"]
        untried = dict(a.children)
        del untried[select_child(untried, None).key]
        assert select_child(untried, None).key == "c(x)"
        assert set(a.children) == {"b(x)", "c(x)"}


class TestTreeStats:
    def test_worked_example_counts(self, worked_tree):
        stats = tree_stats(worked_tree)
        assert stats.node_count == 4
        assert stats.max_depth == 2
        assert stats.leaf_count == 2
        assert stats.distinct_plans_represented == 2

    def test_single_plan_node_count(self):
        for length in (1, 4, 9):
            plan = plan_of(*(f"a{i}(x)" for i in range(length)))
            assert tree_stats(build_vote_tree([plan])).node_count == length + 1

    def test_distinct_plans_counts_end_nodes(self):
        plans = [
            plan_of("a(x)", "b(x)"),
            plan_of("a(x)", "b(x)", "c(x)"),
            plan_of("a(x)", "b(x)"),
        ]
        assert tree_stats(build_vote_tree(plans)).distinct_plans_represented == 2


class TestSerialization:
    def test_round_trip_stable(self):
        rng = random.Random(8)
        plans = random_plans(rng, max_plans=15)
        doc = tree_to_dict(build_vote_tree(plans))
        assert tree_to_dict(tree_from_dict(doc)) == doc
        text = json.dumps(doc, sort_keys=True)
        assert json.dumps(tree_to_dict(tree_from_dict(json.loads(text))), sort_keys=True) == text

    def test_outline_mentions_votes(self, worked_tree):
        outline = render_outline(worked_tree)
        assert "<root> vote=3" in outline
        assert "a(x) vote=3" in outline
        assert "b(x) vote=2 *" in outline
