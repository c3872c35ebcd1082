"""Vote-weighted prefix tree over reordered plans.

Plans sharing a command prefix share a branch; each node counts how many
aggregated plans pass through it (its vote).  The root carries no command and
its vote equals the number of aggregated plans.  A tree is a value: built once
by ``build_vote_tree`` or ``tree_from_dict``, then only read.  Execution never
edits or re-weights it; backtracking only decides where the walk goes next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .errors import DatasetError, NoPlansError, check_choice
from .plans import Command, Plan

MAX_VOTE = "max_vote"
RANDOM = "random"
SELECTIONS = (MAX_VOTE, RANDOM)


class VoteTreeNode:
    """One trie node: a command, its vote, its end marker and children keyed by canonical form."""

    def __init__(self, command: Command | None = None):
        self.command = command
        self.vote = 0
        self.end_marker = False  # some aggregated plan terminates here
        self.children: dict[str, VoteTreeNode] = {}

    @property
    def key(self) -> str:
        return self.command.canonical_form if self.command else ""

    @property
    def is_root(self) -> bool:
        return self.command is None

    def __repr__(self) -> str:
        label = self.key or "<root>"
        return f"VoteTreeNode({label}, vote={self.vote}, children={len(self.children)})"


def build_vote_tree(plans: list[Plan]) -> VoteTreeNode:
    """Aggregate plans into the vote tree.

    For each plan, walk from the root creating absent children and increment
    the vote of every visited child.  The result is order independent: any
    permutation of ``plans`` builds the identical tree.
    """
    if not plans:
        raise NoPlansError("no_plans: cannot build a vote tree from an empty plan list")
    root = VoteTreeNode()
    root.vote = len(plans)
    for plan in plans:
        node = root
        for command in plan:
            key = command.canonical_form
            if key not in node.children:
                node.children[key] = VoteTreeNode(command)
            node = node.children[key]
            node.vote += 1
        node.end_marker = True
    return root


@dataclass
class SelectionStrategy:
    """Child selection policy: vote-greedy (deterministic) or seeded random."""

    kind: str = MAX_VOTE
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_choice("selection", self.kind, SELECTIONS)
        # max_vote never draws, so only random selection seeds a stream.
        self._rng = random.Random(self.rng_seed) if self.kind == RANDOM else None


def select_child(
    children: Mapping[str, VoteTreeNode], strategy: SelectionStrategy
) -> VoteTreeNode | None:
    """Pick one of ``children`` (keyed by canonical form), or None when there are none.

    max_vote takes the highest vote, breaking ties toward the
    lexicographically smallest canonical form; random draws uniformly from
    the strategy's seeded stream.  Both are independent of dict insertion
    order.
    """
    if not children:
        return None
    ordered_keys = sorted(children)
    if strategy.kind == RANDOM:
        return children[strategy._rng.choice(ordered_keys)]
    return max((children[k] for k in ordered_keys), key=lambda ch: ch.vote)


@dataclass(frozen=True)
class TreeStats:
    node_count: int
    max_depth: int
    leaf_count: int
    distinct_plans_represented: int


def tree_stats(root: VoteTreeNode) -> TreeStats:
    """Exact counts by traversal; the root counts as a node at depth 0."""
    node_count = 0
    leaf_count = 0
    max_depth = 0
    distinct = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        node_count += 1
        max_depth = max(max_depth, depth)
        if not node.children:
            leaf_count += 1
        if node.end_marker:
            distinct += 1
        stack.extend((c, depth + 1) for c in node.children.values())
    return TreeStats(node_count, max_depth, leaf_count, distinct)


# -- serialization ------------------------------------------------------------

def tree_to_dict(node: VoteTreeNode) -> dict:
    """Nested document form, children sorted by command for stable output."""
    return {
        "command": node.key or None,
        "vote": node.vote,
        "end_marker": node.end_marker,
        "children": [tree_to_dict(node.children[k]) for k in sorted(node.children)],
    }


def tree_from_dict(doc: dict) -> VoteTreeNode:
    """The tree of a ``tree_to_dict`` document; a node below the root
    without a command, a vote that is not an integer, or an end marker
    that is not a JSON bool (absent is false), is a ``DatasetError``."""
    command = Command.parse(doc["command"]) if doc.get("command") else None
    node = VoteTreeNode(command)
    node.vote = doc["vote"]
    if type(node.vote) is not int:
        raise DatasetError(f"vote must be an integer, got {node.vote!r}")
    node.end_marker = doc.get("end_marker", False)
    if type(node.end_marker) is not bool:
        raise DatasetError(f"end_marker must be true or false, got {node.end_marker!r}")
    for child_doc in doc.get("children", []):
        child = tree_from_dict(child_doc)
        if child.is_root:
            raise DatasetError("a node below the root has no command")
        node.children[child.key] = child
    return node


def render_outline(node: VoteTreeNode, indent: str = "") -> str:
    """Indented text rendering of the tree for reports and debugging."""
    lines = []
    if node.is_root:
        lines.append(f"{indent}<root> vote={node.vote}")
    else:
        marker = " *" if node.end_marker else ""
        lines.append(f"{indent}{node.key} vote={node.vote}{marker}")
    for key in sorted(node.children):
        lines.append(render_outline(node.children[key], indent + "  "))
    return "\n".join(lines)
