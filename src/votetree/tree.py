"""Vote-weighted prefix tree over reordered plans.

Plans sharing a command prefix share a branch; each node counts how many
aggregated plans pass through it (its vote).  The root carries no command and
its vote equals the number of aggregated plans.  Votes are fixed at
construction time: execution-time failure handling removes children, it never
re-weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NoPlansError, TreeLogicError, check_choice
from .plans import Command, Plan

MAX_VOTE = "max_vote"
RANDOM = "random"
SELECTIONS = (MAX_VOTE, RANDOM)


class VoteTreeNode:
    """One trie node: a command, its vote, and children keyed by canonical form."""

    def __init__(self, command: Command | None = None, parent: "VoteTreeNode | None" = None):
        self.command = command
        self.parent = parent
        self.vote = 0
        self.children: dict[str, VoteTreeNode] = {}
        self.end_count = 0  # number of aggregated plans that terminate here

    @property
    def key(self) -> str:
        return self.command.canonical_form if self.command else ""

    @property
    def is_root(self) -> bool:
        return self.command is None

    @property
    def end_marker(self) -> bool:
        return self.end_count > 0

    def path(self) -> tuple[str, ...]:
        """Canonical command prefix from the root down to this node."""
        parts: list[str] = []
        node: VoteTreeNode | None = self
        while node is not None and not node.is_root:
            parts.append(node.key)
            node = node.parent
        return tuple(reversed(parts))

    def child(self, command: Command) -> "VoteTreeNode":
        key = command.canonical_form
        node = self.children.get(key)
        if node is None:
            node = VoteTreeNode(command, parent=self)
            self.children[key] = node
        return node

    def clone(self, parent: "VoteTreeNode | None" = None) -> "VoteTreeNode":
        """Deep copy for episode-local mutation."""
        node = VoteTreeNode(self.command, parent=parent)
        node.vote = self.vote
        node.end_count = self.end_count
        node.children = {k: c.clone(parent=node) for k, c in self.children.items()}
        return node

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
        for command in plan.commands:
            node = node.child(command)
            node.vote += 1
        node.end_count += 1
    return root


@dataclass
class SelectionStrategy:
    """Child selection policy: vote-greedy (deterministic) or seeded random."""

    kind: str = MAX_VOTE
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_choice("selection", self.kind, SELECTIONS)
        self._rng = random.Random(self.rng_seed)


def select_child(node: VoteTreeNode, strategy: SelectionStrategy) -> VoteTreeNode | None:
    """Pick one child, or None when the node has none.

    max_vote takes the highest vote, breaking ties toward the
    lexicographically smallest canonical form; random draws uniformly from
    the strategy's seeded stream.  Both are independent of dict insertion
    order.
    """
    if not node.children:
        return None
    ordered_keys = sorted(node.children)
    if strategy.kind == RANDOM:
        return node.children[strategy._rng.choice(ordered_keys)]
    return max((node.children[k] for k in ordered_keys), key=lambda ch: ch.vote)


def remove_child(node: VoteTreeNode, child: VoteTreeNode) -> VoteTreeNode:
    """Detach ``child`` (and its subtree) from ``node``; votes are untouched."""
    existing = node.children.get(child.key)
    if existing is not child:
        raise TreeLogicError(f"{child!r} is not a child of {node!r}")
    del node.children[child.key]
    child.parent = None
    return node


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


def tree_from_dict(doc: dict, parent: VoteTreeNode | None = None) -> VoteTreeNode:
    command = Command.parse(doc["command"]) if doc.get("command") else None
    node = VoteTreeNode(command, parent=parent)
    node.vote = int(doc["vote"])
    node.end_count = 1 if doc.get("end_marker") else 0
    for child_doc in doc.get("children", []):
        child = tree_from_dict(child_doc, parent=node)
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
