"""Vote-weighted prefix tree over reordered plans.

Plans sharing a command prefix share a branch; each node counts how many
aggregated plans pass through it (its vote).  The root carries no command and
its vote equals the number of aggregated plans.  A tree is a value: built once
by ``build_vote_tree`` or ``tree_from_dict``, then only read.  Execution never
edits or re-weights it; backtracking only decides where the walk goes next.
"""

import random
from typing import Mapping, NamedTuple

from .errors import BOOL, INTEGER, JSON_OBJECT, LIST, STRING_OR_NULL, DatasetError, check_value
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


def build_vote_tree(plans: list[Plan]) -> VoteTreeNode:
    """Aggregate plans into the vote tree.

    For each plan, walk from the root creating absent children and increment
    the vote of every visited child.  The result is order independent: any
    permutation of ``plans`` builds the identical tree, and no plans build
    the empty tree (vote 0, no end marker, no children).
    """
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


def select_child(
    children: Mapping[str, VoteTreeNode], rng: random.Random | None = None
) -> VoteTreeNode | None:
    """Pick one of ``children`` (keyed by canonical form), or None when there are none.

    Without ``rng`` (max_vote) the highest vote wins, ties going to the
    lexicographically smallest canonical form; with it (random) the pick is
    a uniform draw from ``rng``.  Both are independent of dict insertion
    order.
    """
    if not children:
        return None
    ordered_keys = sorted(children)
    if rng is not None:
        return children[rng.choice(ordered_keys)]
    return max((children[k] for k in ordered_keys), key=lambda ch: ch.vote)


class TreeStats(NamedTuple):
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
    """The tree of a ``tree_to_dict`` document; a node that is not a JSON
    object, a command that is not a string (absent or null is the root's),
    a node below the root without a command, a vote that is not an integer,
    an end marker that is not a JSON bool (absent is false), or children
    that are not a list, is a ``DatasetError``."""
    check_value("a node", doc, JSON_OBJECT, DatasetError)
    command = check_value("command", doc.get("command"), STRING_OR_NULL, DatasetError)
    node = VoteTreeNode(Command.parse(command) if command else None)
    node.vote = check_value("vote", doc["vote"], INTEGER, DatasetError)
    node.end_marker = check_value("end_marker", doc.get("end_marker", False), BOOL, DatasetError)
    for child_doc in check_value("children", doc.get("children", []), LIST, DatasetError):
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
