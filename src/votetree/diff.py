"""Qualitative comparison of two execution traces over the same task.

Each attempted command is classified as shared with the other trace,
unique to its own, redundant (a repeat of an earlier successful command, or
half of an adjacent open/close pair) or erroneous (it failed), and the report
says which trace is shorter.  ``votetree diff`` prints it.
"""

from __future__ import annotations

from collections.abc import Sequence

from .executor import StepRecord

SHARED = "shared-necessary"
REDUNDANT = "redundant"
ERRONEOUS = "erroneous"
UNIQUE = "unique"


def classify(steps: Sequence[StepRecord], other: Sequence[StepRecord]) -> tuple[list[str], int]:
    """The status of each step, and how many successful steps repeat an earlier
    successful command (a failed step changed nothing, so a retry is no repeat)."""
    other_commands = {s.command.canonical_form for s in other}
    seen: set[str] = set()
    duplicates = 0
    statuses: list[str] = []
    for step in steps:
        key = step.command.canonical_form
        if not step.ok:
            status = ERRONEOUS
        elif key in seen:
            status = REDUNDANT
            duplicates += 1
        else:
            status = SHARED if key in other_commands else UNIQUE
            seen.add(key)
        statuses.append(status)
    # An open(x) immediately followed by close(x) is a no-op pair.
    for i in range(len(steps) - 1):
        a, b = steps[i].command, steps[i + 1].command
        if (a.action, b.action) == ("open", "close") and a.args == b.args:
            for j in (i, i + 1):
                if statuses[j] != ERRONEOUS:
                    statuses[j] = REDUNDANT
    return statuses, duplicates


def plan_diff_report(
    steps_a: Sequence[StepRecord],
    steps_b: Sequence[StepRecord],
    labels: tuple[str, str] = ("a", "b"),
) -> str:
    """The text of a side-by-side classification of two traces' steps over the same task."""
    lines = []
    for label, steps, other in ((labels[0], steps_a, steps_b), (labels[1], steps_b, steps_a)):
        statuses, duplicates = classify(steps, other)
        lines.append(f"{label} ({len(steps)} commands, {duplicates} duplicates)")
        for i, (step, status) in enumerate(zip(steps, statuses)):
            lines.append(f"  {i:2d}. {step.command.canonical_form:40s} [{status}]")
        lines.append("")
    na, nb = len(steps_a), len(steps_b)
    if na != nb:
        shorter = labels[0] if na < nb else labels[1]
        lines.append(f"{shorter} is strictly shorter ({min(na, nb)} vs {max(na, nb)} commands).")
    else:
        lines.append("both traces have the same length.")
    return "\n".join(lines) + "\n"
