"""Qualitative comparison of two execution traces over the same task.

Each attempted command is classified as shared with the other trace,
unique to its own, redundant (a repeat, or half of an adjacent open/close
pair) or erroneous (it failed), and the report says which trace is shorter.  ``votetree diff`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .executor import ExecutionTrace

SHARED = "shared-necessary"
REDUNDANT = "redundant"
ERRONEOUS = "erroneous"
UNIQUE = "unique"


@dataclass(frozen=True)
class DiffEntry:
    index: int
    command: str
    status: str


@dataclass(frozen=True)
class DiffReport:
    labels: tuple[str, str]
    entries: tuple[tuple[DiffEntry, ...], tuple[DiffEntry, ...]]
    lengths: tuple[int, int]
    duplicate_counts: tuple[int, int]

    @property
    def shorter_side(self) -> int | None:
        if self.lengths[0] == self.lengths[1]:
            return None
        return 0 if self.lengths[0] < self.lengths[1] else 1

    def render(self) -> str:
        lines = []
        for side in (0, 1):
            lines.append(f"{self.labels[side]} ({self.lengths[side]} commands, "
                         f"{self.duplicate_counts[side]} duplicates)")
            for e in self.entries[side]:
                lines.append(f"  {e.index:2d}. {e.command:40s} [{e.status}]")
            lines.append("")
        if self.shorter_side is not None:
            lines.append(
                f"{self.labels[self.shorter_side]} is strictly shorter "
                f"({min(self.lengths)} vs {max(self.lengths)} commands)."
            )
        else:
            lines.append("both traces have the same length.")
        return "\n".join(lines) + "\n"


def _classify_side(trace: ExecutionTrace, other: ExecutionTrace) -> tuple[list[DiffEntry], int]:
    other_commands = {s.command.canonical_form for s in other.steps}
    seen: set[str] = set()
    duplicates = 0
    statuses: list[str] = []
    commands = [s.command for s in trace.steps]
    for step in trace.steps:
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
    for i in range(len(commands) - 1):
        a, b = commands[i], commands[i + 1]
        if (a.action, b.action) == ("open", "close") and a.args == b.args:
            for j in (i, i + 1):
                if statuses[j] != ERRONEOUS:
                    statuses[j] = REDUNDANT
    entries = [DiffEntry(i, c.canonical_form, s)
               for i, (c, s) in enumerate(zip(commands, statuses))]
    return entries, duplicates


def plan_diff_report(
    trace_a: ExecutionTrace,
    trace_b: ExecutionTrace,
    labels: tuple[str, str] = ("a", "b"),
) -> DiffReport:
    """Side-by-side classification of two traces over the same task."""
    entries_a, dup_a = _classify_side(trace_a, trace_b)
    entries_b, dup_b = _classify_side(trace_b, trace_a)
    return DiffReport(
        labels=labels,
        entries=(tuple(entries_a), tuple(entries_b)),
        lengths=(trace_a.attempted, trace_b.attempted),
        duplicate_counts=(dup_a, dup_b),
    )
