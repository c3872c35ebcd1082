"""Plan text parsing and command normalization.

Generated plans are program-style call sequences (``find('salmon')`` lines,
``#`` comments, ``def task():`` headers, ``assert (...) else: ...`` recovery
blocks).  Parsing is line-oriented and never aborts: lines it cannot read
become diagnostics and the extracted command sequence is returned as a plan,
a tuple of commands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import EmptyCommandPoolError

# Aliases mapped onto canonical action names during normalization.
ACTION_ALIASES = {"walk": "find", "put": "putback"}

_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(([^()]*)\)")
_DEF_RE = re.compile(r"^\s*def\s+\w+\s*\(")
_SAMPLE_SEP_RE = re.compile(r"^---\s*sample\s+(\d+)\s*---\s*$", re.MULTILINE)
_SPACE_RE = re.compile(r"\s+")


def _clean_token(raw: str) -> str:
    """Trim quotes and whitespace from both ends (however nested), lowercase,
    and join inner whitespace runs with ``_``."""
    token = raw.strip()
    trimmed = token.strip("'\"").strip()
    while trimmed != token:
        token, trimmed = trimmed, trimmed.strip("'\"").strip()
    return _SPACE_RE.sub("_", token.lower())


@dataclass(frozen=True, order=True)
class Command:
    """One action applied to one or two objects; the atomic executable unit."""

    action: str
    args: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.action:
            raise ValueError("command has an empty action token")
        if len(self.args) not in (1, 2):
            raise ValueError(f"command {self.action!r} needs 1 or 2 arguments, got {len(self.args)}")

    @cached_property
    def canonical_form(self) -> str:
        return f"{self.action}({','.join(self.args)})"

    @classmethod
    def parse(cls, text: str) -> "Command":
        """Parse one ``action(arg[,arg])`` string, normalizing tokens."""
        m = _CALL_RE.search(text)
        if not m or m.group(0).strip() != text.strip():
            raise ValueError(f"cannot parse command string {text!r}")
        return _call_command(*m.groups())

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.canonical_form


def _call_command(action: str, argtext: str) -> Command:
    """The command of one ``action(argtext)`` call: tokens lowercased, trimmed
    and de-quoted, empty arguments skipped, aliases mapped to canonical
    actions.  Unknown actions pass through unchanged; whether they execute is
    decided by the environment, not the parser."""
    token = _clean_token(action)
    args = tuple(a for a in map(_clean_token, argtext.split(",")) if a)
    return Command(action=ACTION_ALIASES.get(token, token), args=args)


# An ordered command sequence: what one generated sample asks for.  A type
# alias for annotations only; a plan is a plain tuple of commands.
Plan = tuple[Command, ...]


def render_plan(plan: Plan) -> str:
    """Serialize a plan canonically: one ``action(arg[,arg])`` per line."""
    return "\n".join(c.canonical_form for c in plan)


@dataclass(frozen=True)
class ParseDiagnostic:
    code: str
    line_no: int = 0
    text: str = ""


# What one raw line parses to, in order: a Command per call, or a
# (code, text) diagnostic.  Line numbers and known-action checks are added
# per text, so one entry serves every text that contains the line.
_LineEntries = tuple[Command | tuple[str, str], ...]


def _parse_line(raw_line: str) -> _LineEntries:
    line = raw_line.split("#", 1)[0].strip()
    if not line or _DEF_RE.match(line) or line in ("pass", "return"):
        return ()

    scaffold = False
    if line.startswith("assert"):
        scaffold = True
        _, _, line = line.partition("else:")
        line = line.strip()
    elif line.startswith("else:"):
        scaffold = True
        line = line[len("else:"):].strip()
    if not line:
        return ()

    calls = _CALL_RE.findall(line)
    if not calls:
        return () if scaffold else (("unparseable_line", raw_line.strip()),)
    entries: list[Command | tuple[str, str]] = []
    for action, argtext in calls:
        try:
            entries.append(_call_command(action, argtext))
        except ValueError:
            entries.append(("bad_arity", f"{action}({argtext})"))
    return tuple(entries)


def parse_plan_text(
    text: str,
    known_actions: set[str] | frozenset[str] | None = None,
    line_memo: dict[str, _LineEntries] | None = None,
) -> tuple[Plan, list[ParseDiagnostic]]:
    """Extract the plan, a tuple of commands, from one generated plan text.

    Comment lines, function headers and assertion conditions are recognized
    scaffolding; action calls inside ``else:`` recovery branches are kept, in
    order.  Unparseable lines become diagnostics, never errors.  A degenerate
    sample parses to the empty tuple plus a ``no_commands_found`` diagnostic.

    ``line_memo`` maps raw lines to what they parse to.  Passing one dict to
    many calls parses each distinct line once; the result is the same as
    without it.
    """
    memo = {} if line_memo is None else line_memo
    commands: list[Command] = []
    diagnostics: list[ParseDiagnostic] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        entries = memo.get(raw_line)
        if entries is None:
            entries = memo[raw_line] = _parse_line(raw_line)
        for entry in entries:
            if isinstance(entry, Command):
                if known_actions is not None and entry.action not in known_actions:
                    diagnostics.append(
                        ParseDiagnostic("unknown_action", line_no, entry.canonical_form)
                    )
                commands.append(entry)
            else:
                diagnostics.append(ParseDiagnostic(entry[0], line_no, entry[1]))

    if not commands:
        diagnostics.append(ParseDiagnostic("no_commands_found"))
    return tuple(commands), diagnostics


def split_corpus(text: str) -> list[str]:
    """Split a multi-plan document on ``--- sample k ---`` separators."""
    if not _SAMPLE_SEP_RE.search(text):
        return [text]
    parts = _SAMPLE_SEP_RE.split(text)
    # split() yields [prefix, idx, body, idx, body, ...]; drop indices and
    # an empty leading prefix.
    bodies = [parts[i] for i in range(2, len(parts), 2)]
    if parts[0].strip():
        bodies.insert(0, parts[0])
    return bodies


def extract_unique_commands(plans: list[Plan]) -> tuple[Command, ...]:
    """The command pool: every plan command, deduplicated by canonical form
    and sorted by it; each form keeps the first command seen with it."""
    by_key: dict[str, Command] = {}
    for plan in plans:
        for command in plan:
            by_key.setdefault(command.canonical_form, command)
    if not by_key:
        raise EmptyCommandPoolError("empty_command_pool: no commands in any generated plan")
    return tuple(by_key[k] for k in sorted(by_key))
